#include <algorithm>
#include <sstream>

#include "conformance/conformance.h"

namespace conformance {

namespace {

/// A candidate is accepted only if the mutated spec STILL fails — each
/// probe costs one checked (double) execution against the budget.
bool still_fails(const CaseSpec& spec, int& budget) {
    if (budget <= 0) return false;
    --budget;
    return !run_case_checked(spec).ok;
}

bool same_spec(const CaseSpec& a, const CaseSpec& b) {
    return a.describe() == b.describe();
}

/// Topology mutations can strand a kill spec: the victim rank must exist
/// and at least two ranks must survive the kill (the generator guarantees
/// both; the shrinker must not probe specs that violate them).
bool kill_spec_valid(const CaseSpec& c) {
    if (c.kill_rank < 0) return true;
    const int p = c.total_ranks();
    if (p < 3 || c.kill_rank >= p) return false;
    int victims = 1;
    if (c.kill_node) {
        int lo = 0;
        for (const int n : c.procs_per_node) {
            if (c.kill_rank < lo + n) {
                victims = n;
                break;
            }
            lo += n;
        }
    }
    return p - victims >= 2;
}

}  // namespace

CaseSpec shrink(const CaseSpec& failing, int max_runs) {
    CaseSpec cur = failing;
    int budget = max_runs;
    bool progress = true;
    while (progress && budget > 0) {
        progress = false;
        std::vector<CaseSpec> cands;

        // Kill dimension before everything else (even the payload faults):
        // a failure that survives with the kill stripped is an ordinary
        // collective bug wearing a recovery costume, and every later probe
        // gets three runs cheaper (no clean twin). Then de-escalate: a
        // single-rank kill instead of the whole node, and a later kill time
        // (a failure that needed the kill INSIDE the collective shows up as
        // the kill_frac floor the reproducer keeps).
        if (cur.kill_rank >= 0) {
            CaseSpec c = cur;
            c.kill_rank = -1;
            c.kill_node = false;
            cands.push_back(c);
        }
        if (cur.kill_node) {
            CaseSpec c = cur;
            c.kill_node = false;
            cands.push_back(c);
        }
        if (cur.kill_rank >= 0 && cur.kill_frac < 0.9) {
            CaseSpec c = cur;
            c.kill_frac = std::min(0.9, cur.kill_frac * 1.5);
            cands.push_back(c);
        }

        // Structural simplifications next: each removes a whole dimension
        // from the reproducer, the biggest wins per probe. The execution
        // mode goes before everything else: a failure that survives in
        // Blocking form is a data bug, not an engine bug, and the blocking
        // reproducer is far easier to step through.
        if (cur.exec != ExecMode::Blocking) {
            CaseSpec c = cur;
            c.exec = ExecMode::Blocking;
            cands.push_back(c);
        }
        {
            CaseSpec c = cur;
            c.faults = minimpi::FaultPlan{};
            c.robust = false;
            cands.push_back(c);
        }
        if (cur.faults.payload_active() || cur.faults.shm_fail_every > 0) {
            // Keep timing faults, zero the payload/allocation ones.
            CaseSpec c = cur;
            c.faults.drop_every = 0;
            c.faults.dup_every = 0;
            c.faults.corrupt_every = 0;
            c.faults.shm_fail_every = 0;
            cands.push_back(c);
        }
        if (cur.robust) {
            // Disabling the robust layer only makes sense with the payload
            // faults gone too — RobustFrames-scoped faults have nothing to
            // hit once no robust frames are sent.
            CaseSpec c = cur;
            c.robust = false;
            c.faults.drop_every = 0;
            c.faults.dup_every = 0;
            c.faults.corrupt_every = 0;
            c.faults.shm_fail_every = 0;
            cands.push_back(c);
        }
        {
            CaseSpec c = cur;
            c.subcomm = false;
            cands.push_back(c);
        }
        {
            CaseSpec c = cur;
            c.iterations = 1;
            cands.push_back(c);
        }
        {
            CaseSpec c = cur;
            c.leaders = 1;
            cands.push_back(c);
        }
        // Bridge algorithm: the combined whole-node-block Bruck shrinks to
        // the per-leader BruckV it is built from — a failure that survives
        // removes the locality aggregation from the reproducer.
        if (cur.bridge == hympi::BridgeAlgo::LocBruck) {
            CaseSpec c = cur;
            c.bridge = hympi::BridgeAlgo::BruckV;
            cands.push_back(c);
        }
        {
            CaseSpec c = cur;
            c.placement = minimpi::Placement::Smp;
            cands.push_back(c);
        }
        // Pipeline dimensions before the whole socket axis: a failure that
        // survives with the default chunk size (or without the pipelined
        // engine at all) removes the chunk protocol from the reproducer.
        if (cur.chunk_bytes != 0) {
            CaseSpec c = cur;
            c.chunk_bytes = 0;
            cands.push_back(c);
        }
        if (cur.staging == hympi::SocketStaging::Pipelined) {
            CaseSpec c = cur;
            c.staging = hympi::SocketStaging::Staged;
            cands.push_back(c);
        }
        if (cur.sockets > 1) {
            CaseSpec c = cur;
            c.sockets = 1;
            c.staging = hympi::SocketStaging::Auto;
            c.chunk_bytes = 0;
            cands.push_back(c);
        }

        // Topology: fewer nodes, then fewer ranks per node.
        if (cur.procs_per_node.size() > 1) {
            CaseSpec c = cur;
            c.procs_per_node.resize((cur.procs_per_node.size() + 1) / 2);
            cands.push_back(c);
            c = cur;
            c.procs_per_node.pop_back();
            cands.push_back(c);
        }
        {
            CaseSpec c = cur;
            for (int& n : c.procs_per_node) n = (n + 1) / 2;
            cands.push_back(c);
        }
        {
            // Decrement the most populated node by one.
            CaseSpec c = cur;
            int* biggest = &c.procs_per_node.front();
            for (int& n : c.procs_per_node) {
                if (n > *biggest) biggest = &n;
            }
            if (*biggest > 1) {
                --*biggest;
                cands.push_back(c);
            }
        }

        // Payload: toward zero, then one, then halves.
        if (cur.block_bytes > 0) {
            CaseSpec c = cur;
            c.block_bytes = 0;
            cands.push_back(c);
            c.block_bytes = 1;
            cands.push_back(c);
            c.block_bytes = cur.block_bytes / 2;
            cands.push_back(c);
        }

        for (const CaseSpec& cand : cands) {
            if (same_spec(cand, cur)) continue;
            if (!kill_spec_valid(cand)) continue;
            if (still_fails(cand, budget)) {
                cur = cand;
                progress = true;
                break;  // restart the candidate ladder from the new spec
            }
            if (budget <= 0) break;
        }
    }
    return cur;
}

HarnessReport run_random_cases(
    std::uint64_t master_seed, int ncases, bool with_faults, bool with_kills,
    const std::function<void(int, const CaseSpec&)>& on_case) {
    HarnessReport rep;
    for (int i = 0; i < ncases; ++i) {
        const CaseSpec spec =
            generate_case(master_seed, i, with_faults, with_kills);
        if (on_case) on_case(i, spec);
        ++rep.cases;
        const CaseResult res = run_case_checked(spec);
        if (res.ok) continue;
        ++rep.failures;
        const CaseSpec small = shrink(spec);
        const CaseResult sres = run_case_checked(small);
        std::ostringstream os;
        os << "case " << i << " (master_seed=" << master_seed << ") failed\n"
           << "  original:  " << spec.describe() << "\n"
           << "  minimized: " << small.describe() << "\n"
           << "  mismatch:  " << (sres.ok ? res.detail : sres.detail);
        rep.first_failure = os.str();
        break;  // one shrunk reproducer is the actionable artifact
    }
    return rep;
}

}  // namespace conformance
