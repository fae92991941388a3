#include <numeric>
#include <sstream>

#include "conformance/conformance.h"
#include "robust/checksum.h"

namespace conformance {

namespace {

using hympi::robust::mix64;

/// Minimal counter-based stream: draw(k) is the k-th value of the stream —
/// order-independent, so generation and derivation never get entangled.
class Stream {
public:
    explicit Stream(std::uint64_t seed) : seed_(seed) {}
    std::uint64_t next() { return mix64(seed_ ^ ctr_++); }
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /// True with probability pct/100.
    bool chance(int pct) { return below(100) < static_cast<std::uint64_t>(pct); }

private:
    std::uint64_t seed_;
    std::uint64_t ctr_ = 0;
};

/// Payload sizes the generator samples from: boundaries (0, 1), odd sizes
/// straddling cache lines and datatype widths, and sizes on both sides of
/// the vendor profiles' algorithm-selection thresholds.
constexpr std::size_t kSizes[] = {0,    1,    3,     7,     17,  64,
                                  255,  1024, 4096,  16384, 65536};

}  // namespace

int CaseSpec::total_ranks() const {
    return std::accumulate(procs_per_node.begin(), procs_per_node.end(), 0);
}

const char* op_name(CollOp op) {
    switch (op) {
        case CollOp::Allgather: return "allgather";
        case CollOp::Allgatherv: return "allgatherv";
        case CollOp::Bcast: return "bcast";
        case CollOp::Allreduce: return "allreduce";
        case CollOp::Reduce: return "reduce";
        case CollOp::Gather: return "gather";
        case CollOp::Scatter: return "scatter";
        case CollOp::Alltoall: return "alltoall";
    }
    return "?";
}

const char* exec_name(ExecMode m) {
    switch (m) {
        case ExecMode::Blocking: return "blocking";
        case ExecMode::Nonblocking: return "nonblocking";
        case ExecMode::Persistent: return "persistent";
    }
    return "?";
}

std::vector<int> CaseSpec::derive_members() const {
    const int p = total_ranks();
    std::vector<int> members;
    if (!subcomm) {
        members.resize(static_cast<std::size_t>(p));
        std::iota(members.begin(), members.end(), 0);
        return members;
    }
    for (int r = 0; r < p; ++r) {
        if (mix64(seed ^ 0x5B5ULL ^ static_cast<std::uint64_t>(r)) % 3 != 0) {
            members.push_back(r);
        }
    }
    // A sub-communicator below two ranks exercises nothing: force the two
    // lowest world ranks in (keeps membership a pure function of the spec).
    if (members.size() < 2 && p >= 2) {
        members.assign({0, 1});
    } else if (members.empty()) {
        members.assign({0});
    }
    return members;
}

std::vector<std::size_t> CaseSpec::derive_v_bytes(int active_size) const {
    // Irregular per-rank counts in [0, block_bytes], with zero-length
    // contributions deliberately common (~1 in 4).
    std::vector<std::size_t> v(static_cast<std::size_t>(active_size));
    for (int r = 0; r < active_size; ++r) {
        const std::uint64_t h =
            mix64(seed ^ 0x7E5ULL ^ static_cast<std::uint64_t>(r));
        v[static_cast<std::size_t>(r)] =
            (h % 4 == 0 || block_bytes == 0) ? 0 : h % (block_bytes + 1);
    }
    return v;
}

int CaseSpec::derive_root(int active_size) const {
    return static_cast<int>(mix64(seed ^ 0x200DULL) %
                            static_cast<std::uint64_t>(active_size));
}

std::string CaseSpec::describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " op=" << op_name(op) << " nodes=[";
    for (std::size_t i = 0; i < procs_per_node.size(); ++i) {
        os << (i ? "," : "") << procs_per_node[i];
    }
    os << "] placement="
       << (placement == minimpi::Placement::Smp ? "smp" : "rr");
    if (sockets > 1) {
        os << " sockets=" << sockets << " staging="
           << (staging == hympi::SocketStaging::Flat        ? "flat"
               : staging == hympi::SocketStaging::Staged    ? "staged"
               : staging == hympi::SocketStaging::Pipelined ? "pipelined"
                                                            : "auto");
    }
    // Kept out of the line for the 0 default so pre-pipeline reproducers
    // parse unchanged.
    if (chunk_bytes > 0) os << " chunk=" << chunk_bytes;
    os << " profile=" << (cray_profile ? "cray" : "openmpi");
    // Kept out of the line for Blocking so pre-ExecMode reproducers parse
    // unchanged.
    if (exec != ExecMode::Blocking) os << " exec=" << exec_name(exec);
    os << " sync=" << (sync == hympi::SyncPolicy::Barrier ? "barrier" : "flags")
       << " leaders=" << leaders << " iters=" << iterations
       << " block=" << block_bytes;
    if (op == CollOp::Allgather || op == CollOp::Allgatherv) {
        const char* bridge_name = "auto";
        switch (bridge) {
            case hympi::BridgeAlgo::Allgatherv: bridge_name = "allgatherv"; break;
            case hympi::BridgeAlgo::Bcast: bridge_name = "bcast"; break;
            case hympi::BridgeAlgo::Pipelined: bridge_name = "pipe"; break;
            case hympi::BridgeAlgo::BruckV: bridge_name = "bruckv"; break;
            case hympi::BridgeAlgo::LocBruck: bridge_name = "locbruck"; break;
            case hympi::BridgeAlgo::NeighborExchange:
                bridge_name = "nbrex";
                break;
            case hympi::BridgeAlgo::Auto: break;
        }
        os << " bridge=" << bridge_name;
    }
    if (op == CollOp::Allreduce || op == CollOp::Reduce) {
        os << " dt=" << static_cast<int>(dt)
           << " redop=" << static_cast<int>(red_op);
    }
    if (subcomm) {
        os << " subcomm=[";
        const auto members = derive_members();
        for (std::size_t i = 0; i < members.size(); ++i) {
            os << (i ? "," : "") << members[i];
        }
        os << "]";
    }
    if (faults.timing_active()) {
        os << " jitter=" << faults.max_jitter_us << "us";
        if (!faults.delayed_ranks.empty()) {
            os << " delay=" << faults.rank_delay_us << "us@[";
            for (std::size_t i = 0; i < faults.delayed_ranks.size(); ++i) {
                os << (i ? "," : "") << faults.delayed_ranks[i];
            }
            os << "]";
        }
    }
    if (faults.corrupt_every > 0) {
        os << " corrupt_every=" << faults.corrupt_every;
    }
    if (faults.drop_every > 0) os << " drop_every=" << faults.drop_every;
    if (faults.dup_every > 0) os << " dup_every=" << faults.dup_every;
    if (faults.shm_fail_every > 0) {
        os << " shm_fail_every=" << faults.shm_fail_every;
    }
    if (faults.payload_active() || faults.shm_fail_every > 0) {
        os << " scope="
           << (faults.scope == minimpi::FaultScope::AllTraffic ? "all"
                                                               : "robust");
    }
    if (robust) os << " robust=1";
    // Kept out of the line when no kill is injected so pre-recovery
    // reproducers parse unchanged.
    if (kill_rank >= 0) {
        os << " kill=" << kill_rank;
        if (kill_node) os << " kill_node=1";
        os << " kill_frac=" << kill_frac;
    }
    return os.str();
}

CaseSpec generate_case(std::uint64_t master_seed, int index, bool with_faults,
                       bool with_kills) {
    Stream s(mix64(master_seed) ^
             mix64(static_cast<std::uint64_t>(index) * 0x517cc1b727220a95ULL));
    CaseSpec spec;
    spec.seed = s.next() | 1;

    // Topology: ~1 in 10 cases use the paper's irregular 42x24+1x16 shape
    // scaled down (5 full nodes + one short node); otherwise 1..5 nodes with
    // regular or per-node-random population.
    if (s.chance(10)) {
        spec.procs_per_node = {6, 6, 6, 6, 6, 4};
    } else {
        const int nnodes = 1 + static_cast<int>(s.below(5));
        spec.procs_per_node.assign(static_cast<std::size_t>(nnodes), 0);
        if (s.chance(50)) {
            const int ppn = 1 + static_cast<int>(s.below(5));
            for (int& n : spec.procs_per_node) n = ppn;
        } else {
            for (int& n : spec.procs_per_node) {
                n = 1 + static_cast<int>(s.below(5));
            }
        }
    }
    spec.placement = s.chance(25) ? minimpi::Placement::RoundRobin
                                  : minimpi::Placement::Smp;
    // NUMA socket axis: half the cases keep flat (pre-socket) nodes; the
    // rest model 2 or 4 sockets with a forced or table-driven staging mode.
    if (s.chance(50)) {
        spec.sockets = s.chance(50) ? 2 : 4;
        switch (s.below(4)) {
            case 0: spec.staging = hympi::SocketStaging::Flat; break;
            case 1: spec.staging = hympi::SocketStaging::Staged; break;
            case 2: spec.staging = hympi::SocketStaging::Pipelined; break;
            default: spec.staging = hympi::SocketStaging::Auto; break;
        }
        // Pipeline chunk geometry, sampled for every staging mode so Auto
        // cases that reach the pipeline also see forced odd chunk sizes:
        // 1 KiB (many flag rounds), 4 KiB, or 0 (tuned/whole message).
        constexpr std::size_t kChunks[] = {1024, 4096, 0};
        spec.chunk_bytes = kChunks[s.below(std::size(kChunks))];
    }
    spec.cray_profile = s.chance(50);
    spec.subcomm = spec.total_ranks() >= 3 && s.chance(25);

    spec.op = static_cast<CollOp>(s.below(kNumOps));
    // Split-phase execution modes exist for the four channels with a
    // start()/wait() pair; the rest always run blocking.
    if (spec.op == CollOp::Allgather || spec.op == CollOp::Allgatherv ||
        spec.op == CollOp::Bcast || spec.op == CollOp::Allreduce) {
        switch (s.below(3)) {
            case 0: spec.exec = ExecMode::Nonblocking; break;
            case 1: spec.exec = ExecMode::Persistent; break;
            default: break;  // Blocking
        }
    }
    spec.sync = s.chance(50) ? hympi::SyncPolicy::Barrier
                             : hympi::SyncPolicy::Flags;
    switch (s.below(7)) {
        case 0: spec.bridge = hympi::BridgeAlgo::Allgatherv; break;
        case 1: spec.bridge = hympi::BridgeAlgo::Bcast; break;
        case 2: spec.bridge = hympi::BridgeAlgo::Pipelined; break;
        case 3: spec.bridge = hympi::BridgeAlgo::BruckV; break;
        case 4: spec.bridge = hympi::BridgeAlgo::NeighborExchange; break;
        case 5: spec.bridge = hympi::BridgeAlgo::LocBruck; break;
        default: spec.bridge = hympi::BridgeAlgo::Auto; break;
    }
    // Multi-leader is an allgather-channel extension only.
    if ((spec.op == CollOp::Allgather || spec.op == CollOp::Allgatherv) &&
        s.chance(25)) {
        spec.leaders = 2;
    }
    spec.iterations = 1 + static_cast<int>(s.below(3));

    spec.block_bytes = kSizes[s.below(std::size(kSizes))];
    if (spec.op == CollOp::Allreduce || spec.op == CollOp::Reduce) {
        // Element count = block_bytes / size; exact (integer) arithmetic
        // only, so hierarchical and flat reassociation cannot diverge.
        constexpr minimpi::Datatype kDts[] = {minimpi::Datatype::Int32,
                                              minimpi::Datatype::Int64,
                                              minimpi::Datatype::UInt64};
        constexpr minimpi::Op kOps[] = {minimpi::Op::Sum, minimpi::Op::Min,
                                        minimpi::Op::Max, minimpi::Op::BitAnd,
                                        minimpi::Op::BitOr};
        spec.dt = kDts[s.below(std::size(kDts))];
        spec.red_op = kOps[s.below(std::size(kOps))];
    }

    if (with_faults && s.chance(50)) {
        spec.faults.seed = s.next();
        constexpr minimpi::VTime kJitter[] = {0.3, 1.7, 9.3};
        spec.faults.max_jitter_us = kJitter[s.below(std::size(kJitter))];
        if (s.chance(40)) {
            // Delay leader progress: world rank 0 is always a leader; add
            // another random rank for variety.
            spec.faults.rank_delay_us = 5.0 + static_cast<double>(s.below(20));
            spec.faults.delayed_ranks = {0};
            const int extra = static_cast<int>(
                s.below(static_cast<std::uint64_t>(spec.total_ranks())));
            if (extra != 0) spec.faults.delayed_ranks.push_back(extra);
        }
    }

    // Resilience sweep: ~1 in 4 faulted cases also enable the robust layer
    // and inject payload faults scoped to its retransmittable frames. Rates
    // are moderate (every 3rd/5th/9th message) so the default retry budget
    // always recovers — the case must still match flat MPI byte for byte.
    if (with_faults && s.chance(25)) {
        spec.robust = true;
        if (spec.faults.seed == 0) spec.faults.seed = s.next() | 1;
        spec.faults.scope = minimpi::FaultScope::RobustFrames;
        constexpr std::uint64_t kRates[] = {3, 5, 9};
        if (s.chance(60)) spec.faults.drop_every = kRates[s.below(3)];
        if (s.chance(40)) spec.faults.corrupt_every = kRates[s.below(3)];
        if (s.chance(40)) spec.faults.dup_every = kRates[s.below(3)];
        if (!spec.faults.payload_active()) spec.faults.drop_every = 3;
        // SHM allocation failure exercises the hybrid->flat rung, which only
        // the allgather/bcast channels have (the extras throw instead).
        if ((spec.op == CollOp::Allgather || spec.op == CollOp::Allgatherv ||
             spec.op == CollOp::Bcast) &&
            s.chance(15)) {
            spec.faults.shm_fail_every = 3;
        }
    }

    // Kill-injection sweep (opt-in): kill one rank — or its whole node — at
    // a fraction of the clean run's completion time and require the
    // survivors to detect, agree, shrink and still match flat MPI on the
    // shrunken communicator. These draws come strictly LAST so the base
    // case is identical with kills on or off. A kill case is pinned to the
    // fully-covered recovery envelope: blocking execution on the full comm
    // with flat (1-socket, unchunked) nodes — revocation covers the
    // p2p/coll contexts; the pipeline's per-chunk contexts and the SHM
    // degradation rung are exercised by the dedicated recovery tests.
    if (with_kills && spec.total_ranks() >= 3 && s.chance(60)) {
        spec.exec = ExecMode::Blocking;
        spec.subcomm = false;
        spec.sockets = 1;
        spec.staging = hympi::SocketStaging::Auto;
        spec.chunk_bytes = 0;
        spec.leaders = 1;
        spec.faults.shm_fail_every = 0;
        const int p = spec.total_ranks();
        spec.kill_rank =
            static_cast<int>(s.below(static_cast<std::uint64_t>(p)));
        constexpr double kFracs[] = {0.25, 0.5, 0.75};
        spec.kill_frac = kFracs[s.below(std::size(kFracs))];
        // Whole-node kill: pin SMP placement so the victim's node is a
        // static function of the spec, and only escalate when at least two
        // ranks survive the node.
        if (spec.procs_per_node.size() >= 2 && s.chance(30)) {
            spec.placement = minimpi::Placement::Smp;
            int acc = 0;
            int node_pop = 0;
            for (const int n : spec.procs_per_node) {
                acc += n;
                if (spec.kill_rank < acc) {
                    node_pop = n;
                    break;
                }
            }
            if (p - node_pop >= 2) spec.kill_node = true;
        }
    }
    return spec;
}

}  // namespace conformance
