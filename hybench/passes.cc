#include "passes.h"

#include <exception>

#include "robust/config.h"

namespace hybench {

void PassCtx::mark_ready() {
    u_ready = Usage::now();
    t_ready = host_now();
}

void PassCtx::mark_done() {
    t_done = host_now();
    u_done = Usage::now();
}

namespace {

PassResult run_pass(const minimpi::ClusterSpec& cluster, std::uint64_t seed,
                    bool traced, std::size_t nops, HostTrace& host,
                    const PassBody& body) {
    PassResult res;
    PassCtx pc;
    pc.host = &host;
    pc.pass_span = host.begin(traced ? "pass.traced" : "pass");
    pc.ledgers.resize(static_cast<std::size_t>(cluster.total_ranks()));
    for (Ledger& l : pc.ledgers) l.reset(nops);
    const double t_start = host_now();
    try {
        minimpi::RunOptions ro;
        ro.spans = traced;
        minimpi::Runtime rt(cluster, minimpi::ModelParams::cray(),
                            minimpi::PayloadMode::Real, ro);
        rt.set_fault_plan(jitter_plan(seed));
        // Resilience pinned off: HYMPI_ROBUST must not switch code paths.
        rt.set_robust_config(hympi::RobustConfig{});
        rt.run([&](minimpi::Comm& world) { body(world, pc); });
        res.ops = reduce_ledgers(pc.ledgers);
        res.total = rt.total_stats();
        res.robust = rt.total_robust_stats();
        if (traced) {
            res.counters = rt.total_span_counters();
            res.split = split_phases(rt.last_span_traces(), pc.ledgers);
        }
        res.cost.measure(pc.u_ready, pc.t_ready, pc.u_done, pc.t_done);
        res.cost.setup_s = pc.t_ready - t_start;
    } catch (const std::exception& e) {
        res.threw = true;
        res.error = e.what();
    } catch (...) {
        res.threw = true;
        res.error = "non-standard exception";
    }
    host.end(pc.pass_span);
    return res;
}

/// Count one pass's ops and check it against the reference pass. Returns
/// false when the pass threw (the loop stops: a broken runtime would only
/// fail again).
bool account(Report& r, const PassResult& p, const PassResult* ref,
             std::size_t nops, const std::string& label) {
    r.attempted += nops;
    if (p.threw) {
        r.failed += nops;
        r.error(label + " threw: " + p.error);
        return false;
    }
    std::size_t bad = 0, first_bad = 0;
    for (std::size_t o = 0; o < p.ops.bad.size(); ++o) {
        if (p.ops.bad[o] == 0) continue;
        if (bad++ == 0) first_bad = o;
    }
    if (bad > 0) {
        r.failed += bad;
        r.error(label + ": " + std::to_string(bad) +
                " ops returned wrong data (first: op " +
                std::to_string(first_bad) + ")");
    }
    if (p.robust.retries != 0 || p.robust.sync_downgrades != 0 ||
        p.robust.flat_downgrades != 0) {
        r.error(label + ": robust counters moved on a fault-free workload");
    }
    if (ref != nullptr && ref != &p) {
        if (p.ops.vt != ref->ops.vt) {
            r.error(label + ": virtual times differ from the first pass");
        }
        bool same = same_stats(p.total, ref->total);
        for (int k = 0; k < kKinds; ++k) {
            same = same && same_stats(p.ops.kind_stats[k], ref->ops.kind_stats[k]);
        }
        if (!same) r.error(label + ": CommStats differ from the first pass");
    }
    return true;
}

std::vector<HostCost> costs_of(const std::vector<PassResult>& passes) {
    std::vector<HostCost> out;
    for (const PassResult& p : passes) {
        if (!p.threw) out.push_back(p.cost);
    }
    return out;
}

}  // namespace

Series run_passes(const Options& opts, Report& r,
                  const minimpi::ClusterSpec& cluster, std::size_t nops,
                  HostTrace& host, const PassBody& body) {
    Series s;
    s.nranks = cluster.total_ranks();
    const int min_passes = opts.smoke ? 2 : 3;
    const double untraced_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
    s.host_first = host.size();
    double start = host_now();
    bool ok = true;
    progress(r, nops);
    for (int n = 0; ok && keep_going(n, min_passes, start, untraced_s); ++n) {
        PassResult p = run_pass(cluster, opts.seed, false, nops, host, body);
        ok = account(r, p, n == 0 ? nullptr : s.first(), nops,
                     "pass " + std::to_string(n));
        s.untraced.push_back(std::move(p));
        progress(r, nops);
    }
    s.host_last = host.size();
    if (!opts.trace || !ok) return s;
    start = host_now();
    for (int n = 0; ok && keep_going(n, 1, start, opts.seconds / 2.0); ++n) {
        PassResult p = run_pass(cluster, opts.seed, true, nops, host, body);
        ok = account(r, p, s.first(), nops,
                     "traced pass " + std::to_string(n));
        s.traced.push_back(std::move(p));
        progress(r, nops);
    }
    return s;
}

void add_series_layer_metrics(Report& r, const Series& s) {
    const PassResult* f = s.first();
    if (f == nullptr || f->threw) return;
    const minimpi::CommStats& hy = f->ops.kind_stats[kHy];
    const minimpi::CommStats& ori = f->ops.kind_stats[kOri];
    auto count = [&](const char* name, std::uint64_t v) {
        r.add(name, static_cast<double>(v), "count");
    };
    auto bytes = [&](const char* name, std::uint64_t v) {
        r.add(name, static_cast<double>(v), "B");
    };
    count("minimpi.inter_node_msgs.hy", hy.inter_node_msgs);
    count("minimpi.inter_node_msgs.ori", ori.inter_node_msgs);
    count("minimpi.intra_node_msgs.hy", hy.intra_node_msgs);
    count("minimpi.intra_node_msgs.ori", ori.intra_node_msgs);
    bytes("minimpi.bytes_sent.hy", hy.bytes_sent);
    bytes("minimpi.bytes_sent.ori", ori.bytes_sent);
    bytes("minimpi.memcpy_bytes.hy", hy.memcpy_bytes);
    bytes("minimpi.memcpy_bytes.ori", ori.memcpy_bytes);

    std::uint64_t retransmits = 0, degradations = 0;
    for (const auto* passes : {&s.untraced, &s.traced}) {
        for (const PassResult& p : *passes) {
            retransmits += p.robust.retries;
            degradations += p.robust.sync_downgrades + p.robust.flat_downgrades;
        }
    }
    count("robust.retransmits", retransmits);
    count("robust.degradations", degradations);

    if (s.traced.empty() || s.traced.front().threw) return;
    const PassResult& t = s.traced.front();
    const double ranks = static_cast<double>(s.nranks);
    r.add("minimpi.flat_coll_vus", t.split.flat_root / ranks, "us");
    count("minimpi.engine_events", t.split.engine_events);
    r.add("hybrid.root_vus", t.split.hy_root / ranks, "us");
    r.add("hybrid.sync_vus", t.split.sync / ranks, "us");
    r.add("hybrid.bridge_vus", t.split.bridge / ranks, "us");
    r.add("hybrid.copy_vus", t.split.copy / ranks, "us");
    r.add("hybrid.self_vus", t.split.self / ranks, "us");
    r.add("hybrid.sync_wait_vus", t.counters.sync_wait_us / ranks, "us");
    bytes("hybrid.bridge_bytes", t.counters.bridge_bytes);
    bytes("hybrid.shm_bytes", t.counters.shm_bytes);
    bytes("hybrid.xsocket_bytes", t.counters.xsocket_bytes);
    count("hybrid.chunks", t.counters.chunks);
    for (int i = 0; i < 7; ++i) {
        count((std::string("tuning.bridge_algo.") + kBridgeAlgoNames[i]).c_str(),
              t.split.bridge_algo[i]);
    }
    count("trace.spans", t.split.spans);
    std::vector<double> plain, traced;
    for (const HostCost& c : costs_of(s.untraced)) plain.push_back(c.wall_s);
    for (const HostCost& c : costs_of(s.traced)) traced.push_back(c.wall_s);
    r.add("trace.overhead_frac", median(traced) / median(plain) - 1.0, "ratio");
}

std::vector<HostCost> untraced_costs(const Series& s) {
    return costs_of(s.untraced);
}

}  // namespace hybench
