// service_churn — the multi-tenant collective service: service::run_service
// on 8 nodes x 6 ranks with 8 tenants whose jobs arrive open loop in
// virtual time (mean gap 200 us per tenant), mix small and 32 KiB payloads
// (35 % large) and run half of the multi-node jobs on hybrid channels,
// under weighted shares (tenant 0 at 8x) with small-op batching. Every job
// creates and frees a communicator plus a fresh hierarchy and channels, so
// this is the workload that writes the comm registry and rendezvous.
//
// The job mix is a fixed pool of kSchedules schedules of 64 jobs (1024
// jobs pooled); --seed scales the arrival rate by up to 1 %, which moves
// every queueing delay. Drawing the whole mix from the seed instead moved
// the pooled p99 by a quarter from seed to seed at this load (the queue is
// overloaded, so a few heavy jobs set the tail) — too wide for any bound.
// A pass is one run_service call on one schedule; passes past the first
// cycle repeat a schedule, which must reproduce its every latency and
// digest.

#include "service/service.h"
#include "trace/sink.h"
#include "workloads.h"

namespace hybench {

namespace {

constexpr int kSchedules = 16;
constexpr std::uint64_t kPoolSeed = 20190805;

/// Seeded value in [0, 1).
double unit_draw(std::uint64_t seed) {
    return static_cast<double>(mix64(seed) >> 11) * 0x1p-53;
}

service::ServiceConfig make_config(const Options& opts, int k) {
    service::ServiceConfig cfg;
    cfg.nodes = 8;
    cfg.ppn = 6;
    cfg.model = minimpi::ModelParams::cray();
    cfg.payload = minimpi::PayloadMode::Real;
    cfg.seed = mix64(kPoolSeed + static_cast<std::uint64_t>(k));
    cfg.tenants = 8;
    cfg.jobs_per_tenant = opts.smoke ? 2 : 8;
    cfg.mean_gap_us = 200.0 * (1.0 + 0.01 * unit_draw(opts.seed));
    cfg.large_bytes = 32 * 1024;
    cfg.large_fraction = 0.35;
    cfg.hybrid_fraction = 0.5;
    cfg.batch_small = true;
    cfg.qos = minimpi::QosPolicy::WeightedShares;
    cfg.use_env = false;
    cfg.weights = {8.0};
    return cfg;
}

bool multi_node(const service::JobSpec& job, int ppn) {
    return job.members.front() / ppn != job.members.back() / ppn;
}

/// Compare a repeated schedule's result with its first run; returns the
/// ops of jobs whose latency or digest moved.
std::uint64_t diverged_ops(const service::ServiceResult& a,
                           const service::ServiceResult& b) {
    if (a.jobs.size() != b.jobs.size()) return a.total_ops;
    std::uint64_t ops = 0;
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
        const service::JobResult& x = a.jobs[j];
        const service::JobResult& y = b.jobs[j];
        if (x.digest != y.digest || x.finish != y.finish || x.ops != y.ops) {
            ops += static_cast<std::uint64_t>(x.ops);
        }
    }
    return ops;
}

}  // namespace

void run_service_churn(const Options& opts, HostTrace& host, Report& r) {
    const int nsched = opts.smoke ? 1 : kSchedules;
    std::vector<service::ServiceConfig> cfgs;
    std::vector<std::vector<service::JobSpec>> schedules;
    for (int k = 0; k < nsched; ++k) cfgs.push_back(make_config(opts, k));

    // Set-up, measured apart from the passes (run_service builds its own
    // Runtime): every schedule's construction, then Runtime construction
    // and the first thread spawn at the workload's rank count. It takes
    // about 2 ms, so it is repeated between passes too: the median then
    // samples the host over the whole run, as host_wall_s does.
    const minimpi::ClusterSpec cluster =
        minimpi::ClusterSpec::regular(cfgs[0].nodes, cfgs[0].ppn);
    std::vector<double> setup_s, schedule_ms;
    auto time_setup = [&] {
        const int span = host.begin("setup");
        const double t0 = host_now();
        for (const service::ServiceConfig& cfg : cfgs) {
            const int sched_span = host.begin("service::build_schedule", span);
            std::vector<service::JobSpec> jobs = service::build_schedule(cfg);
            host.end(sched_span);
            if (schedules.size() < cfgs.size()) schedules.push_back(std::move(jobs));
        }
        const double t1 = host_now();
        {
            minimpi::Runtime rt(cluster, cfgs[0].model, cfgs[0].payload);
            rt.run([](minimpi::Comm&) {});
        }
        setup_s.push_back(host_now() - t0);
        schedule_ms.push_back((t1 - t0) * 1e3);
        host.end(span);
    };
    for (int rep = 0; rep < 3; ++rep) time_setup();

    std::vector<std::uint64_t> sched_ops;
    for (const std::vector<service::JobSpec>& jobs : schedules) {
        std::uint64_t ops = 0;
        for (const service::JobSpec& j : jobs) ops += j.ops.size();
        sched_ops.push_back(ops);
    }

    std::vector<service::ServiceResult> first(static_cast<std::size_t>(nsched));
    std::vector<std::vector<HostCost>> plain(static_cast<std::size_t>(nsched));
    std::vector<double> overhead;
    auto median_wall = [&](int k) {
        std::vector<double> w;
        for (const HostCost& c : plain[static_cast<std::size_t>(k)]) w.push_back(c.wall_s);
        return median(w);
    };
    auto pass = [&](int n, bool traced) {
        const int k = n % nsched;
        const service::ServiceConfig& cfg = cfgs[static_cast<std::size_t>(k)];
        const int span = host.begin(traced ? "service::run_service.traced"
                                           : "service::run_service");
        const Usage u0 = Usage::now();
        const double t0 = host_now();
        service::ServiceResult res;
        bool threw = false;
        try {
            res = service::run_service(cfg);
        } catch (const std::exception& e) {
            threw = true;
            r.error(std::string("run_service threw: ") + e.what());
        }
        const double t1 = host_now();
        const Usage u1 = Usage::now();
        host.end(span);
        const std::uint64_t expected_ops = sched_ops[static_cast<std::size_t>(k)];
        r.attempted += expected_ops;
        if (threw) {
            r.failed += expected_ops;
            return false;
        }
        if (res.total_ops != expected_ops ||
            res.jobs.size() != schedules[static_cast<std::size_t>(k)].size()) {
            r.failed += expected_ops;
            r.error("run_service finished " + std::to_string(res.total_ops) +
                    " of " + std::to_string(expected_ops) + " ops");
            return true;
        }
        HostCost c;
        c.measure(u0, t0, u1, t1);
        if (n < nsched && !traced) {
            first[static_cast<std::size_t>(k)] = std::move(res);
        } else {
            const std::uint64_t bad = diverged_ops(res, first[static_cast<std::size_t>(k)]);
            if (bad > 0) {
                r.failed += bad;
                r.error(std::string(traced ? "traced " : "") + "schedule " +
                        std::to_string(k) + " repeat diverged in " +
                        std::to_string(bad) + " ops");
            }
        }
        if (traced) {
            // Against the same schedule's untraced wall: schedules differ
            // in host cost.
            overhead.push_back((t1 - t0) / median_wall(k) - 1.0);
        } else {
            plain[static_cast<std::size_t>(k)].push_back(c);
        }
        return true;
    };

    auto next_ops = [&](int n) { return sched_ops[static_cast<std::size_t>(n % nsched)]; };
    double start = host_now();
    bool ok = true;
    progress(r, next_ops(0));
    for (int n = 0; ok && keep_going(n, nsched + 1, start,
                                     opts.trace ? opts.seconds / 2.0 : opts.seconds);
         ++n) {
        ok = pass(n, false);
        for (int rep = 0; rep < 3; ++rep) time_setup();
        progress(r, next_ops(n + 1));
    }
    if (opts.trace && ok) {
        // run_service owns its Runtime, so spans are switched on through
        // the process-wide sink; reconfiguring it afterwards drops the
        // recorded runs without writing them out.
        hytrace::TraceSink::instance().configure(".bench_build/service_trace.json", false);
        start = host_now();
        for (int t = 0; ok && keep_going(t, 1, start, opts.seconds / 2.0); ++t) {
            ok = pass(t, true);
            progress(r, next_ops(t + 1));
        }
        hytrace::TraceSink::instance().configure("", false);
    }
    if (!ok) return;

    // Isolation oracle, outside the timed phase: each tenant's solo run must
    // reproduce its concurrent digests.
    for (int k = 0; k < nsched; ++k) {
        const int span = host.begin("service::verify_isolation");
        const std::string why = service::verify_isolation(cfgs[static_cast<std::size_t>(k)]);
        host.end(span);
        if (!why.empty()) {
            r.failed += first[static_cast<std::size_t>(k)].total_ops;
            r.error("schedule " + std::to_string(k) + ": " + why);
        }
    }

    // Host cost of the whole 1024-job workload: per schedule the median of
    // its passes, summed over schedules (the schedules differ in cost, so a
    // median across them would depend on which ones a seed drew).
    HostCost cycle;
    for (const std::vector<HostCost>& runs : plain) {
        std::vector<double> wall, cpu, sys, vcsw, icsw;
        for (const HostCost& c : runs) {
            wall.push_back(c.wall_s);
            cpu.push_back(c.cpu_s);
            sys.push_back(c.sys_s);
            vcsw.push_back(c.vol_csw);
            icsw.push_back(c.invol_csw);
        }
        cycle.wall_s += median(wall);
        cycle.cpu_s += median(cpu);
        cycle.sys_s += median(sys);
        cycle.vol_csw += median(vcsw);
        cycle.invol_csw += median(icsw);
    }
    cycle.setup_s = median(setup_s);

    std::vector<double> lat, fav;
    double hy = 0.0, ori = 0.0, makespan = 0.0;
    std::size_t hy_jobs = 0, ori_jobs = 0;
    std::uint64_t ops = 0, jobs = 0, bridge_msgs = 0, bridge_bytes = 0;
    for (int k = 0; k < nsched; ++k) {
        const service::ServiceResult& res = first[static_cast<std::size_t>(k)];
        const std::vector<service::JobSpec>& sched = schedules[static_cast<std::size_t>(k)];
        for (std::size_t j = 0; j < res.jobs.size(); ++j) {
            const service::JobResult& jr = res.jobs[j];
            lat.push_back(jr.latency_us);
            if (jr.tenant == 0) fav.push_back(jr.latency_us);
            if (sched[j].hybrid) {
                hy += jr.latency_us;
                ++hy_jobs;
            } else if (multi_node(sched[j], cfgs[0].ppn)) {
                ori += jr.latency_us;
                ++ori_jobs;
            }
        }
        makespan += res.makespan_us;
        ops += res.total_ops;
        jobs += static_cast<std::uint64_t>(res.total_jobs);
        for (const service::TenantMetrics& m : res.tenants) {
            bridge_msgs += m.bridge_msgs;
            bridge_bytes += m.bridge_bytes;
        }
    }
    if (!opts.trace) {
        r.add("vt_hy_us", hy / static_cast<double>(hy_jobs), "us");
        r.add("vt_ori_us", ori / static_cast<double>(ori_jobs), "us");
        r.add("vt_job_p50_us", percentile(lat, 50.0), "us");
        r.add("vt_job_p99_us", percentile(lat, 99.0), "us");
        r.add("vt_ops_per_s", static_cast<double>(ops) / (makespan * 1e-6), "1/s");
        add_host_end_to_end(r, {cycle});
        return;
    }
    add_host_layer_metrics(r, {cycle}, cluster, 128);
    r.add("vt_job.samples", static_cast<double>(lat.size()), "count");
    r.add("service.schedule_host_ms", median(schedule_ms), "ms");
    r.add("service.jobs", static_cast<double>(jobs), "count");
    r.add("service.ops", static_cast<double>(ops), "count");
    r.add("service.makespan_vus", makespan, "us");
    r.add("service.fav_p99_vus", percentile(fav, 99.0), "us");
    r.add("service.bridge_msgs", static_cast<double>(bridge_msgs), "count");
    r.add("service.bridge_bytes", static_cast<double>(bridge_bytes), "B");
    r.add("trace.overhead_frac", median(overhead), "ratio");
}

}  // namespace hybench
