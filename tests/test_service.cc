#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_util/latency.h"
#include "minimpi/minimpi.h"
#include "service/service.h"

using namespace minimpi;

namespace {

service::ServiceConfig small_cfg() {
    service::ServiceConfig cfg;
    cfg.nodes = 3;
    cfg.ppn = 2;
    cfg.model = ModelParams::test();
    cfg.seed = 42;
    cfg.tenants = 3;
    cfg.jobs_per_tenant = 4;
    cfg.mean_gap_us = 200.0;
    cfg.use_env = false;  // tests pin their own policy
    return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

TEST(ServiceSchedule, PureFunctionOfConfig) {
    const service::ServiceConfig cfg = small_cfg();
    const auto a = service::build_schedule(cfg);
    const auto b = service::build_schedule(cfg);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(),
              static_cast<std::size_t>(cfg.tenants * cfg.jobs_per_tenant));
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].members, b[i].members);
        EXPECT_EQ(a[i].hybrid, b[i].hybrid);
        ASSERT_EQ(a[i].ops.size(), b[i].ops.size());
        for (std::size_t o = 0; o < a[i].ops.size(); ++o) {
            EXPECT_EQ(a[i].ops[o].kind, b[i].ops[o].kind);
            EXPECT_EQ(a[i].ops[o].bytes, b[i].ops[o].bytes);
        }
    }
}

TEST(ServiceSchedule, ExecutionOrderAndShape) {
    const service::ServiceConfig cfg = small_cfg();
    const auto jobs = service::build_schedule(cfg);
    const int world = cfg.nodes * cfg.ppn;
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        const bool ordered =
            jobs[i - 1].arrival < jobs[i].arrival ||
            (jobs[i - 1].arrival == jobs[i].arrival &&
             (jobs[i - 1].tenant < jobs[i].tenant ||
              (jobs[i - 1].tenant == jobs[i].tenant &&
               jobs[i - 1].index < jobs[i].index)));
        EXPECT_TRUE(ordered) << "schedule not in (arrival, tenant, index) order";
    }
    for (const auto& j : jobs) {
        EXPECT_GE(static_cast<int>(j.members.size()), 2);
        EXPECT_LE(static_cast<int>(j.members.size()), world);
        for (std::size_t m = 1; m < j.members.size(); ++m) {
            EXPECT_LT(j.members[m - 1], j.members[m]);
        }
        EXPECT_GE(static_cast<int>(j.ops.size()), cfg.min_ops);
        EXPECT_LE(static_cast<int>(j.ops.size()), cfg.max_ops);
        if (j.hybrid) {
            // Hybrid jobs must actually span nodes.
            EXPECT_NE(j.members.front() / cfg.ppn, j.members.back() / cfg.ppn);
        }
    }
}

TEST(ServiceSchedule, SoloStreamMatchesConcurrentStream) {
    service::ServiceConfig cfg = small_cfg();
    const auto full = service::build_schedule(cfg);
    for (int t = 0; t < cfg.tenants; ++t) {
        service::ServiceConfig solo = cfg;
        solo.only_tenant = t;
        const auto mine = service::build_schedule(solo);
        std::size_t k = 0;
        for (const auto& j : full) {
            if (j.tenant != t) continue;
            ASSERT_LT(k, mine.size());
            EXPECT_EQ(mine[k].index, j.index);
            EXPECT_EQ(mine[k].seed, j.seed);
            EXPECT_EQ(mine[k].arrival, j.arrival);
            EXPECT_EQ(mine[k].members, j.members);
            ++k;
        }
        EXPECT_EQ(k, mine.size());
    }
}

// ---------------------------------------------------------------------------
// QoS arbitration (the pure hook, pinned directly)
// ---------------------------------------------------------------------------

TEST(ServiceQos, FifoIsPlainBacklogWait) {
    TenantState ts;
    ts.policy = QosPolicy::Fifo;
    ts.tenant = 0;
    ts.weight = 8.0;
    ts.total_weight = 9.0;
    ts.bridge_bytes.assign(2, 0);
    ts.bridge_msgs.assign(2, 0);
    ts.nic_owner = 1;  // backlog owned by another tenant
    ts.nic_busy = 25.0;
    // Under FIFO the weight is never consulted: start == max(now, busy).
    EXPECT_DOUBLE_EQ(minimpi::detail::tenant_bridge_start(ts, 10.0, 64), 25.0);
    EXPECT_DOUBLE_EQ(minimpi::detail::tenant_bridge_start(ts, 30.0, 64), 30.0);
}

TEST(ServiceQos, WeightedDiscountsCrossTenantBacklog) {
    TenantState ts;
    ts.policy = QosPolicy::WeightedShares;
    ts.tenant = 0;
    ts.weight = 1.0;
    ts.total_weight = 2.0;
    ts.bridge_bytes.assign(2, 0);
    ts.bridge_msgs.assign(2, 0);
    ts.nic_owner = 1;
    ts.nic_busy = 10.0;
    // Half share -> half of the 10us cross-tenant backlog is charged.
    EXPECT_DOUBLE_EQ(minimpi::detail::tenant_bridge_start(ts, 0.0, 8), 5.0);
    // The arbitrated send takes over backlog ownership...
    EXPECT_EQ(ts.nic_owner, 0);
    // ...and self-owned backlog is never discounted (you cannot yield to
    // yourself).
    EXPECT_DOUBLE_EQ(minimpi::detail::tenant_bridge_start(ts, 0.0, 8), 10.0);
    // An idle port starts immediately regardless of policy.
    ts.nic_owner = 1;
    EXPECT_DOUBLE_EQ(minimpi::detail::tenant_bridge_start(ts, 50.0, 8), 50.0);
}

TEST(ServiceQos, WeightMonotonicity) {
    // Larger share -> earlier start against the same cross-tenant backlog.
    double prev_start = 1e30;
    for (double w : {1.0, 2.0, 4.0, 8.0}) {
        TenantState ts;
        ts.policy = QosPolicy::WeightedShares;
        ts.tenant = 0;
        ts.weight = w;
        ts.total_weight = 10.0;
        ts.bridge_bytes.assign(2, 0);
        ts.bridge_msgs.assign(2, 0);
        ts.nic_owner = 1;
        ts.nic_busy = 400.0;
        const double start =
            minimpi::detail::tenant_bridge_start(ts, 100.0, 32);
        EXPECT_LT(start, prev_start);
        EXPECT_GE(start, 100.0);   // never before now
        EXPECT_LE(start, 400.0);   // never after plain FIFO
        prev_start = start;
    }
}

TEST(ServiceQos, BridgeAttributionCounts) {
    TenantState ts;
    ts.policy = QosPolicy::Fifo;
    ts.tenant = 1;
    ts.weight = 1.0;
    ts.total_weight = 2.0;
    ts.bridge_bytes.assign(2, 0);
    ts.bridge_msgs.assign(2, 0);
    minimpi::detail::tenant_bridge_start(ts, 0.0, 100);
    minimpi::detail::tenant_bridge_start(ts, 0.0, 28);
    EXPECT_EQ(ts.bridge_bytes[1], 128u);
    EXPECT_EQ(ts.bridge_msgs[1], 2u);
    EXPECT_EQ(ts.bridge_bytes[0], 0u);
}

TEST(ServiceQos, EnvOverrideParses) {
    ASSERT_EQ(unsetenv("HYMPI_QOS"), 0);
    EXPECT_EQ(service::qos_from_env(QosPolicy::Fifo), QosPolicy::Fifo);
    ASSERT_EQ(setenv("HYMPI_QOS", "weighted", 1), 0);
    EXPECT_EQ(service::qos_from_env(QosPolicy::Fifo), QosPolicy::WeightedShares);
    ASSERT_EQ(setenv("HYMPI_QOS", "fifo", 1), 0);
    EXPECT_EQ(service::qos_from_env(QosPolicy::WeightedShares), QosPolicy::Fifo);
    ASSERT_EQ(setenv("HYMPI_QOS", "bogus", 1), 0);
    EXPECT_EQ(service::qos_from_env(QosPolicy::WeightedShares),
              QosPolicy::WeightedShares);
    ASSERT_EQ(unsetenv("HYMPI_QOS"), 0);
}

// ---------------------------------------------------------------------------
// Percentile math (nearest-rank)
// ---------------------------------------------------------------------------

TEST(ServicePercentile, NearestRank) {
    EXPECT_DOUBLE_EQ(benchu::percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(benchu::percentile({7.0}, 50.0), 7.0);
    EXPECT_DOUBLE_EQ(benchu::percentile({7.0}, 99.0), 7.0);
    const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};  // unsorted input
    EXPECT_DOUBLE_EQ(benchu::percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(benchu::percentile(xs, 50.0), 3.0);   // ceil(2.5) = 3rd
    EXPECT_DOUBLE_EQ(benchu::percentile(xs, 99.0), 5.0);
    EXPECT_DOUBLE_EQ(benchu::percentile(xs, 100.0), 5.0);
    // 100 samples: p99 is exactly the 99th order statistic.
    std::vector<double> big;
    for (int i = 100; i >= 1; --i) big.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(benchu::percentile(big, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(benchu::percentile(big, 50.0), 50.0);
}

// ---------------------------------------------------------------------------
// End-to-end service runs
// ---------------------------------------------------------------------------

TEST(ServiceRun, DeterministicAcrossRuns) {
    const service::ServiceConfig cfg = small_cfg();
    const service::ServiceResult a = service::run_service(cfg);
    const service::ServiceResult b = service::run_service(cfg);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << "job " << i;
        EXPECT_EQ(a.jobs[i].digest, b.jobs[i].digest) << "job " << i;
    }
    EXPECT_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.p50_us, b.p50_us);
    EXPECT_EQ(a.p99_us, b.p99_us);
    // The dashboard dumps are byte-identical, the property CI banks on.
    ASSERT_TRUE(a.write_json("service_a.json", cfg));
    ASSERT_TRUE(b.write_json("service_b.json", cfg));
    std::ifstream fa("service_a.json"), fb("service_b.json");
    std::stringstream sa, sb;
    sa << fa.rdbuf();
    sb << fb.rdbuf();
    EXPECT_EQ(sa.str(), sb.str());
    EXPECT_NE(sa.str().find("\"service\""), std::string::npos);
    std::remove("service_a.json");
    std::remove("service_b.json");
}

TEST(ServiceRun, MetricsAreConsistent) {
    const service::ServiceConfig cfg = small_cfg();
    const service::ServiceResult res = service::run_service(cfg);
    EXPECT_EQ(res.total_jobs, cfg.tenants * cfg.jobs_per_tenant);
    EXPECT_GT(res.makespan_us, 0.0);
    EXPECT_GT(res.ops_per_sec, 0.0);
    EXPECT_GE(res.p99_us, res.p50_us);
    ASSERT_EQ(res.tenants.size(), static_cast<std::size_t>(cfg.tenants));
    std::uint64_t ops = 0;
    for (const auto& t : res.tenants) {
        EXPECT_EQ(t.jobs, cfg.jobs_per_tenant);
        EXPECT_GE(t.p99_us, t.p50_us);
        EXPECT_GE(t.max_us, t.p99_us);
        ops += t.ops;
    }
    EXPECT_EQ(ops, res.total_ops);
    for (const auto& j : res.jobs) {
        EXPECT_GT(j.finish, j.arrival) << "job did no modelled work";
    }
}

TEST(ServiceRun, CommChurnIsLeakFree) {
    // 24 create->use->destroy cycles. LeakSanitizer (the sanitized CI job)
    // flags memory still unreachable when the process exits, not state the
    // runtime pins until a run ends and then releases; the window half of
    // that is Win.DroppedWindowsAreFreedWithinTheRun. Host-side assertion:
    // re-running on the same Runtime-config still works and stays
    // deterministic.
    service::ServiceConfig cfg = small_cfg();
    cfg.jobs_per_tenant = 8;
    const service::ServiceResult res = service::run_service(cfg);
    EXPECT_EQ(res.total_jobs, cfg.tenants * cfg.jobs_per_tenant);
}

TEST(ServiceRun, PayloadIsolationUnderContention) {
    // The oracle itself: concurrent digests == solo digests, per job.
    service::ServiceConfig cfg = small_cfg();
    cfg.jobs_per_tenant = 3;
    const std::string err = service::verify_isolation(cfg);
    EXPECT_EQ(err, "") << err;
}

TEST(ServiceRun, ReusedRankBuffersKeepIsolation) {
    // No hybrid jobs and no batching: every multi-node allgather goes
    // through the rank's send and receive buffers, which keep their
    // capacity from job to job. A solo run gives each rank a different job
    // history, hence a different buffer history, so a byte one job leaves
    // behind for the next shows up as a diverged digest.
    service::ServiceConfig cfg = small_cfg();
    cfg.hybrid_fraction = 0.0;
    cfg.batch_small = false;
    cfg.large_fraction = 0.5;
    const std::string err = service::verify_isolation(cfg);
    EXPECT_EQ(err, "") << err;
}

TEST(ServiceRun, BatchingLeavesDigestsUntouched) {
    // Routing a hybrid job's small collectives through the CollBatcher
    // moves virtual-time cost structure only: every job's digest must be
    // byte-identical to the unbatched run of the same schedule. At 13-byte
    // blocks no result buffer is word-aligned: the hybrid channel folds
    // each member's block separately while the batched path folds the
    // whole gathered buffer at once, so the digests agree only if the fold
    // is independent of how the byte stream is split into calls.
    for (const std::size_t small : {std::size_t{256}, std::size_t{13}}) {
        SCOPED_TRACE(testing::Message() << "small_bytes " << small);
        service::ServiceConfig cfg = small_cfg();
        cfg.payload = PayloadMode::Real;
        cfg.hybrid_fraction = 1.0;  // maximize batcher coverage
        cfg.small_bytes = small;
        const service::ServiceResult plain = service::run_service(cfg);
        cfg.batch_small = true;
        const service::ServiceResult batched = service::run_service(cfg);
        ASSERT_EQ(plain.jobs.size(), batched.jobs.size());
        for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
            EXPECT_EQ(plain.jobs[i].digest, batched.jobs[i].digest)
                << "job " << i;
        }
        EXPECT_EQ(plain.total_ops, batched.total_ops);
    }
}

TEST(ServiceRun, BatchingPreservesPayloadIsolation) {
    // The isolation oracle must hold with the aggregation shim on: fusing
    // never lets one tenant's bytes bleed into another's results.
    service::ServiceConfig cfg = small_cfg();
    cfg.jobs_per_tenant = 3;
    cfg.hybrid_fraction = 1.0;
    cfg.batch_small = true;
    const std::string err = service::verify_isolation(cfg);
    EXPECT_EQ(err, "") << err;
}

TEST(ServiceRun, WeightedQosImprovesFavoredTenantTailLatency) {
    // The acceptance pin: at 8 tenants under bridge contention, giving
    // tenant 0 an 8x share must improve its p99 vs FIFO arbitration.
    service::ServiceConfig cfg;
    cfg.nodes = 4;
    cfg.ppn = 2;
    cfg.model = ModelParams::cray();
    cfg.seed = 7;
    cfg.tenants = 8;
    cfg.jobs_per_tenant = 6;
    cfg.mean_gap_us = 150.0;
    cfg.large_fraction = 0.5;
    cfg.hybrid_fraction = 0.5;
    cfg.use_env = false;
    cfg.weights = {8.0};

    cfg.qos = QosPolicy::Fifo;
    const service::ServiceResult fifo = service::run_service(cfg);
    cfg.qos = QosPolicy::WeightedShares;
    const service::ServiceResult wfq = service::run_service(cfg);

    ASSERT_FALSE(fifo.tenants.empty());
    ASSERT_FALSE(wfq.tenants.empty());
    EXPECT_LT(wfq.tenants[0].p99_us, fifo.tenants[0].p99_us);
    // The knob only rebalances waiting: payloads cannot change.
    for (std::size_t i = 0; i < fifo.jobs.size(); ++i) {
        EXPECT_EQ(fifo.jobs[i].digest, wfq.jobs[i].digest);
    }
}

// ---------------------------------------------------------------------------
// Comm lifecycle (the typed-error fix)
// ---------------------------------------------------------------------------

TEST(CommFree, FreeRendezvousAndReuseErrors) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Comm c = world.split(0);
        minimpi::barrier(c);
        const VTime before = world.ctx().clock.now();
        c.free();
        // free() is collective: it synchronizes the members' clocks.
        EXPECT_GT(world.ctx().clock.now(), before);
        EXPECT_THROW(minimpi::barrier(c), CommError);
        EXPECT_THROW(c.free(), CommError);  // double free is typed, not UB
        std::byte b{0};
        EXPECT_THROW(minimpi::send(c, &b, 1, Datatype::Byte,
                                   (c.rank() + 1) % c.size(), 0),
                     CommError);
    });
}

TEST(CommFree, RootCommsRefuseFree) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) { EXPECT_THROW(world.free(), CommError); });
}

TEST(CommFree, InFlightCollectiveMakesFreeBusy) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Comm c = world.split(0);
        CollRequest r = ibarrier(c);
        // Destroying a comm under an in-flight nonblocking collective is the
        // typed CommBusyError, not a crash in the progress engine.
        EXPECT_THROW(c.free(), CommBusyError);
        r.wait();
        c.free();  // completes cleanly once drained
        EXPECT_THROW(minimpi::barrier(c), CommError);
    });
}
