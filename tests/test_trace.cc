#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "hybrid/hympi.h"
#include "trace/json.h"
#include "trace/report.h"
#include "trace/sink.h"

using namespace minimpi;

namespace {

/// Runs one Hy_Allgather (or the naive flat allgather) on 2 nodes x 6 with
/// p2p spans on and returns the per-rank span traces.
std::vector<hytrace::RankTrace> allgather_spans(bool hybrid) {
    RunOptions opts;
    opts.spans = true;
    opts.span_p2p = true;
    Runtime rt(ClusterSpec::regular(2, 6), ModelParams::cray(),
               PayloadMode::SizeOnly, opts);
    rt.run([hybrid](Comm& world) {
        if (hybrid) {
            hympi::HierComm hc(world);
            hympi::AllgatherChannel ch(hc, 8192);
            ch.run();
        } else {
            allgather(world, nullptr, 1024, nullptr, Datatype::Double);
        }
    });
    return rt.last_span_traces();
}

/// Communication time summed over ranks: the leaf P2P and Sync spans, i.e.
/// the time each rank spent sending, receiving or waiting at a sync.
double communication_us(const std::vector<hytrace::RankTrace>& traces) {
    double total = 0.0;
    for (const auto& rank_trace : traces) {
        const auto& spans = rank_trace.spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const bool leaf =
                i + 1 == spans.size() || spans[i + 1].depth <= spans[i].depth;
            if (leaf && (spans[i].phase == hytrace::Phase::P2P ||
                         spans[i].phase == hytrace::Phase::Sync)) {
                total += spans[i].t_end - spans[i].t_start;
            }
        }
    }
    return total;
}

}  // namespace

TEST(Trace, TimelineRendersSpans) {
    const auto traces = allgather_spans(true);
    const std::string s = hytrace::report::render_timeline(traces, 40);
    // A header plus one row per rank, each row exactly 40 cells wide.
    EXPECT_EQ(s.rfind("timeline: 40 columns", 0), 0u);
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 13);
    EXPECT_NE(s.find("   0 "), std::string::npos);
    EXPECT_NE(s.find("  11 "), std::string::npos);
    // Leaders bridge and move messages; everyone syncs.
    EXPECT_NE(s.find('b'), std::string::npos);
    EXPECT_NE(s.find('s'), std::string::npos);
    EXPECT_NE(s.find('r'), std::string::npos);
    EXPECT_NE(s.find('|'), std::string::npos);
    EXPECT_TRUE(hytrace::report::render_timeline({}, 40).empty());
    EXPECT_TRUE(hytrace::report::render_timeline(traces, 0).empty());
}

TEST(Trace, SummaryShowsHybridCommunicationSavings) {
    // Per-rank communication time of the hybrid allgather vs the naive one
    // (children in the hybrid case spend only sync time).
    EXPECT_LT(communication_us(allgather_spans(true)),
              0.5 * communication_us(allgather_spans(false)));
}

// ---------------------------------------------------------------------------
// Virtual-time span/counter subsystem (src/trace)
// ---------------------------------------------------------------------------

namespace {

/// A representative hybrid + pure-MPI workload: exercises coll spans,
/// bridge/copy/sync phases and the flag-sync wait counter.
void span_workload(Comm& world) {
    hympi::HierComm hc(world);
    hympi::AllgatherChannel ch(hc, 512);
    if (world.ctx().payload_mode == PayloadMode::Real) {
        std::memset(ch.my_block(), world.rank() + 1, 512);
    }
    ch.run(hympi::SyncPolicy::Flags);
    ch.quiesce();
    ch.run(hympi::SyncPolicy::Barrier);
    allgather(world, nullptr, 256, nullptr, Datatype::Double);
    barrier(world);
}

}  // namespace

TEST(Spans, OffByDefaultRecordsNothing) {
    hytrace::TraceSink::instance().configure("", false);
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
               PayloadMode::SizeOnly);
    rt.run(span_workload);
    EXPECT_TRUE(rt.last_span_traces().empty());
    const hytrace::Counters totals = rt.total_span_counters();
    EXPECT_EQ(totals.bridge_bytes, 0u);
    EXPECT_EQ(totals.retransmits, 0u);
}

TEST(Spans, NestingIsBalancedAndContained) {
    RunOptions opts;
    opts.spans = true;
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
               PayloadMode::SizeOnly, opts);
    rt.run(span_workload);
    const auto& traces = rt.last_span_traces();
    ASSERT_EQ(traces.size(), 6u);
    for (const auto& rank_trace : traces) {
        ASSERT_FALSE(rank_trace.spans.empty());
        // Spans are stored in begin order with their depth: rebuild the
        // open-span stack and check every child lies inside its parent.
        std::vector<const hytrace::Span*> stack;
        for (const auto& s : rank_trace.spans) {
            EXPECT_LE(s.t_start, s.t_end);
            ASSERT_LE(s.depth, stack.size()) << "depth can grow by at most 1";
            stack.resize(s.depth);
            if (!stack.empty()) {
                const hytrace::Span* parent = stack.back();
                EXPECT_GE(s.t_start, parent->t_start - 1e-9);
                EXPECT_LE(s.t_end, parent->t_end + 1e-9)
                    << s.name << " escapes " << parent->name;
            }
            stack.push_back(&s);
        }
        // Every root span is a top-level interval (depth 0 exists).
        EXPECT_EQ(rank_trace.spans.front().depth, 0);
    }
}

TEST(Spans, IdenticalRunsProduceIdenticalSpansAndCounters) {
    auto capture = [] {
        RunOptions opts;
        opts.spans = true;
        Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
                   PayloadMode::SizeOnly, opts);
        rt.run(span_workload);
        return std::make_pair(rt.last_span_traces(),
                              rt.total_span_counters());
    };
    const auto [traces_a, totals_a] = capture();
    const auto [traces_b, totals_b] = capture();
    EXPECT_TRUE(totals_a == totals_b);
    // The hybrid leader shipped node blocks over the bridge, and the flag
    // sync made at least one rank idle-wait.
    EXPECT_GT(totals_a.bridge_bytes, 0u);
    EXPECT_GT(totals_a.sync_wait_us, 0.0);
    ASSERT_EQ(traces_a.size(), traces_b.size());
    for (std::size_t r = 0; r < traces_a.size(); ++r) {
        ASSERT_EQ(traces_a[r].spans.size(), traces_b[r].spans.size());
        EXPECT_TRUE(traces_a[r].counters == traces_b[r].counters);
        for (std::size_t i = 0; i < traces_a[r].spans.size(); ++i) {
            const hytrace::Span& a = traces_a[r].spans[i];
            const hytrace::Span& b = traces_b[r].spans[i];
            EXPECT_STREQ(a.name, b.name);
            EXPECT_EQ(a.depth, b.depth);
            EXPECT_EQ(a.bytes, b.bytes);
            EXPECT_DOUBLE_EQ(a.t_start, b.t_start);
            EXPECT_DOUBLE_EQ(a.t_end, b.t_end);
        }
    }
}

// A barrier-synced round counts every on-node barrier as a wait from its
// start to its end, so each rank's sync_wait_us equals the summed duration
// of its barrier-backed Sync spans.
TEST(Spans, BarrierSyncWaitsAreCounted) {
    RunOptions opts;
    opts.spans = true;
    Runtime rt(ClusterSpec::regular(2, 4), ModelParams::cray(),
               PayloadMode::SizeOnly, opts);
    rt.run([](Comm& world) {
        hympi::HierComm hc(world);
        hympi::AllgatherChannel ch(hc, 512);
        ch.run(hympi::SyncPolicy::Barrier);
    });
    const auto& traces = rt.last_span_traces();
    ASSERT_EQ(traces.size(), 8u);
    for (std::size_t r = 0; r < traces.size(); ++r) {
        double barrier_us = 0.0;
        for (const hytrace::Span& s : traces[r].spans) {
            const std::string name = s.name;
            if (name == "ready_sync" || name == "release_sync" ||
                name == "full_sync") {
                barrier_us += s.t_end - s.t_start;
            }
        }
        EXPECT_GT(traces[r].counters.sync_wait_us, 0.0) << "rank " << r;
        EXPECT_DOUBLE_EQ(traces[r].counters.sync_wait_us, barrier_us)
            << "rank " << r;
    }
}

TEST(Spans, ChromeTraceJsonIsWellFormed) {
    const std::string path =
        testing::TempDir() + "hympi_span_chrome_test.json";
    hytrace::TraceSink::instance().configure(path, false);
    {
        Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
                   PayloadMode::SizeOnly);
        rt.run(span_workload);
        // The sink was enabled, so spans were recorded without RunOptions.
        EXPECT_FALSE(rt.last_span_traces().empty());
    }
    hytrace::TraceSink::instance().flush();
    hytrace::TraceSink::instance().configure("", false);

    const hytrace::json::Value doc = hytrace::json::parse_file(path);
    ASSERT_TRUE(doc.is_object());
    const hytrace::json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_FALSE(events->arr.empty());
    bool saw_complete = false;
    for (const auto& ev : events->arr) {
        ASSERT_TRUE(ev.is_object());
        const hytrace::json::Value* ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_NE(ev.find("name"), nullptr);
        EXPECT_NE(ev.find("pid"), nullptr);
        if (ph->str == "X") {
            saw_complete = true;
            EXPECT_NE(ev.find("tid"), nullptr);
            EXPECT_NE(ev.find("ts"), nullptr);
            EXPECT_NE(ev.find("dur"), nullptr);
        }
    }
    EXPECT_TRUE(saw_complete);
    const hytrace::json::Value* other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_NE(other->find("totals"), nullptr);
    std::remove(path.c_str());
}

TEST(Spans, RetransmitCounterMatchesRobustStats) {
    RunOptions opts;
    opts.spans = true;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray(),
               PayloadMode::Real, opts);
    hympi::RobustConfig cfg;
    cfg.enabled = true;
    rt.set_robust_config(cfg);
    FaultPlan fp;
    fp.seed = 23;
    fp.drop_every = 3;
    fp.scope = FaultScope::RobustFrames;
    rt.set_fault_plan(fp);
    rt.run([](Comm& world) {
        hympi::HierComm hc(world);
        hympi::AllgatherChannel ch(hc, 256);
        std::memset(ch.my_block(), world.rank() + 1, 256);
        for (int iter = 0; iter < 3; ++iter) {
            ch.run();
            ch.quiesce();
        }
    });
    const hytrace::Counters totals = rt.total_span_counters();
    const hympi::RobustStats robust = rt.total_robust_stats();
    EXPECT_GT(robust.retries, 0u);
    EXPECT_EQ(totals.retransmits, robust.retries)
        << "the counter is bumped at the exact retransmit site";
    EXPECT_EQ(totals.degradations,
              robust.sync_downgrades + robust.flat_downgrades);
}
