// Communication counters: the mechanism behind the paper's claims. The
// hybrid allgather must send strictly fewer on-node messages and copy
// strictly fewer bytes than the naive version — here that is checked as a
// COUNT, independent of the timing model.

#include <gtest/gtest.h>

#include "hybrid/hympi.h"

using namespace minimpi;
using namespace hympi;

TEST(Stats, PingPongCounts) {
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::test());
    rt.run([](Comm& world) {
        for (int i = 0; i < 5; ++i) {
            if (world.rank() == 0) {
                send(world, nullptr, 0, Datatype::Byte, 1, 0);
                recv(world, nullptr, 0, Datatype::Byte, 1, 0);
            } else {
                recv(world, nullptr, 0, Datatype::Byte, 0, 0);
                send(world, nullptr, 0, Datatype::Byte, 0, 0);
            }
        }
    });
    for (const auto& s : rt.last_stats()) {
        EXPECT_EQ(s.msgs_sent, 5u);
        EXPECT_EQ(s.msgs_received, 5u);
        EXPECT_EQ(s.inter_node_msgs, 5u);
        EXPECT_EQ(s.intra_node_msgs, 0u);
    }
}

TEST(Stats, BytesTracked) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        std::vector<double> buf(100);
        if (world.rank() == 0) {
            send(world, buf.data(), 100, Datatype::Double, 1, 0);
        } else {
            recv(world, buf.data(), 100, Datatype::Double, 0, 0);
        }
    });
    EXPECT_EQ(rt.last_stats()[0].bytes_sent, 800u);
    EXPECT_EQ(rt.last_stats()[1].bytes_received, 800u);
    EXPECT_EQ(rt.last_stats()[0].intra_node_msgs, 1u);
}

TEST(Stats, BinomialBcastSendsExactlyPMinusOneMessages) {
    ModelParams flat = ModelParams::test();
    flat.smp_aware = false;
    for (int p : {2, 5, 8, 13}) {
        Runtime rt(ClusterSpec::regular(1, p), flat);
        rt.run([](Comm& world) {
            double x = 1.0;
            bcast(world, &x, 1, Datatype::Double, 0);
        });
        const CommStats total = rt.total_stats();
        EXPECT_EQ(total.msgs_sent, static_cast<std::uint64_t>(p - 1))
            << "p=" << p;
        EXPECT_EQ(total.msgs_received, static_cast<std::uint64_t>(p - 1));
    }
}

TEST(Stats, HybridAllgatherEliminatesOnNodeTraffic) {
    const std::size_t bb = 1024;
    CommStats hy, naive;
    {
        Runtime rt(ClusterSpec::regular(4, 6), ModelParams::cray(),
                   PayloadMode::SizeOnly);
        rt.run([bb](Comm& world) {
            HierComm hc(world);
            AllgatherChannel ch(hc, bb);
            ch.run();
        });
        hy = rt.total_stats();
    }
    {
        Runtime rt(ClusterSpec::regular(4, 6), ModelParams::cray(),
                   PayloadMode::SizeOnly);
        rt.run([bb](Comm& world) {
            allgather(world, nullptr, bb, nullptr, Datatype::Byte);
        });
        naive = rt.total_stats();
    }
    // The whole point of the paper: on-node data movement disappears. The
    // hybrid run's only intra-node messages are the (zero-byte) barrier
    // check-ins; the naive run aggregates and re-broadcasts every byte.
    EXPECT_LT(hy.intra_node_msgs, naive.intra_node_msgs);
    EXPECT_LT(hy.bytes_sent, naive.bytes_sent / 4)
        << "hybrid moves each byte across the bridge only";
    EXPECT_LT(hy.memcpy_bytes, naive.memcpy_bytes);
    // Both cross the network with comparable volume (the bridge exchange).
    EXPECT_GT(hy.inter_node_msgs, 0u);
}

TEST(Stats, HybridBcastUsesOnlyBridgeMessages) {
    Runtime rt(ClusterSpec::regular(3, 8), ModelParams::cray(),
               PayloadMode::SizeOnly);
    rt.run([](Comm& world) {
        HierComm hc(world);
        BcastChannel ch(hc, 1 << 16);
        ch.run(0);
    });
    const CommStats total = rt.total_stats();
    // Data-bearing messages: only the leaders' bridge broadcast.
    EXPECT_EQ(total.bytes_sent, 2u * (1u << 16))
        << "binomial over 3 leaders = 2 transfers of the payload";
}

TEST(Stats, FlopsAccumulate) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        std::int64_t a = world.rank(), out = 0;
        allreduce(world, &a, &out, 1, Datatype::Int64, Op::Sum);
    });
    EXPECT_GT(rt.total_stats().flops, 0.0);
}

TEST(Stats, ResetBetweenRuns) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    auto body = [](Comm& world) {
        if (world.rank() == 0) {
            send(world, nullptr, 0, Datatype::Byte, 1, 0);
        } else {
            recv(world, nullptr, 0, Datatype::Byte, 0, 0);
        }
    };
    rt.run(body);
    const auto first = rt.total_stats().msgs_sent;
    rt.run(body);
    EXPECT_EQ(rt.total_stats().msgs_sent, first)
        << "stats are per run, not cumulative";
}
