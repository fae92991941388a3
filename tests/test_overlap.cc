// Split-phase Hy_Allgather (paper conclusion): children overlap their own
// compute with the leaders' inter-node transfers.

#include <gtest/gtest.h>

#include <algorithm>

#include "hybrid/hympi.h"

using namespace minimpi;
using namespace hympi;

namespace {

void fill(std::byte* p, std::size_t n, int seed) {
    for (std::size_t i = 0; i < n; ++i) {
        p[i] = static_cast<std::byte>((seed * 67 + static_cast<int>(i)) & 0xFF);
    }
}

}  // namespace

TEST(Overlap, DataStillCorrect) {
    Runtime rt(ClusterSpec::regular(3, 4), ModelParams::cray());
    rt.run([](Comm& world) {
        HierComm hc(world);
        const std::size_t bb = 64;
        AllgatherChannel ch(hc, bb);
        fill(ch.my_block(), bb, world.rank());
        minimpi::CollRequest rq = ch.start();
        // Compute on private data while the leaders exchange.
        world.ctx().charge_flops(5000.0);
        rq.wait();
        for (int r = 0; r < world.size(); ++r) {
            const std::byte* b = ch.block_of(r);
            for (std::size_t i = 0; i < bb; ++i) {
                ASSERT_EQ(b[i], static_cast<std::byte>(
                                    (r * 67 + static_cast<int>(i)) & 0xFF));
            }
        }
        barrier(world);
    });
}

TEST(Overlap, ChildrenComputeHidesBehindExchange) {
    // Large node blocks: the bridge exchange takes a while. Children (the
    // leader's application work is assumed redistributed while it drives
    // the network) who compute during the window finish no later than the
    // exchange itself, so start+compute+wait costs (almost) the same as
    // run() alone, while run()+compute pays for both serially.
    const std::size_t bb = 512 * 1024;
    const double flops = 2.0e6;  // ~1 ms of compute at 2 GF/s
    VTime t_split = 0, t_serial = 0;
    for (bool split : {false, true}) {
        Runtime rt(ClusterSpec::regular(4, 8), ModelParams::cray(),
                   PayloadMode::SizeOnly);
        auto clocks = rt.run([&](Comm& world) {
            HierComm hc(world);
            AllgatherChannel ch(hc, bb);
            const bool child = !hc.is_leader();
            barrier(world);
            if (split) {
                minimpi::CollRequest rq = ch.start();
                if (child) world.ctx().charge_flops(flops);
                rq.wait();
            } else {
                ch.run();
                if (child) world.ctx().charge_flops(flops);
            }
        });
        (split ? t_split : t_serial) =
            *std::max_element(clocks.begin(), clocks.end());
    }
    EXPECT_LT(t_split, t_serial)
        << "split=" << t_split << " serial=" << t_serial;
    // The compute is ~1 ms; most of it must disappear behind the exchange.
    EXPECT_LT(t_split, t_serial - 0.5 * (flops / 2000.0));
}

TEST(Overlap, SyncPoliciesBothWork) {
    for (SyncPolicy sync : {SyncPolicy::Barrier, SyncPolicy::Flags}) {
        Runtime rt(ClusterSpec::irregular({2, 3}), ModelParams::cray());
        rt.run([sync](Comm& world) {
            HierComm hc(world);
            AllgatherChannel ch(hc, 32);
            for (int epoch = 0; epoch < 3; ++epoch) {
                fill(ch.my_block(), 32, world.rank() + epoch * 100);
                ch.start(sync).wait();
                for (int r = 0; r < world.size(); ++r) {
                    ASSERT_EQ(ch.block_of(r)[0],
                              static_cast<std::byte>(
                                  ((r + epoch * 100) * 67) & 0xFF));
                }
                ch.quiesce(sync);
            }
        });
    }
}

TEST(Overlap, SingleNodeStartWaitIsAFullSync) {
    Runtime rt(ClusterSpec::regular(1, 6), ModelParams::cray());
    rt.run([](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, 16);
        fill(ch.my_block(), 16, world.rank());
        ch.start().wait();
        for (int r = 0; r < world.size(); ++r) {
            ASSERT_EQ(ch.block_of(r)[0],
                      static_cast<std::byte>((r * 67) & 0xFF));
        }
        barrier(world);
    });
}
