// The small-collective aggregation shim (hy_batch.h): concurrent small
// allgathers/bcasts/allreduces on one HierComm coalesce into a single fused
// node-block bridge exchange per window and demultiplex on release. These
// tests pin the fused results byte-for-byte against the flat collectives,
// the window lifecycle (explicit flush, wait-triggered flush, capacity
// overflow), the policy/threshold resolution, robust-mode inertness and
// SizeOnly null-buffer safety.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hybrid/hympi.h"

using namespace minimpi;
using namespace hympi;

namespace {

void fill(std::byte* p, std::size_t n, int seed) {
    for (std::size_t i = 0; i < n; ++i) {
        p[i] = static_cast<std::byte>((seed * 131 + static_cast<int>(i) * 7) &
                                      0xFF);
    }
}

TEST(CollBatcher, FusedWindowMatchesFlatCollectives) {
    // A mixed window — two allgathers, a bcast, an allreduce — fused into
    // one bridge exchange, compared against the flat collectives run on
    // the same inputs.
    Runtime rt(ClusterSpec::irregular({3, 2, 3}), ModelParams::cray());
    rt.run([&](Comm& world) {
        const int p = world.size();
        const int me = world.rank();
        constexpr std::size_t kA = 48, kB = 96, kBc = 64;
        constexpr std::size_t kRed = 8;

        std::vector<std::byte> sa(kA), sb(kB), bc(kBc);
        fill(sa.data(), kA, me * 3 + 1);
        fill(sb.data(), kB, me * 3 + 2);
        fill(bc.data(), kBc, 7);  // root's payload; overwritten elsewhere
        std::vector<double> rin(kRed), rsum(kRed);
        for (std::size_t i = 0; i < kRed; ++i) {
            rin[i] = static_cast<double>((me + 1) * (static_cast<int>(i) + 1));
        }

        // Flat references.
        std::vector<std::byte> ref_a(kA * static_cast<std::size_t>(p));
        std::vector<std::byte> ref_b(kB * static_cast<std::size_t>(p));
        std::vector<std::byte> ref_bc = bc;
        std::vector<double> ref_sum(kRed);
        allgather(world, sa.data(), kA, ref_a.data(), Datatype::Byte);
        allgather(world, sb.data(), kB, ref_b.data(), Datatype::Byte);
        bcast(world, ref_bc.data(), kBc, Datatype::Byte, 2);
        allreduce(world, rin.data(), ref_sum.data(), kRed, Datatype::Double,
                  Op::Sum);

        HierComm hc(world, 2);
        CollBatcher batch(hc);
        ASSERT_TRUE(batch.active());
        batch.set_policy(BatchPolicy::Always);

        std::vector<std::byte> out_a(ref_a.size()), out_b(ref_b.size());
        std::vector<std::byte> out_bc = bc;
        if (me != 2) fill(out_bc.data(), kBc, me + 40);  // must be replaced
        std::vector<CollRequest> reqs;
        reqs.push_back(batch.post_allgather(sa.data(), kA, out_a.data()));
        reqs.push_back(batch.post_allgather(sb.data(), kB, out_b.data()));
        reqs.push_back(batch.post_bcast(out_bc.data(), kBc, 2));
        reqs.push_back(
            batch.post_allreduce(rin.data(), rsum.data(), kRed,
                                 Datatype::Double, Op::Sum));
        batch.flush();
        wait_all(reqs);

        EXPECT_EQ(std::memcmp(out_a.data(), ref_a.data(), ref_a.size()), 0);
        EXPECT_EQ(std::memcmp(out_b.data(), ref_b.data(), ref_b.size()), 0);
        EXPECT_EQ(std::memcmp(out_bc.data(), ref_bc.data(), kBc), 0);
        for (std::size_t i = 0; i < kRed; ++i) {
            EXPECT_DOUBLE_EQ(rsum[i], ref_sum[i]) << "element " << i;
        }
        const CollBatcher::Stats& s = batch.stats();
        EXPECT_EQ(s.posted, 4u);
        EXPECT_EQ(s.fused, 4u);
        EXPECT_EQ(s.immediate, 0u);
        EXPECT_EQ(s.windows, 1u);
        barrier(world);
    });
}

TEST(CollBatcher, FirstWaitFlushesTheWindow) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray());
    rt.run([&](Comm& world) {
        const int p = world.size();
        const int me = world.rank();
        constexpr std::size_t kN = 32;
        std::vector<std::byte> send(kN);
        fill(send.data(), kN, me);
        std::vector<std::byte> ref(kN * static_cast<std::size_t>(p));
        allgather(world, send.data(), kN, ref.data(), Datatype::Byte);

        HierComm hc(world);
        CollBatcher batch(hc);
        batch.set_policy(BatchPolicy::Always);
        std::vector<std::byte> o1(ref.size()), o2(ref.size());
        CollRequest r1 = batch.post_allgather(send.data(), kN, o1.data());
        CollRequest r2 = batch.post_allgather(send.data(), kN, o2.data());
        // No explicit flush: waiting the FIRST request must close and run
        // the window, so both results are ready.
        r1.wait();
        EXPECT_EQ(std::memcmp(o1.data(), ref.data(), ref.size()), 0);
        r2.wait();  // same window: a no-op beyond bookkeeping
        EXPECT_EQ(std::memcmp(o2.data(), ref.data(), ref.size()), 0);
        EXPECT_EQ(batch.stats().windows, 1u);
        barrier(world);
    });
}

TEST(CollBatcher, CapacityOverflowSplitsWindows) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.run([&](Comm& world) {
        const int p = world.size();
        const int me = world.rank();
        // Two fused allgathers (p * kN bytes each) fill the window exactly.
        const std::size_t kN =
            kBatchCapacity / (2 * static_cast<std::size_t>(p));
        std::vector<std::byte> send(kN);
        fill(send.data(), kN, me + 9);
        std::vector<std::byte> ref(kN * static_cast<std::size_t>(p));
        allgather(world, send.data(), kN, ref.data(), Datatype::Byte);

        HierComm hc(world);
        CollBatcher batch(hc);
        batch.set_policy(BatchPolicy::Always);
        constexpr int kOps = 5;
        std::vector<std::vector<std::byte>> outs(
            kOps, std::vector<std::byte>(ref.size()));
        std::vector<CollRequest> reqs;
        for (int i = 0; i < kOps; ++i) {
            reqs.push_back(
                batch.post_allgather(send.data(), kN, outs[i].data()));
        }
        batch.flush();
        wait_all(reqs);
        for (int i = 0; i < kOps; ++i) {
            EXPECT_EQ(std::memcmp(outs[i].data(), ref.data(), ref.size()), 0)
                << "op " << i;
        }
        EXPECT_EQ(batch.stats().fused, static_cast<std::uint64_t>(kOps));
        EXPECT_EQ(batch.stats().windows, 3u);
        barrier(world);
    });
}

TEST(CollBatcher, NeverPolicyRunsEverythingImmediately) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.run([&](Comm& world) {
        const int p = world.size();
        const int me = world.rank();
        constexpr std::size_t kN = 40;
        std::vector<std::byte> send(kN);
        fill(send.data(), kN, me + 17);
        std::vector<std::byte> ref(kN * static_cast<std::size_t>(p));
        allgather(world, send.data(), kN, ref.data(), Datatype::Byte);

        HierComm hc(world);
        CollBatcher batch(hc);
        batch.set_policy(BatchPolicy::Never);
        std::vector<std::byte> out(ref.size());
        CollRequest r = batch.post_allgather(send.data(), kN, out.data());
        r.wait();
        EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size()), 0);
        EXPECT_EQ(batch.stats().immediate, 1u);
        EXPECT_EQ(batch.stats().fused, 0u);
        EXPECT_EQ(batch.stats().windows, 0u);
        barrier(world);
    });
}

TEST(CollBatcher, LegacyThresholdSplitsSmallFromLarge) {
    // ModelParams::test() has no tuned table, so Auto falls back to the
    // legacy 1 KiB threshold: a 4 KiB op runs immediately, a 64 B op fuses.
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::test());
    rt.run([&](Comm& world) {
        const int p = world.size();
        const int me = world.rank();
        std::vector<std::byte> small(64), large(4096);
        fill(small.data(), small.size(), me);
        fill(large.data(), large.size(), me + 5);
        std::vector<std::byte> ref_s(small.size() *
                                     static_cast<std::size_t>(p));
        std::vector<std::byte> ref_l(large.size() *
                                     static_cast<std::size_t>(p));
        allgather(world, small.data(), small.size(), ref_s.data(),
                  Datatype::Byte);
        allgather(world, large.data(), large.size(), ref_l.data(),
                  Datatype::Byte);

        HierComm hc(world);
        CollBatcher batch(hc);  // BatchPolicy::Auto
        std::vector<std::byte> out_s(ref_s.size()), out_l(ref_l.size());
        CollRequest rs =
            batch.post_allgather(small.data(), small.size(), out_s.data());
        CollRequest rl =
            batch.post_allgather(large.data(), large.size(), out_l.data());
        rl.wait();
        rs.wait();
        EXPECT_EQ(std::memcmp(out_s.data(), ref_s.data(), ref_s.size()), 0);
        EXPECT_EQ(std::memcmp(out_l.data(), ref_l.data(), ref_l.size()), 0);
        EXPECT_EQ(batch.stats().fused, 1u);
        EXPECT_EQ(batch.stats().immediate, 1u);
        barrier(world);
    });
}

TEST(CollBatcher, RobustModeIsInert) {
    RobustConfig cfg;
    cfg.enabled = true;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.set_robust_config(cfg);
    rt.run([&](Comm& world) {
        const int p = world.size();
        const int me = world.rank();
        constexpr std::size_t kN = 32;
        std::vector<std::byte> send(kN);
        fill(send.data(), kN, me + 23);
        std::vector<std::byte> ref(kN * static_cast<std::size_t>(p));
        allgather(world, send.data(), kN, ref.data(), Datatype::Byte);

        HierComm hc(world);
        CollBatcher batch(hc);
        EXPECT_FALSE(batch.active());
        batch.set_policy(BatchPolicy::Always);  // still inert
        std::vector<std::byte> out(ref.size());
        CollRequest r = batch.post_allgather(send.data(), kN, out.data());
        r.wait();
        EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size()), 0);
        EXPECT_EQ(batch.stats().fused, 0u);
        EXPECT_EQ(batch.stats().immediate, 1u);
        barrier(world);
    });
}

TEST(CollBatcher, SizeOnlyNullBuffers) {
    // SizeOnly payload mode posts null buffers everywhere; the fused pack/
    // demux must stay null-safe end to end.
    Runtime rt(ClusterSpec::regular(3, 2), ModelParams::cray(),
               PayloadMode::SizeOnly);
    rt.run([&](Comm& world) {
        HierComm hc(world, 2);
        CollBatcher batch(hc);
        batch.set_policy(BatchPolicy::Always);
        std::vector<CollRequest> reqs;
        for (int i = 0; i < 6; ++i) {
            reqs.push_back(batch.post_allgather(nullptr, 128, nullptr));
        }
        reqs.push_back(batch.post_bcast(nullptr, 256, 1));
        reqs.push_back(
            batch.post_allreduce(nullptr, nullptr, 16, Datatype::Double,
                                 Op::Sum));
        batch.flush();
        wait_all(reqs);
        EXPECT_EQ(batch.stats().fused, 8u);
        barrier(world);
    });
}

}  // namespace
