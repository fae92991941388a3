#include <gtest/gtest.h>

#include <cstring>

#if defined(__linux__)
#include <malloc.h>
#endif

#include "minimpi/minimpi.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WIN_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WIN_TEST_SANITIZED 1
#endif
// mallinfo2 reads glibc's own heap; a sanitizer replaces that allocator.
#if defined(__GLIBC__) && !defined(WIN_TEST_SANITIZED)
#if __GLIBC_PREREQ(2, 33)
#define WIN_TEST_MALLINFO2 1
#endif
#endif

using namespace minimpi;

TEST(Win, LeaderAllocatesChildrenQuery) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    rt.run([](Comm& world) {
        const std::size_t mine = (world.rank() == 0) ? 256 : 0;
        Win w = win_allocate_shared(world, mine);
        EXPECT_TRUE(w.valid());
        auto [base, size] = w.shared_query(0);
        EXPECT_NE(base, nullptr);
        EXPECT_EQ(size, 256u);
        EXPECT_EQ(w.my_size(), mine);
        EXPECT_EQ(w.total_size(), 256u);
    });
}

TEST(Win, PerRankSegmentsAreDisjointAndOrdered) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    rt.run([](Comm& world) {
        Win w = win_allocate_shared(world,
                                    16 * static_cast<std::size_t>(world.rank() + 1));
        std::byte* prev_end = nullptr;
        for (int r = 0; r < 4; ++r) {
            auto [base, size] = w.shared_query(r);
            EXPECT_EQ(size, 16u * static_cast<std::size_t>(r + 1));
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base) % 64, 0u)
                << "segments must be cache-line aligned";
            if (prev_end != nullptr) {
                EXPECT_GE(base, prev_end);
            }
            prev_end = base + size;
        }
    });
}

TEST(Win, StoresAreVisibleToAllRanksAfterBarrier) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::test());
    rt.run([](Comm& world) {
        Comm shm = world.split_shared();
        Win w = win_allocate_shared(shm, sizeof(double));
        *reinterpret_cast<double*>(w.my_base()) = 1.5 * world.rank();
        barrier(shm);
        for (int r = 0; r < shm.size(); ++r) {
            auto [base, size] = w.shared_query(r);
            EXPECT_DOUBLE_EQ(*reinterpret_cast<double*>(base),
                             1.5 * shm.to_world(r));
        }
        barrier(shm);
    });
}

TEST(Win, RejectsMultiNodeCommunicator) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::test());
    EXPECT_THROW(
        rt.run([](Comm& world) { win_allocate_shared(world, 64); }),
        WinError);
}

TEST(Win, QueryOutOfRangeThrows) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Win w = win_allocate_shared(world, 8);
        EXPECT_THROW(w.shared_query(2), WinError);
        EXPECT_THROW(w.shared_query(-1), WinError);
    });
}

TEST(Win, InvalidWindowThrows) {
    Win w;
    EXPECT_FALSE(w.valid());
    EXPECT_THROW(w.shared_query(0), WinError);
}

TEST(Win, SizeOnlyModeSkipsAllocation) {
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::test(),
               PayloadMode::SizeOnly);
    rt.run([](Comm& world) {
        Win w = win_allocate_shared(world, 1 << 20);
        EXPECT_TRUE(w.valid());
        EXPECT_EQ(w.my_base(), nullptr);
        EXPECT_EQ(w.total_size(), 3u << 20);  // sizes still tracked
    });
}

TEST(Win, ZeroTotalWindow) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Win w = win_allocate_shared(world, 0);
        EXPECT_TRUE(w.valid());
        EXPECT_EQ(w.total_size(), 0u);
        EXPECT_EQ(w.my_size(), 0u);
    });
}

TEST(Win, MultipleWindowsCoexist) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Win a = win_allocate_shared(world, 32);
        Win b = win_allocate_shared(world, 32);
        *reinterpret_cast<int*>(a.my_base()) = 1;
        *reinterpret_cast<int*>(b.my_base()) = 2;
        barrier(world);
        for (int r = 0; r < 2; ++r) {
            EXPECT_EQ(*reinterpret_cast<int*>(a.shared_query(r).first), 1);
            EXPECT_EQ(*reinterpret_cast<int*>(b.shared_query(r).first), 2);
        }
        barrier(world);
    });
}

TEST(Win, SegmentOutlivesTheAllocatingRanksHandle) {
    // No registry holds windows: the peers' handles alone keep the leader's
    // segment alive after the leader has dropped its own.
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    rt.run([](Comm& world) {
        constexpr std::size_t kBytes = 4096;
        const bool leader = world.rank() == 0;
        Win w = win_allocate_shared(world, leader ? kBytes : 0);
        if (leader) std::memset(w.my_base(), 0x5a, kBytes);
        barrier(world);
        if (leader) w = Win{};
        barrier(world);
        if (!leader) {
            auto [base, size] = w.shared_query(0);
            ASSERT_EQ(size, kBytes);
            for (std::size_t i = 0; i < kBytes; ++i) {
                ASSERT_EQ(base[i], std::byte{0x5a}) << "byte " << i;
            }
        }
        barrier(world);
    });
}

TEST(Win, DroppedWindowsAreFreedWithinTheRun) {
#if !defined(WIN_TEST_MALLINFO2)
    GTEST_SKIP() << "needs glibc's mallinfo2 and its own malloc";
#else
    // 64 allocate/drop cycles of a 1 MiB node window inside one run: the
    // bytes malloc holds in use afterwards must not grow with the cycles.
    auto in_use = [] {
        const struct mallinfo2 mi = mallinfo2();
        return static_cast<long long>(mi.uordblks + mi.hblkhd);
    };
    constexpr std::size_t kBytes = std::size_t{1} << 20;
    constexpr long long kSlack = 8LL << 20;
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    long long before = 0, after = 0;
    rt.run([&](Comm& world) {
        const bool leader = world.rank() == 0;
        barrier(world);
        if (leader) before = in_use();
        for (int i = 0; i < 64; ++i) {
            Win w = win_allocate_shared(world, leader ? kBytes : 0);
            if (leader) std::memset(w.my_base(), i, kBytes);
        }
        barrier(world);
        if (leader) after = in_use();
    });
    EXPECT_LT(after - before, kSlack)
        << "in use before " << before << " B, after " << after << " B";
#endif
}
