// The resilience subsystem end to end: fault injection primitives (drop,
// duplication, SHM allocation failure), the reliable (ARQ) bridge exchange,
// the graceful-degradation ladder (Flags -> Barrier, hybrid -> flat MPI),
// determinism under recovery, and the zero fast-path guarantee when
// robustness is disabled. Registered under `ctest -L robust`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "conformance/conformance.h"
#include "hybrid/hympi.h"
#include "robust/fold_kernels.h"

using namespace minimpi;
using namespace hympi;

namespace {

/// Pinned robust configuration, independent of HYMPI_* in the environment.
RobustConfig robust_on() {
    RobustConfig cfg;
    cfg.enabled = true;
    return cfg;
}

RobustConfig robust_off() {
    RobustConfig cfg;
    cfg.enabled = false;
    return cfg;
}

std::byte pattern(int rank, std::size_t i) {
    return static_cast<std::byte>((rank * 37 + static_cast<int>(i) * 11) & 0xFF);
}

void fill_pattern(std::byte* p, int rank, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] = pattern(rank, i);
}

void expect_pattern(const std::byte* p, int rank, std::size_t n,
                    const char* what) {
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(p[i], pattern(rank, i))
            << what << ": rank " << rank << " byte " << i;
    }
}

/// The per-byte payload formula fill_pattern replaced.
std::byte pattern_byte(std::uint64_t seed, std::uint64_t salt, std::size_t i) {
    return static_cast<std::byte>(
        robust::mix64(seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^ (i >> 3)) >>
        ((i & 7) * 8));
}

std::vector<std::byte> fold_input(std::size_t n) {
    std::vector<std::byte> buf(n);
    for (std::size_t i = 0; i < n; ++i) {
        buf[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
    }
    return buf;
}

std::uint64_t fold_whole(const std::vector<std::byte>& buf) {
    robust::WordFold f;
    f.update(buf.data(), buf.size());
    return f.digest();
}

/// WordFold's definition written out word by word: word i into lane
/// i % 32, the lanes combined in order from kOffset, then the zero-padded
/// partial word and the length.
std::uint64_t fold_reference(const std::byte* p, std::size_t n,
                             std::uint64_t seed = robust::WordFold::kOffset) {
    constexpr std::size_t kLanes = robust::WordFold::kLanes;
    auto step = [](std::uint64_t h, std::uint64_t w) {
        return (h ^ robust::mix64(w)) * robust::WordFold::kPrime;
    };
    auto word = [p](std::size_t at, std::size_t len) {
        std::uint64_t w = 0;
        for (std::size_t b = 0; b < len; ++b) {
            w |= std::uint64_t{std::to_integer<unsigned char>(p[at + b])}
                 << (8 * b);
        }
        return w;
    };
    std::uint64_t lanes[kLanes];
    for (std::uint64_t& l : lanes) l = seed;
    for (std::size_t i = 0; i < n / 8; ++i) {
        lanes[i % kLanes] = step(lanes[i % kLanes], word(8 * i, 8));
    }
    std::uint64_t h = robust::WordFold::kOffset;
    for (const std::uint64_t l : lanes) h = step(h, l);
    if (n % 8 != 0) h = step(h, word(n - n % 8, n % 8));
    return (h ^ n) * robust::WordFold::kPrime;
}

/// Three whole 32-lane blocks plus a 37-byte tail (4 words and 5 bytes).
constexpr std::size_t kBlockInput = 3 * 256 + 37;

}  // namespace

// ---------------------------------------------------------------------------
// Word-at-a-time fold (frame checksums, service digests) and pattern fill
// ---------------------------------------------------------------------------

TEST(Checksum, FoldIsIndependentOfHowTheStreamIsSplit) {
    const std::vector<std::byte> buf = fold_input(67);
    const std::uint64_t whole = fold_whole(buf);
    for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
        robust::WordFold f;
        f.update(buf.data(), cut);
        f.update(buf.data() + cut, buf.size() - cut);
        EXPECT_EQ(f.digest(), whole) << "split at " << cut;
    }
    robust::WordFold bytewise;
    for (const std::byte& b : buf) bytewise.update(&b, 1);
    EXPECT_EQ(bytewise.digest(), whole);
}

TEST(Checksum, AnySingleByteFlipChangesTheFold) {
    const std::vector<std::byte> buf = fold_input(67);
    const std::uint64_t whole = fold_whole(buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<std::byte> bad = buf;
            bad[i] ^= static_cast<std::byte>(1u << bit);
            EXPECT_NE(fold_whole(bad), whole) << "byte " << i << " bit " << bit;
        }
        std::vector<std::byte> bad = buf;
        bad[i] ^= std::byte{0xFF};
        EXPECT_NE(fold_whole(bad), whole) << "byte " << i;
    }
}

TEST(Checksum, AnyTwoBitFlipChangesTheFold) {
    const std::vector<std::byte> buf = fold_input(67);
    const std::uint64_t whole = fold_whole(buf);
    const std::size_t bits = buf.size() * 8;
    auto flip = [](std::vector<std::byte>& b, std::size_t bit) {
        b[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    };
    for (std::size_t i = 0; i < bits; ++i) {
        for (std::size_t j = i + 1; j < bits; ++j) {
            std::vector<std::byte> bad = buf;
            flip(bad, i);
            flip(bad, j);
            ASSERT_NE(fold_whole(bad), whole) << "bits " << i << " and " << j;
        }
    }
}

TEST(Checksum, SignFlipsInTwoWordsDoNotCancel) {
    // Bit 63 of a word is a double's sign. A fold that only multiplies keeps
    // a bit-63 change in bit 63, so a second one cancels it; a fold that
    // also xor-shifts h down by 32 is cancelled by bits 63 and 31 of the
    // next word.
    const std::vector<std::byte> buf = fold_input(67);
    const std::uint64_t whole = fold_whole(buf);
    std::vector<std::byte> two_signs = buf;
    two_signs[7] ^= std::byte{0x80};   // word 0, bit 63
    two_signs[15] ^= std::byte{0x80};  // word 1, bit 63
    EXPECT_NE(fold_whole(two_signs), whole);
    std::vector<std::byte> sign_and_bit31 = buf;
    sign_and_bit31[7] ^= std::byte{0x80};   // word 0, bit 63
    sign_and_bit31[11] ^= std::byte{0x80};  // word 1, bit 31
    sign_and_bit31[15] ^= std::byte{0x80};  // word 1, bit 63
    EXPECT_NE(fold_whole(sign_and_bit31), whole);
    EXPECT_NE(robust::frame_checksum(two_signs.data(), two_signs.size(), 1, 67),
              robust::frame_checksum(buf.data(), buf.size(), 1, 67));
}

TEST(Checksum, TrailingZeroBytesChangeTheFold) {
    std::vector<std::byte> buf = fold_input(13);
    const std::uint64_t short_sum = fold_whole(buf);
    buf.push_back(std::byte{0});
    EXPECT_NE(fold_whole(buf), short_sum);
}

TEST(Checksum, FoldMatchesItsLaneDefinition) {
    const std::vector<std::byte> buf = fold_input(kBlockInput);
    for (std::size_t n = 0; n <= buf.size(); ++n) {
        robust::WordFold f;
        f.update(buf.data(), n);
        ASSERT_EQ(f.digest(), fold_reference(buf.data(), n)) << "n " << n;
    }
    robust::WordFold seeded(0x1234);
    seeded.update(buf.data(), buf.size());
    EXPECT_EQ(seeded.digest(), fold_reference(buf.data(), buf.size(), 0x1234));
}

TEST(Checksum, BlockFoldIsIndependentOfHowTheStreamIsSplit) {
    const std::vector<std::byte> buf = fold_input(kBlockInput);
    const std::uint64_t whole = fold_whole(buf);
    for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
        robust::WordFold f;
        f.update(buf.data(), cut);
        f.update(buf.data() + cut, buf.size() - cut);
        ASSERT_EQ(f.digest(), whole) << "split at " << cut;
    }
    // Chunks that straddle word and block boundaries differently each call.
    for (const std::size_t chunk : {1, 3, 8, 13, 255, 256, 257, 300}) {
        robust::WordFold f;
        for (std::size_t at = 0; at < buf.size(); at += chunk) {
            f.update(buf.data() + at, std::min(chunk, buf.size() - at));
        }
        EXPECT_EQ(f.digest(), whole) << "chunks of " << chunk;
    }
}

TEST(Checksum, AnyBitFlipInABlockInputChangesTheFold) {
    const std::vector<std::byte> buf = fold_input(kBlockInput);
    const std::uint64_t whole = fold_whole(buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<std::byte> bad = buf;
            bad[i] ^= static_cast<std::byte>(1u << bit);
            ASSERT_NE(fold_whole(bad), whole) << "byte " << i << " bit " << bit;
        }
    }
}

TEST(Checksum, SignFlipsInOneLaneOrAdjacentLanesDoNotCancel) {
    const std::vector<std::byte> buf = fold_input(kBlockInput);
    const std::uint64_t whole = fold_whole(buf);
    const std::size_t words = buf.size() / 8;
    auto two_signs = [&buf](std::size_t a, std::size_t b) {
        std::vector<std::byte> bad = buf;
        bad[8 * a + 7] ^= std::byte{0x80};
        bad[8 * b + 7] ^= std::byte{0x80};
        return fold_whole(bad);
    };
    for (std::size_t w = 0; w + robust::WordFold::kLanes < words; ++w) {
        ASSERT_NE(two_signs(w, w + robust::WordFold::kLanes), whole)
            << "same lane, words " << w << " and "
            << w + robust::WordFold::kLanes;
    }
    for (std::size_t w = 0; w + 1 < words; ++w) {
        ASSERT_NE(two_signs(w, w + 1), whole)
            << "adjacent lanes, words " << w << " and " << w + 1;
    }
}

namespace {

using FoldKernel = void (*)(std::uint64_t*, const unsigned char*,
                            std::size_t);

/// Runs @p kernel on 0-9 blocks at every start alignment within a cache
/// line, from seeded lanes, and compares the lanes with the portable loop.
void expect_kernel_matches_portable(FoldKernel kernel) {
    constexpr std::size_t kLanes = robust::WordFold::kLanes;
    constexpr std::size_t kMaxBlocks = 9;
    std::vector<unsigned char> src(kMaxBlocks * 8 * kLanes + 64);
    for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<unsigned char>(robust::mix64(i) >> 56);
    }
    for (std::size_t blocks = 0; blocks <= kMaxBlocks; ++blocks) {
        for (std::size_t offset = 0; offset < 64; ++offset) {
            std::uint64_t want[kLanes], got[kLanes];
            for (std::size_t j = 0; j < kLanes; ++j) {
                want[j] = got[j] = robust::mix64(blocks * 64 + offset + j);
            }
            robust::detail::fold_blocks_portable(want, src.data() + offset,
                                                 blocks);
            kernel(got, src.data() + offset, blocks);
            for (std::size_t j = 0; j < kLanes; ++j) {
                ASSERT_EQ(got[j], want[j]) << blocks << " blocks at offset "
                                           << offset << ", lane " << j;
            }
        }
    }
}

}  // namespace

TEST(Checksum, PortableBlockKernelFollowsTheLaneStep) {
    const std::vector<std::byte> buf = fold_input(2 * 256);
    std::uint64_t lanes[robust::WordFold::kLanes] = {};
    robust::detail::fold_blocks_portable(
        lanes, reinterpret_cast<const unsigned char*>(buf.data()), 2);
    for (std::size_t j = 0; j < robust::WordFold::kLanes; ++j) {
        std::uint64_t lane = 0;
        for (std::size_t b = 0; b < 2; ++b) {
            std::uint64_t w;
            std::memcpy(&w, buf.data() + 256 * b + 8 * j, 8);
            lane = (lane ^ robust::mix64(w)) * robust::WordFold::kPrime;
        }
        EXPECT_EQ(lanes[j], lane) << "lane " << j;
    }
}

TEST(Checksum, Avx512BlockKernelIsBitIdenticalToPortableLoop) {
    if (!robust::detail::cpu_has_avx512dq()) {
        GTEST_SKIP() << "CPU lacks AVX-512F/DQ";
    }
    expect_kernel_matches_portable(&robust::detail::fold_blocks_avx512);
}

TEST(Checksum, DispatchedBlockKernelIsBitIdenticalToPortableLoop) {
    expect_kernel_matches_portable(&robust::detail::fold_blocks);
}

TEST(Checksum, FramesBindGenAndLength) {
    const std::vector<std::byte> buf = fold_input(29);
    const std::uint64_t sum = robust::frame_checksum(buf.data(), buf.size(), 5, 29);
    EXPECT_NE(robust::frame_checksum(buf.data(), buf.size(), 6, 29), sum);
    EXPECT_NE(robust::frame_checksum(buf.data(), buf.size(), 5, 30), sum);
    EXPECT_EQ(robust::frame_checksum(buf.data(), buf.size(), 5, 29), sum);
}

TEST(Checksum, FillPatternMatchesThePerByteFormula) {
    for (const std::uint64_t salt : {0ULL, 1ULL, 0x10000ULL, 0x7FFFFFFFULL}) {
        for (std::size_t n = 0; n <= 33; ++n) {
            std::vector<std::byte> got(n + 1, std::byte{0xEE});
            robust::fill_pattern(got.data(), n, 42, salt);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(got[i], pattern_byte(42, salt, i))
                    << "n " << n << " salt " << salt << " byte " << i;
            }
            EXPECT_EQ(got[n], std::byte{0xEE}) << "wrote past n = " << n;
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injection primitives (satellite: drop / duplication in Transport)
// ---------------------------------------------------------------------------

TEST(Robust, DroppedMessageRaisesTimeoutOnPlainRecv) {
    // A dropped message is delivered as a tombstone so the receiver wakes;
    // a plain (non-robust) receive then surfaces the loss as TimeoutError
    // instead of hanging forever — watchdog semantics.
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::cray());
    FaultPlan fp;
    fp.seed = 11;
    fp.drop_every = 1;  // drop everything
    rt.set_fault_plan(fp);
    int timeouts = 0;
    rt.run([&](Comm& world) {
        std::byte buf[16] = {};
        if (world.rank() == 0) {
            send(world, buf, sizeof(buf), Datatype::Byte, 1, 7);
        } else {
            try {
                recv(world, buf, sizeof(buf), Datatype::Byte, 0, 7);
            } catch (const TimeoutError&) {
                ++timeouts;
            }
        }
    });
    EXPECT_EQ(timeouts, 1);
}

TEST(Robust, DuplicatedMessageIsDeliveredTwice) {
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::cray());
    FaultPlan fp;
    fp.seed = 12;
    fp.dup_every = 1;  // duplicate everything
    rt.set_fault_plan(fp);
    rt.run([](Comm& world) {
        std::byte buf[32];
        if (world.rank() == 0) {
            fill_pattern(buf, 0, sizeof(buf));
            send(world, buf, sizeof(buf), Datatype::Byte, 1, 3);
        } else {
            // The original and its trailing duplicate both match: two
            // receives of one logical send, byte-identical payloads.
            std::memset(buf, 0, sizeof(buf));
            recv(world, buf, sizeof(buf), Datatype::Byte, 0, 3);
            expect_pattern(buf, 0, sizeof(buf), "original");
            std::memset(buf, 0, sizeof(buf));
            recv(world, buf, sizeof(buf), Datatype::Byte, 0, 3);
            expect_pattern(buf, 0, sizeof(buf), "duplicate");
        }
    });
}

// ---------------------------------------------------------------------------
// NodeSharedBuffer status reporting (satellite: the silent-null bugfix)
// ---------------------------------------------------------------------------

TEST(Robust, ZeroByteBufferReportsEmptyStatus) {
    // A zero-byte node-shared buffer used to hand out null pointers with no
    // signal at all; now the condition is explicit in status().
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::cray());
    rt.run([](Comm& world) {
        HierComm hc(world);
        NodeSharedBuffer buf(hc, 0);
        EXPECT_EQ(buf.status().code, StatusCode::EmptyBuffer);
        EXPECT_EQ(buf.data(), nullptr);
        EXPECT_EQ(buf.at(0), nullptr);
        EXPECT_FALSE(buf.alloc_failed());
    });
}

TEST(Robust, LegacyAllocFailureThrowsDiagnosedWinError) {
    // With robustness disabled an injected window-allocation failure keeps
    // the legacy throwing behaviour, but the diagnostic now points at the
    // degradation path.
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.set_robust_config(robust_off());
    FaultPlan fp;
    fp.seed = 13;
    fp.shm_fail_every = 1;  // every window allocation fails
    rt.set_fault_plan(fp);
    std::vector<int> threw(4, 0);
    rt.run([&](Comm& world) {
        try {
            HierComm hc(world);
            AllgatherChannel ch(hc, 64);
        } catch (const WinError& e) {
            EXPECT_NE(std::string(e.what()).find("HYMPI_ROBUST=1"),
                      std::string::npos);
            threw[static_cast<std::size_t>(world.rank())] = 1;
        }
    });
    for (int r = 0; r < 4; ++r) EXPECT_EQ(threw[r], 1) << "rank " << r;
}

// ---------------------------------------------------------------------------
// Degradation ladder, rung 2: hybrid -> flat MPI
// ---------------------------------------------------------------------------

TEST(Robust, AllocFailureDegradesAllgatherToFlat) {
    constexpr std::size_t kBlock = 96;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.set_robust_config(robust_on());
    FaultPlan fp;
    fp.seed = 14;
    fp.shm_fail_every = 1;
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, kBlock);
        EXPECT_TRUE(ch.degraded_flat());
        fill_pattern(ch.my_block(), world.rank(), kBlock);
        ch.run();
        for (int r = 0; r < world.size(); ++r) {
            expect_pattern(ch.block_of(r), r, kBlock, "flat allgather");
        }
    });
    const RobustStats total = rt.total_robust_stats();
    EXPECT_GE(total.flat_downgrades, 4u);  // every rank flips its channel
    EXPECT_GE(total.alloc_failures, 1u);
}

TEST(Robust, AllocFailureDegradesBcastToFlat) {
    constexpr std::size_t kBytes = 128;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::openmpi());
    rt.set_robust_config(robust_on());
    FaultPlan fp;
    fp.seed = 15;
    fp.shm_fail_every = 1;
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        BcastChannel ch(hc, kBytes);
        EXPECT_TRUE(ch.degraded_flat());
        const int root = 1;
        if (world.rank() == root) {
            fill_pattern(ch.write_buffer(), root, kBytes);
        }
        ch.run(root);
        expect_pattern(ch.read_buffer(), root, kBytes, "flat bcast");
    });
    EXPECT_GE(rt.total_robust_stats().flat_downgrades, 4u);
}

TEST(Robust, ExhaustedRetriesDowngradeToFlatWithCorrectData) {
    // retry_max = 0 and a drop-everything plan scoped to robust frames: the
    // very first bridge transfer fails, the bridge agrees, and the round is
    // transparently replayed flat — the failing round is still byte-
    // identical to pure MPI because the flat path's traffic is not a robust
    // frame and passes untouched.
    constexpr std::size_t kBlock = 64;
    Runtime rt(ClusterSpec::irregular({2, 3}), ModelParams::cray());
    RobustConfig cfg = robust_on();
    cfg.retry_max = 0;
    rt.set_robust_config(cfg);
    FaultPlan fp;
    fp.seed = 16;
    fp.drop_every = 1;
    fp.scope = FaultScope::RobustFrames;
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, kBlock);
        EXPECT_FALSE(ch.degraded_flat());
        fill_pattern(ch.my_block(), world.rank(), kBlock);
        ch.run();
        EXPECT_TRUE(ch.degraded_flat());
        for (int r = 0; r < world.size(); ++r) {
            expect_pattern(ch.block_of(r), r, kBlock, "downgraded round");
        }
        // The downgrade is sticky: later rounds run flat and stay correct.
        ch.quiesce();
        fill_pattern(ch.my_block(), world.rank() + 1, kBlock);
        ch.run();
        for (int r = 0; r < world.size(); ++r) {
            expect_pattern(ch.block_of(r), r + 1, kBlock, "post-downgrade");
        }
    });
    const RobustStats total = rt.total_robust_stats();
    EXPECT_GE(total.flat_downgrades, 5u);
    EXPECT_GT(total.timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Reliable bridge exchange: recovery under drop/corrupt/dup
// ---------------------------------------------------------------------------

TEST(Robust, AllgatherRecoversFromDropCorruptDup) {
    constexpr std::size_t kBlock = 256;
    Runtime rt(ClusterSpec::irregular({3, 2}), ModelParams::cray());
    rt.set_robust_config(robust_on());
    FaultPlan fp;
    fp.seed = 17;
    fp.drop_every = 3;
    fp.corrupt_every = 5;
    fp.dup_every = 4;
    fp.scope = FaultScope::RobustFrames;
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, kBlock);
        for (int iter = 0; iter < 3; ++iter) {
            fill_pattern(ch.my_block(), world.rank() + iter, kBlock);
            ch.run();
            for (int r = 0; r < world.size(); ++r) {
                expect_pattern(ch.block_of(r), r + iter, kBlock, "recovered");
            }
            ch.quiesce();
        }
        EXPECT_FALSE(ch.degraded_flat());
    });
    const RobustStats total = rt.total_robust_stats();
    EXPECT_GT(total.retries, 0u);
    EXPECT_GT(total.recoveries, 0u);
    EXPECT_EQ(total.flat_downgrades, 0u);
}

TEST(Robust, ZeroByteContributionsSurviveTheReliablePath) {
    // Regression: a zero-byte contribution has a null base pointer; the
    // frame checksum must be computed over the (empty) frame payload so
    // sender and receiver agree — this used to NACK forever.
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::cray());
    rt.set_robust_config(robust_on());
    rt.run([](Comm& world) {
        HierComm hc(world);
        GatherChannel g(hc, 0, /*root=*/0);
        g.run();
        AllgatherChannel ag(hc, 0);
        ag.run();
        EXPECT_FALSE(ag.degraded_flat());
    });
    EXPECT_EQ(rt.total_robust_stats().flat_downgrades, 0u);
}

TEST(Robust, ExtraChannelsRecoverOverTheBridge) {
    constexpr std::size_t kCount = 32;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.set_robust_config(robust_on());
    FaultPlan fp;
    fp.seed = 18;
    fp.drop_every = 3;
    fp.scope = FaultScope::RobustFrames;
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        AllreduceChannel ar(hc, kCount, Datatype::Int32);
        std::vector<std::int32_t> in(kCount);
        for (std::size_t i = 0; i < kCount; ++i) {
            in[i] = world.rank() * 100 + static_cast<int>(i);
        }
        // Several rounds: the drop decision is a hash of (seed, src, dst,
        // message sequence), so enough bridge frames must flow for the plan
        // to hit one.
        for (int iter = 0; iter < 4; ++iter) {
            std::memcpy(ar.my_input(), in.data(),
                        kCount * sizeof(std::int32_t));
            ar.run(Op::Sum);
            const auto* out =
                reinterpret_cast<const std::int32_t*>(ar.result());
            for (std::size_t i = 0; i < kCount; ++i) {
                std::int32_t want = 0;
                for (int r = 0; r < world.size(); ++r) {
                    want += r * 100 + static_cast<int>(i);
                }
                ASSERT_EQ(out[i], want) << "iter " << iter << " elem " << i;
            }
        }
    });
    EXPECT_GT(rt.total_robust_stats().recoveries, 0u);
}

TEST(Robust, ChannelUidAgreesAcrossMemberHistories) {
    // Ranks 0-2 build a channel on a sub-comm first; the world channel that
    // follows must still get one uid on every member, or the members'
    // generation stamps differ and DATA frames are discarded as stale.
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::test());
    std::vector<std::uint64_t> uids(6, ~0ULL);
    rt.run([&](Comm& world) {
        const Comm sub = world.split(world.rank() < 3 ? 0 : kUndefined);
        if (sub.valid()) robust::alloc_channel_uid(sub);
        const std::uint64_t uid = robust::alloc_channel_uid(world);
        std::vector<std::uint64_t> all(static_cast<std::size_t>(world.size()));
        allgather(world, &uid, 1, all.data(), Datatype::UInt64);
        if (world.rank() == 0) uids = all;
    });
    for (int r = 0; r < 6; ++r) {
        EXPECT_EQ(uids[static_cast<std::size_t>(r)], uids[0]) << "rank " << r;
    }
}

// ---------------------------------------------------------------------------
// Degradation ladder, rung 1: Flags -> Barrier
// ---------------------------------------------------------------------------

TEST(Robust, RepeatedFlagDivergenceDowngradesToBarrier) {
    // Rank 0 (a node leader) gets 80us of injected send delay while the
    // watchdog deadline is 0.5us: every flag release round on the remote
    // node arrives late, trips the watchdog, and after sync_trip_limit
    // consecutive trips the node flips Flags -> Barrier for good.
    constexpr std::size_t kBlock = 32;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    RobustConfig cfg = robust_on();
    cfg.watchdog_us = 0.5;
    rt.set_robust_config(cfg);
    FaultPlan fp;
    fp.seed = 19;
    fp.rank_delay_us = 80.0;
    fp.delayed_ranks = {0};
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, kBlock);
        for (int iter = 0; iter < 6; ++iter) {
            fill_pattern(ch.my_block(), world.rank() + iter, kBlock);
            ch.run(SyncPolicy::Flags);
            for (int r = 0; r < world.size(); ++r) {
                expect_pattern(ch.block_of(r), r + iter, kBlock, "flag sync");
            }
            ch.quiesce(SyncPolicy::Flags);
        }
    });
    const RobustStats total = rt.total_robust_stats();
    EXPECT_GE(total.sync_trips, 3u);
    EXPECT_GE(total.sync_downgrades, 1u);
}

// ---------------------------------------------------------------------------
// Determinism under recovery + the zero fast-path guarantee
// ---------------------------------------------------------------------------

TEST(Robust, RecoveryIsDeterministic) {
    // Same seed, same plan, same config: retry counts, downgrade decisions
    // and virtual clocks must repeat bit for bit.
    auto run_once = [](std::vector<VTime>* clocks,
                       std::vector<RobustStats>* stats) {
        Runtime rt(ClusterSpec::irregular({3, 2, 2}), ModelParams::cray());
        rt.set_robust_config(robust_on());
        FaultPlan fp;
        fp.seed = 20;
        fp.drop_every = 3;
        fp.corrupt_every = 7;
        fp.dup_every = 5;
        fp.max_jitter_us = 1.7;
        fp.scope = FaultScope::RobustFrames;
        rt.set_fault_plan(fp);
        *clocks = rt.run([](Comm& world) {
            HierComm hc(world);
            AllgatherChannel ag(hc, 512);
            BcastChannel bc(hc, 256);
            for (int i = 0; i < 3; ++i) {
                ag.run();
                ag.quiesce();
                bc.run(i % world.size());
            }
        });
        *stats = rt.last_robust_stats();
    };
    std::vector<VTime> c1, c2;
    std::vector<RobustStats> s1, s2;
    run_once(&c1, &s1);
    run_once(&c2, &s2);
    ASSERT_EQ(c1.size(), c2.size());
    for (std::size_t r = 0; r < c1.size(); ++r) {
        EXPECT_EQ(c1[r], c2[r]) << "clock, rank " << r;
        EXPECT_EQ(s1[r], s2[r]) << "robust stats, rank " << r;
    }
    // And the faults were actually exercised, not absent.
    RobustStats agg;
    for (const RobustStats& s : s1) agg += s;
    EXPECT_GT(agg.retries, 0u);
}

TEST(Robust, DisabledRobustnessLeavesFastPathUntouched) {
    // With robustness off, a fault plan scoped to robust frames has nothing
    // to hit: virtual clocks are bit-identical to a fault-free run and no
    // counter moves — the zero fast-path regression guarantee.
    auto body = [](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, 2048);
        for (int i = 0; i < 3; ++i) {
            ch.run();
            ch.quiesce();
        }
    };
    Runtime plain(ClusterSpec::regular(3, 3), ModelParams::cray());
    plain.set_robust_config(robust_off());
    const auto base = plain.run(body);

    Runtime faulted(ClusterSpec::regular(3, 3), ModelParams::cray());
    faulted.set_robust_config(robust_off());
    FaultPlan fp;
    fp.seed = 21;
    fp.drop_every = 1;
    fp.corrupt_every = 1;
    fp.dup_every = 1;
    fp.scope = FaultScope::RobustFrames;
    faulted.set_fault_plan(fp);
    const auto clocks = faulted.run(body);

    ASSERT_EQ(base.size(), clocks.size());
    for (std::size_t r = 0; r < base.size(); ++r) {
        EXPECT_DOUBLE_EQ(base[r], clocks[r]) << "rank " << r;
    }
    EXPECT_FALSE(faulted.total_robust_stats().any());
}

// ---------------------------------------------------------------------------
// Fault-injected conformance sweep (satellite: byte-identity under faults)
// ---------------------------------------------------------------------------

TEST(Robust, ConformanceSweepRecoversAndStaysByteIdentical) {
    // Every generated robust case runs hybrid vs flat under injected
    // drop/corrupt/dup (and occasional SHM allocation failure), twice, and
    // must match the flat reference byte for byte with repeatable stats.
    const std::uint64_t seed = 0x0B05717ULL;
    hympi::RobustStats agg;
    int robust_cases = 0;
    for (int i = 0; i < 200 && robust_cases < 24; ++i) {
        const conformance::CaseSpec spec = conformance::generate_case(seed, i);
        if (!spec.robust) continue;
        ++robust_cases;
        const conformance::CaseResult res = conformance::run_case_checked(spec);
        ASSERT_TRUE(res.ok) << spec.describe() << "\n  " << res.detail;
        for (const hympi::RobustStats& s : res.robust_stats) agg += s;
    }
    EXPECT_GE(robust_cases, 10);
    // The sweep must have actually recovered injected faults somewhere.
    EXPECT_GT(agg.recoveries, 0u);
    EXPECT_GT(agg.retries + agg.timeouts + agg.checksum_failures, 0u);
}
