// Chunked single-copy pipeline engine: plan geometry (including the 0-byte
// clamp in front of the tuned-table log-rounding), byte-equality of the
// pipelined channels against their flat pure-MPI references, clock
// determinism and the large-message crossover, single-node degradation,
// robust-mode interop under fault injection, and the per-chunk counter
// attribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "hybrid/hympi.h"

using namespace minimpi;
using namespace hympi;

// ---- plan geometry ------------------------------------------------------

TEST(PipelinePlan, ResolveClampsZeroBytesToSmallestSize) {
    // Satellite fix: a 0-byte query has no geometric position on the tuned
    // table's log-rounded size axis — it must resolve exactly like 1 byte,
    // with a tuned profile (cray) and with the legacy threshold (test).
    for (const ModelParams& params :
         {ModelParams::cray(), ModelParams::test()}) {
        Runtime rt(ClusterSpec::regular(2, 8, Placement::Smp, 2), params,
                   PayloadMode::SizeOnly);
        rt.run([](Comm& world) {
            HierComm hc(world);
            SocketStager st(hc);
            EXPECT_EQ(st.resolve(SocketStaging::Auto, 0),
                      st.resolve(SocketStaging::Auto, 1));
            // Forced modes are byte-independent; Pipelined resolves to its
            // leaf mode (Staged while the socket model applies).
            EXPECT_EQ(st.resolve(SocketStaging::Pipelined, 0),
                      SocketStaging::Staged);
            // A 0-byte round never engages the chunked path.
            EXPECT_FALSE(
                st.plan(SocketStaging::Pipelined, 0, true, 0).pipelined);
            barrier(world);
        });
    }
}

TEST(PipelinePlan, ChunkClampAndGating) {
    Runtime rt(ClusterSpec::regular(2, 8, Placement::Smp, 2),
               ModelParams::test(), PayloadMode::SizeOnly);
    rt.run([](Comm& world) {
        HierComm hc(world);
        SocketStager st(hc);
        // Chunk override is clamped to [64, bytes].
        PipelinePlan p = st.plan(SocketStaging::Pipelined, 100, true, 8);
        EXPECT_TRUE(p.pipelined);
        EXPECT_EQ(p.chunk_bytes, 64u);
        p = st.plan(SocketStaging::Pipelined, 100, true, 1 << 20);
        EXPECT_EQ(p.chunk_bytes, 100u);
        // No override and no tuned entry (test profile): the default size.
        p = st.plan(SocketStaging::Pipelined, 1 << 20, true, 0);
        EXPECT_EQ(p.chunk_bytes, kDefaultChunkBytes);
        // Single-node rounds and non-pipelined modes never chunk; Auto
        // without a tuned ChunkSize row never chunks either.
        EXPECT_FALSE(
            st.plan(SocketStaging::Pipelined, 4096, false, 0).pipelined);
        EXPECT_FALSE(st.plan(SocketStaging::Staged, 1 << 20, true, 0)
                         .pipelined);
        EXPECT_FALSE(st.plan(SocketStaging::Auto, 1 << 20, true, 0)
                         .pipelined);
        // Staging slices are whole-node: multi-leader hierarchies fall
        // back to the whole-message modes.
        HierComm two(world, 2);
        SocketStager st2(two);
        EXPECT_FALSE(
            st2.plan(SocketStaging::Pipelined, 1 << 20, true, 0).pipelined);
        barrier(world);
    });
}

// ---- byte equality against the flat references --------------------------

TEST(PipelineBytes, BcastMatchesFlatReference) {
    // Odd payload (5 chunks of 1024, last one 1 byte) on an irregular
    // 2-node, 2-socket topology; roots on both nodes.
    Runtime rt(ClusterSpec::irregular({5, 3}, Placement::Smp, 2),
               ModelParams::test());
    rt.run([](Comm& world) {
        HierComm hc(world);
        const std::size_t bytes = 4097;
        BcastChannel ch(hc, bytes);
        ch.set_socket_staging(SocketStaging::Pipelined);
        ch.set_chunk_bytes(1024);
        std::vector<std::byte> want(bytes);
        for (const int root : {0, world.size() - 1}) {
            for (std::size_t i = 0; i < bytes; ++i) {
                want[i] = static_cast<std::byte>(
                    (root * 151 + static_cast<int>(i)) & 0xFF);
            }
            if (world.rank() == root) {
                std::memcpy(ch.write_buffer(), want.data(), bytes);
            }
            ch.run(root);
            EXPECT_EQ(std::memcmp(ch.read_buffer(), want.data(), bytes), 0)
                << "rank " << world.rank() << " root " << root;
        }
        barrier(world);
    });
}

TEST(PipelineBytes, AllgatherMatchesFlatReference) {
    Runtime rt(ClusterSpec::irregular({5, 3}, Placement::Smp, 2),
               ModelParams::test());
    rt.run([](Comm& world) {
        HierComm hc(world);
        const std::size_t bb = 997;  // 4 tapered passes of 256
        AllgatherChannel ch(hc, bb);
        ch.set_socket_staging(SocketStaging::Pipelined);
        ch.set_chunk_bytes(256);
        std::vector<std::byte> mine(bb);
        std::vector<std::byte> ref(bb * static_cast<std::size_t>(world.size()));
        for (std::size_t i = 0; i < bb; ++i) {
            mine[i] = static_cast<std::byte>(
                (world.rank() * 37 + static_cast<int>(i)) & 0xFF);
        }
        std::memcpy(ch.my_block(), mine.data(), bb);
        ch.run();
        allgather(world, mine.data(), bb, ref.data(), Datatype::Byte);
        for (int r = 0; r < world.size(); ++r) {
            EXPECT_EQ(std::memcmp(ch.block_of(r),
                                  ref.data() +
                                      static_cast<std::size_t>(r) * bb,
                                  bb),
                      0)
                << "rank " << world.rank() << " block " << r;
        }
        barrier(world);
    });
}

TEST(PipelineBytes, AllgathervTaperedChunksMatchFlat) {
    // Wildly uneven blocks (zero-length ones included): pass lengths taper
    // as short node blocks run dry, exercising the per-chunk length vector.
    Runtime rt(ClusterSpec::irregular({5, 3}, Placement::Smp, 2),
               ModelParams::test());
    rt.run([](Comm& world) {
        HierComm hc(world);
        const std::vector<std::size_t> counts = {0, 1500, 3, 997,
                                                 0, 4096, 64, 7};
        std::vector<std::size_t> displs(counts.size());
        std::size_t total = 0;
        for (std::size_t r = 0; r < counts.size(); ++r) {
            displs[r] = total;
            total += counts[r];
        }
        AllgatherChannel ch(hc, counts);
        ch.set_socket_staging(SocketStaging::Pipelined);
        ch.set_chunk_bytes(512);
        const std::size_t mb = counts[static_cast<std::size_t>(world.rank())];
        std::vector<std::byte> mine(mb);
        std::vector<std::byte> ref(total);
        for (std::size_t i = 0; i < mb; ++i) {
            mine[i] = static_cast<std::byte>(
                (world.rank() * 53 + static_cast<int>(i)) & 0xFF);
        }
        if (mb > 0) std::memcpy(ch.my_block(), mine.data(), mb);
        ch.run();
        allgatherv(world, mine.data(), mb, ref.data(), counts, displs,
                   Datatype::Byte);
        for (int r = 0; r < world.size(); ++r) {
            const auto rr = static_cast<std::size_t>(r);
            EXPECT_EQ(std::memcmp(ch.block_of(r), ref.data() + displs[rr],
                                  counts[rr]),
                      0)
                << "rank " << world.rank() << " block " << r;
        }
        barrier(world);
    });
}

TEST(PipelineBytes, AllreduceXbrcMatchesFlat) {
    // The XBRC-style chunked reduction: leaf ranks reduce their stripe of
    // each chunk directly into the node result and the leader bridges the
    // chunk as soon as its ready flags land.
    Runtime rt(ClusterSpec::regular(2, 6, Placement::Smp, 2),
               ModelParams::test());
    rt.run([](Comm& world) {
        HierComm hc(world);
        const std::size_t count = 1001;  // 8 chunks of 128 elements
        AllreduceChannel ch(hc, count, Datatype::Int64);
        ch.set_socket_staging(SocketStaging::Pipelined);
        ch.set_chunk_bytes(1024);
        std::vector<std::int64_t> mine(count), ref(count);
        for (std::size_t i = 0; i < count; ++i) {
            mine[i] = world.rank() * 1000 + static_cast<int>(i);
        }
        std::memcpy(ch.my_input(), mine.data(), count * 8);
        ch.run(minimpi::Op::Sum);
        allreduce(world, mine.data(), ref.data(), count, Datatype::Int64,
                  minimpi::Op::Sum);
        EXPECT_EQ(std::memcmp(ch.result(), ref.data(), count * 8), 0)
            << "rank " << world.rank();
        barrier(world);
    });
}

// ---- irregular multi-socket clusters: one rank-uniform round shape -------

TEST(PipelineUniform, IrregularTwoSocketShapeAgreesAcrossNodes) {
    // Nodes of different populations must agree on the bridge op: a shape
    // keyed by each node's own population let the 12-rank nodes pipeline
    // while the 8-rank node ran the whole-message exchange, and the leaders
    // waited on each other forever. Every rank's plan must be identical,
    // and every channel's bytes must match the flat reference.
    const ClusterSpec cluster =
        ClusterSpec::irregular({12, 12, 12, 12, 12, 8}, Placement::Smp, 2);
    for (const ModelParams& params :
         {ModelParams::cray(), ModelParams::openmpi()}) {
        Runtime rt(cluster, params);
        rt.run([](Comm& world) {
            HierComm hc(world);
            SocketStager st(hc);
            const auto p = static_cast<std::size_t>(world.size());
            auto expect_uniform = [&](SocketStaging mode, std::size_t bytes) {
                const PipelinePlan pp = st.plan(mode, bytes, true, 0);
                const std::uint64_t mine[2] = {pp.pipelined ? 1u : 0u,
                                               pp.chunk_bytes};
                std::vector<std::uint64_t> all(2 * p);
                allgather(world, mine, 2, all.data(), Datatype::UInt64);
                for (std::size_t r = 0; r < p; ++r) {
                    ASSERT_EQ(all[2 * r], mine[0]) << "rank " << r;
                    ASSERT_EQ(all[2 * r + 1], mine[1]) << "rank " << r;
                }
            };
            for (const SocketStaging mode :
                 {SocketStaging::Auto, SocketStaging::Pipelined}) {
                for (std::size_t bb = 8; bb <= 64 * 1024; bb *= 2) {
                    std::vector<std::byte> mine(bb);
                    for (std::size_t i = 0; i < bb; ++i) {
                        mine[i] = static_cast<std::byte>(
                            (world.rank() * 29 + static_cast<int>(i)) & 0xFF);
                    }
                    std::vector<std::byte> ref(bb * p);
                    allgather(world, mine.data(), bb, ref.data(),
                              Datatype::Byte);

                    expect_uniform(mode, bb * p);
                    AllgatherChannel ag(hc, bb);
                    ag.set_socket_staging(mode);
                    std::memcpy(ag.my_block(), mine.data(), bb);
                    ag.run();
                    for (int r = 0; r < world.size(); ++r) {
                        ASSERT_EQ(std::memcmp(ag.block_of(r),
                                              ref.data() +
                                                  static_cast<std::size_t>(r) *
                                                      bb,
                                              bb),
                                  0)
                            << "allgather bb " << bb << " block " << r;
                    }

                    expect_uniform(mode, bb);
                    BcastChannel bc(hc, bb);
                    bc.set_socket_staging(mode);
                    const int root = world.size() - 1;
                    if (world.rank() == root) {
                        std::memcpy(bc.write_buffer(), ref.data() + root * bb,
                                    bb);
                    }
                    bc.run(root);
                    ASSERT_EQ(std::memcmp(bc.read_buffer(),
                                          ref.data() + root * bb, bb),
                              0)
                        << "bcast bytes " << bb;

                    const std::size_t n = bb / 8;
                    std::vector<std::int64_t> in(n), sum(n);
                    for (std::size_t i = 0; i < n; ++i) {
                        in[i] = world.rank() * 7 + static_cast<int>(i);
                    }
                    allreduce(world, in.data(), sum.data(), n,
                              Datatype::Int64, minimpi::Op::Sum);
                    expect_uniform(mode, bb);
                    AllreduceChannel ar(hc, n, Datatype::Int64);
                    ar.set_socket_staging(mode);
                    std::memcpy(ar.my_input(), in.data(), bb);
                    ar.run(minimpi::Op::Sum);
                    ASSERT_EQ(std::memcmp(ar.result(), sum.data(), bb), 0)
                        << "allreduce bytes " << bb;
                    barrier(world);
                }
            }
        });
    }
}

// ---- clocks: determinism, crossover, degradation ------------------------

namespace {

std::vector<VTime> bcast_clocks(const ClusterSpec& cluster,
                                SocketStaging staging, std::size_t bytes,
                                std::size_t chunk = 0) {
    Runtime rt(cluster, ModelParams::cray(), PayloadMode::SizeOnly);
    return rt.run([=](Comm& world) {
        HierComm hc(world);
        BcastChannel ch(hc, bytes);
        ch.set_socket_staging(staging);
        ch.set_chunk_bytes(chunk);
        for (int it = 0; it < 2; ++it) ch.run(0);
    });
}

}  // namespace

TEST(PipelineClocks, DeterministicAndBeatsStagedAtLargeSizes) {
    const ClusterSpec c = ClusterSpec::regular(2, 8, Placement::Smp, 2);
    const std::size_t bytes = 256 * 1024;
    const auto pipe = bcast_clocks(c, SocketStaging::Pipelined, bytes);
    EXPECT_EQ(pipe, bcast_clocks(c, SocketStaging::Pipelined, bytes));
    const auto staged = bcast_clocks(c, SocketStaging::Staged, bytes);
    EXPECT_LT(*std::max_element(pipe.begin(), pipe.end()),
              *std::max_element(staged.begin(), staged.end()));
}

TEST(PipelineClocks, SingleNodeDegradesToStagedExactly) {
    // plan() refuses single-node rounds; forced Pipelined must cost exactly
    // what forced Staged costs — bit-identical clocks.
    const ClusterSpec c = ClusterSpec::regular(1, 8, Placement::Smp, 2);
    EXPECT_EQ(bcast_clocks(c, SocketStaging::Pipelined, 64 * 1024),
              bcast_clocks(c, SocketStaging::Staged, 64 * 1024));
}

TEST(PipelineClocks, AutoWithoutTunedTableKeepsPrePipelineClocks) {
    // The test profile has no decision table: Auto must never pipeline, so
    // it costs exactly what the legacy whole-message resolution costs (the
    // size threshold picks Staged at 256 KiB on 2-socket nodes).
    Runtime a(ClusterSpec::regular(2, 8, Placement::Smp, 2),
              ModelParams::test(), PayloadMode::SizeOnly);
    Runtime b(ClusterSpec::regular(2, 8, Placement::Smp, 2),
              ModelParams::test(), PayloadMode::SizeOnly);
    auto body = [](SocketStaging staging) {
        return [staging](Comm& world) {
            HierComm hc(world);
            BcastChannel ch(hc, 256 * 1024);
            ch.set_socket_staging(staging);
            ch.run(0);
        };
    };
    EXPECT_EQ(a.run(body(SocketStaging::Auto)),
              b.run(body(SocketStaging::Staged)));
}

// ---- robust interop ------------------------------------------------------

TEST(PipelineRobust, PerChunkFlagsSurviveFaultInjection) {
    // Drop/corrupt/duplicate robust frames while the pipelined path moves
    // per-chunk generation-stamped transfers: every chunk must be recovered
    // transparently and the result still match the flat reference.
    FaultPlan faults;
    faults.seed = 0xC0FFEE;
    faults.scope = FaultScope::RobustFrames;
    faults.drop_every = 3;
    faults.corrupt_every = 5;
    faults.dup_every = 9;
    Runtime rt(ClusterSpec::regular(2, 4, Placement::Smp, 2),
               ModelParams::test());
    rt.set_fault_plan(faults);
    RobustConfig rc;
    rc.enabled = true;
    rc.retry_max = 16;
    rt.set_robust_config(rc);
    rt.run([](Comm& world) {
        HierComm hc(world);
        const std::size_t bytes = 2048;
        BcastChannel bc(hc, bytes);
        bc.set_socket_staging(SocketStaging::Pipelined);
        bc.set_chunk_bytes(512);
        std::vector<std::byte> want(bytes);
        for (std::size_t i = 0; i < bytes; ++i) {
            want[i] = static_cast<std::byte>((7 * i + 3) & 0xFF);
        }
        if (world.rank() == 0) {
            std::memcpy(bc.write_buffer(), want.data(), bytes);
        }
        bc.run(0);
        EXPECT_EQ(std::memcmp(bc.read_buffer(), want.data(), bytes), 0)
            << "rank " << world.rank();

        const std::size_t bb = 700;
        AllgatherChannel ag(hc, bb);
        ag.set_socket_staging(SocketStaging::Pipelined);
        ag.set_chunk_bytes(512);
        std::vector<std::byte> mine(bb);
        std::vector<std::byte> ref(bb * static_cast<std::size_t>(world.size()));
        for (std::size_t i = 0; i < bb; ++i) {
            mine[i] = static_cast<std::byte>(
                (world.rank() * 91 + static_cast<int>(i)) & 0xFF);
        }
        std::memcpy(ag.my_block(), mine.data(), bb);
        ag.run();
        allgather(world, mine.data(), bb, ref.data(), Datatype::Byte);
        for (int r = 0; r < world.size(); ++r) {
            EXPECT_EQ(std::memcmp(ag.block_of(r),
                                  ref.data() +
                                      static_cast<std::size_t>(r) * bb,
                                  bb),
                      0)
                << "rank " << world.rank() << " block " << r;
        }
        barrier(world);
    });
    // The injected faults actually hit robust frames (recoveries happened).
    std::uint64_t retries = 0;
    for (const auto& s : rt.last_robust_stats()) retries += s.retries;
    EXPECT_GT(retries, 0u);
}

// ---- chunk counter attribution ------------------------------------------

TEST(PipelineCounters, EveryRankCountsItsChunks) {
    RunOptions opts;
    opts.spans = true;
    Runtime rt(ClusterSpec::regular(2, 8, Placement::Smp, 2),
               ModelParams::cray(), PayloadMode::SizeOnly, opts);
    rt.run([](Comm& world) {
        HierComm hc(world);
        BcastChannel ch(hc, 64 * 1024);
        ch.set_socket_staging(SocketStaging::Pipelined);
        ch.set_chunk_bytes(16 * 1024);
        ch.run(0);
    });
    // 4 chunks, counted once per rank: the 2 primary leaders at their
    // bridge exchange, the 14 other ranks in their consume loop.
    EXPECT_EQ(rt.total_span_counters().chunks, 16u * 4u);
    // The leader's bridge span carries the chunk count for trace_report.
    bool saw_chunked_span = false;
    for (const auto& rank_trace : rt.last_span_traces()) {
        for (const auto& s : rank_trace.spans) {
            if (s.chunks > 0) {
                saw_chunked_span = true;
                EXPECT_EQ(s.chunks, 4);
            }
        }
    }
    EXPECT_TRUE(saw_chunked_span);
}
