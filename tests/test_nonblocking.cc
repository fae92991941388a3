// Semantics and virtual-time pin of the nonblocking / persistent
// collectives (icoll.h): posted-order independence, out-of-order waits,
// zero-cost Test polling, mixed-kind Waitall, persistent reuse, the
// overlap law elapsed == max(compute, comm), and the equivalence pin
// X == IX == X_init under forced immediate wait (bytes, clocks AND trace
// counter totals, across both vendor profiles and 1/2-socket nodes).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "hybrid/hympi.h"
#include "minimpi/minimpi.h"

using namespace minimpi;

namespace {

void fill(std::byte* p, std::size_t n, int seed) {
    for (std::size_t i = 0; i < n; ++i) {
        p[i] = static_cast<std::byte>((seed * 131 + static_cast<int>(i) * 7 +
                                       3) &
                                      0xFF);
    }
}

void expect_block(const std::byte* p, std::size_t n, int seed) {
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(p[i], static_cast<std::byte>(
                            (seed * 131 + static_cast<int>(i) * 7 + 3) & 0xFF))
            << "offset " << i << " seed " << seed;
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Data correctness: Waitall over one request of every supported kind.
// ---------------------------------------------------------------------------
TEST(Nonblocking, WaitallMixedKindsDataCorrect) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray());
    rt.run([](Comm& world) {
        const int p = world.size();
        const int r = world.rank();
        const std::size_t bb = 96;

        std::vector<std::byte> bcast_buf(bb);
        if (r == 1) fill(bcast_buf.data(), bb, 1000);

        std::vector<std::byte> ag_in(bb), ag_out(bb * world.size());
        fill(ag_in.data(), bb, r);

        std::vector<std::size_t> counts(static_cast<std::size_t>(p));
        std::vector<std::size_t> displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] =
                16 + 8 * static_cast<std::size_t>(i);
        }
        std::partial_sum(counts.begin(), counts.end() - 1, displs.begin() + 1);
        const std::size_t total =
            displs.back() + counts.back();
        std::vector<std::byte> agv_in(counts[static_cast<std::size_t>(r)]);
        std::vector<std::byte> agv_out(total);
        fill(agv_in.data(), agv_in.size(), 500 + r);

        std::vector<double> red_in(64), red_out(64);
        for (std::size_t i = 0; i < red_in.size(); ++i) {
            red_in[i] = static_cast<double>(r + 1) * static_cast<double>(i);
        }

        CollRequest reqs[] = {
            ibarrier(world),
            ibcast(world, bcast_buf.data(), bb, Datatype::Byte, 1),
            iallgather(world, ag_in.data(), bb, ag_out.data(), Datatype::Byte),
            iallgatherv(world, agv_in.data(), agv_in.size(), agv_out.data(),
                        counts, displs, Datatype::Byte),
            iallreduce(world, red_in.data(), red_out.data(), red_in.size(),
                       Datatype::Double, Op::Sum),
        };
        wait_all(std::span<CollRequest>(reqs));

        expect_block(bcast_buf.data(), bb, 1000);
        for (int i = 0; i < p; ++i) {
            expect_block(ag_out.data() + static_cast<std::size_t>(i) * bb, bb,
                         i);
            expect_block(agv_out.data() + displs[static_cast<std::size_t>(i)],
                         counts[static_cast<std::size_t>(i)], 500 + i);
        }
        const double rank_sum = static_cast<double>(p) *
                                static_cast<double>(p + 1) / 2.0;
        for (std::size_t i = 0; i < red_out.size(); ++i) {
            ASSERT_DOUBLE_EQ(red_out[i], rank_sum * static_cast<double>(i));
        }
    });
}

// ---------------------------------------------------------------------------
// Posted-order independence: two outstanding allreduces waited in OPPOSITE
// orders on different ranks. Without the progress rule (a Wait drives every
// outstanding request, not just its target) the multi-round protocols would
// deadlock: each rank would sit inside an operation whose peers are stalled
// in the other one.
// ---------------------------------------------------------------------------
TEST(Nonblocking, OutOfOrderWaitOppositeOrders) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.run([](Comm& world) {
        const int p = world.size();
        const int r = world.rank();
        // Large enough to select multi-round (ring) algorithms.
        const std::size_t n = 8192;
        std::vector<double> a_in(n), a_out(n), b_in(n), b_out(n);
        for (std::size_t i = 0; i < n; ++i) {
            a_in[i] = static_cast<double>(r + 1);
            b_in[i] = static_cast<double>(r * 10 + static_cast<int>(i % 7));
        }
        CollRequest ra = iallreduce(world, a_in.data(), a_out.data(), n,
                                    Datatype::Double, Op::Sum);
        CollRequest rb = iallreduce(world, b_in.data(), b_out.data(), n,
                                    Datatype::Double, Op::Max);
        if (r % 2 == 0) {
            ra.wait();
            rb.wait();
        } else {
            rb.wait();
            ra.wait();
        }
        const double sum = static_cast<double>(p) *
                           static_cast<double>(p + 1) / 2.0;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_DOUBLE_EQ(a_out[i], sum);
            ASSERT_DOUBLE_EQ(b_out[i],
                             static_cast<double>((p - 1) * 10 +
                                                 static_cast<int>(i % 7)));
        }
        barrier(world);
    });
}

// ---------------------------------------------------------------------------
// A blocking collective issued while a nonblocking one is outstanding must
// keep the outstanding one progressing (MPI progress rule inside blocking
// transport waits) — and both must deliver correct data.
// ---------------------------------------------------------------------------
TEST(Nonblocking, BlockingCollectiveWhileOutstanding) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::openmpi());
    rt.run([](Comm& world) {
        const int p = world.size();
        const int r = world.rank();
        const std::size_t bb = 256;
        std::vector<std::byte> in(bb), out(bb * world.size());
        fill(in.data(), bb, 70 + r);
        CollRequest rq =
            iallgather(world, in.data(), bb, out.data(), Datatype::Byte);

        std::vector<double> red(128, static_cast<double>(r));
        allreduce(world, kInPlace, red.data(), red.size(), Datatype::Double,
                  Op::Sum);

        rq.wait();
        for (int i = 0; i < p; ++i) {
            expect_block(out.data() + static_cast<std::size_t>(i) * bb, bb,
                         70 + i);
        }
        const double sum = static_cast<double>(p) *
                           static_cast<double>(p - 1) / 2.0;
        for (double v : red) ASSERT_DOUBLE_EQ(v, sum);
    });
}

// ---------------------------------------------------------------------------
// Test() polling charges nothing: a run that spins on test() until
// completion ends with bit-identical virtual clocks to one that calls
// wait() immediately.
// ---------------------------------------------------------------------------
TEST(Nonblocking, TestPollingNeverSpinsVirtualTime) {
    auto run_once = [](bool poll) {
        Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
        return rt.run([poll](Comm& world) {
            const std::size_t bb = 4096;
            std::vector<std::byte> in(bb), out(bb * world.size());
            fill(in.data(), bb, world.rank());
            CollRequest rq =
                iallgather(world, in.data(), bb, out.data(), Datatype::Byte);
            if (poll) {
                while (!rq.test()) {
                }
            }
            rq.wait();
        });
    };
    const std::vector<VTime> waited = run_once(false);
    const std::vector<VTime> polled = run_once(true);
    ASSERT_EQ(waited.size(), polled.size());
    for (std::size_t i = 0; i < waited.size(); ++i) {
        EXPECT_EQ(waited[i], polled[i]) << "rank " << i;
    }
}

// ---------------------------------------------------------------------------
// Persistent collectives: reuse after wait, with fresh data every round;
// start on an active request throws; wait on an inactive one is a no-op.
// ---------------------------------------------------------------------------
TEST(Nonblocking, PersistentReuseAfterWait) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.run([](Comm& world) {
        const int p = world.size();
        const int r = world.rank();
        const std::size_t bb = 128;
        std::vector<std::byte> in(bb), out(bb * world.size());
        PersistentColl pc = PersistentColl::allgather_init(
            world, in.data(), bb, out.data(), Datatype::Byte);
        ASSERT_TRUE(pc.valid());
        ASSERT_FALSE(pc.active());
        ASSERT_TRUE(pc.test());  // inactive request: MPI reports complete
        pc.wait();               // inactive wait: no-op

        for (int round = 0; round < 3; ++round) {
            fill(in.data(), bb, 300 + 17 * round + r);
            pc.start();
            ASSERT_TRUE(pc.active());
            EXPECT_THROW(pc.start(), RequestError);
            pc.wait();
            ASSERT_FALSE(pc.active());
            for (int i = 0; i < p; ++i) {
                expect_block(out.data() + static_cast<std::size_t>(i) * bb,
                             bb, 300 + 17 * round + i);
            }
        }
        barrier(world);
    });
}

// ---------------------------------------------------------------------------
// Overlap law: posting a collective, computing, then waiting must cost
// exactly max(compute, comm) — communication runs on the request's
// sub-clock concurrently with compute on the main clock. Swept over a
// seeded grid of compute/comm ratios and both vendor profiles.
// ---------------------------------------------------------------------------
TEST(Nonblocking, OverlapLawElapsedIsMaxOfComputeAndComm) {
    for (const bool cray : {true, false}) {
        const ModelParams model =
            cray ? ModelParams::cray() : ModelParams::openmpi();
        const ClusterSpec cluster = ClusterSpec::regular(2, 2);
        const std::size_t bb = 1 << 16;

        // Per-rank pure communication time (zero interleaved compute).
        std::vector<VTime> comm_us(static_cast<std::size_t>(
            cluster.total_ranks()));
        {
            Runtime rt(cluster, model);
            rt.run([&](Comm& world) {
                std::vector<std::byte> in(bb), out(bb * world.size());
                fill(in.data(), bb, world.rank());
                barrier(world);  // warms caches; aligns the measurement
                const VTime t0 = world.ctx().clock.now();
                CollRequest rq = iallgather(world, in.data(), bb, out.data(),
                                            Datatype::Byte);
                rq.wait();
                comm_us[static_cast<std::size_t>(world.to_world())] =
                    world.ctx().clock.now() - t0;
            });
        }
        const VTime comm_max =
            *std::max_element(comm_us.begin(), comm_us.end());
        ASSERT_GT(comm_max, 0.0);

        for (const double ratio : {0.0, 0.25, 0.5, 1.0, 1.75, 3.0}) {
            const double flops =
                ratio * comm_max * model.flops_per_us;
            const VTime compute_us = flops / model.flops_per_us;
            Runtime rt(cluster, model);
            rt.run([&](Comm& world) {
                std::vector<std::byte> in(bb), out(bb * world.size());
                fill(in.data(), bb, world.rank());
                barrier(world);
                const VTime t0 = world.ctx().clock.now();
                CollRequest rq = iallgather(world, in.data(), bb, out.data(),
                                            Datatype::Byte);
                world.ctx().charge_flops(flops);
                rq.wait();
                const VTime elapsed = world.ctx().clock.now() - t0;
                const VTime expected = std::max(
                    compute_us,
                    comm_us[static_cast<std::size_t>(world.to_world())]);
                EXPECT_NEAR(elapsed, expected, 1e-6 * (1.0 + expected))
                    << "profile " << (cray ? "cray" : "openmpi") << " ratio "
                    << ratio << " rank " << world.to_world();
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Equivalence pin (forced immediate wait): every collective X, its
// nonblocking IX and its persistent X_init/start/wait produce byte-identical
// buffers, bit-identical virtual clocks and identical trace-counter totals
// (bridge/shm/xsocket bytes), across both vendor profiles and 1/2-socket
// nodes. This pins the engine's promise that the sub-clock discipline
// replays the blocking charging exactly.
// ---------------------------------------------------------------------------
namespace {

enum class Exec { Block, Nonblock, Persist };
enum class Kind { Barrier, Bcast, Allgather, Allgatherv, Allreduce };

struct PinResult {
    std::vector<VTime> clocks;
    hytrace::Counters counters;
    std::vector<std::vector<std::byte>> bufs;  // per world rank
};

PinResult run_pinned(const ClusterSpec& cluster, const ModelParams& model,
                     Kind kind, Exec exec) {
    RunOptions opts;
    opts.spans = true;
    Runtime rt(cluster, model, PayloadMode::Real, opts);
    PinResult res;
    res.bufs.resize(static_cast<std::size_t>(cluster.total_ranks()));
    res.clocks = rt.run([&](Comm& world) {
        const int p = world.size();
        const int r = world.rank();
        const std::size_t bb = 1536;
        std::vector<std::byte> buf;
        switch (kind) {
            case Kind::Barrier: {
                if (exec == Exec::Block) {
                    barrier(world);
                } else if (exec == Exec::Nonblock) {
                    ibarrier(world).wait();
                } else {
                    PersistentColl pc = PersistentColl::barrier_init(world);
                    pc.start();
                    pc.wait();
                }
                break;
            }
            case Kind::Bcast: {
                buf.resize(bb);
                if (r == 0) fill(buf.data(), bb, 42);
                if (exec == Exec::Block) {
                    bcast(world, buf.data(), bb, Datatype::Byte, 0);
                } else if (exec == Exec::Nonblock) {
                    ibcast(world, buf.data(), bb, Datatype::Byte, 0).wait();
                } else {
                    PersistentColl pc = PersistentColl::bcast_init(
                        world, buf.data(), bb, Datatype::Byte, 0);
                    pc.start();
                    pc.wait();
                }
                break;
            }
            case Kind::Allgather: {
                std::vector<std::byte> in(bb);
                fill(in.data(), bb, r);
                buf.resize(bb * static_cast<std::size_t>(p));
                if (exec == Exec::Block) {
                    allgather(world, in.data(), bb, buf.data(),
                              Datatype::Byte);
                } else if (exec == Exec::Nonblock) {
                    iallgather(world, in.data(), bb, buf.data(),
                               Datatype::Byte)
                        .wait();
                } else {
                    PersistentColl pc = PersistentColl::allgather_init(
                        world, in.data(), bb, buf.data(), Datatype::Byte);
                    pc.start();
                    pc.wait();
                }
                break;
            }
            case Kind::Allgatherv: {
                std::vector<std::size_t> counts(static_cast<std::size_t>(p));
                std::vector<std::size_t> displs(static_cast<std::size_t>(p));
                for (int i = 0; i < p; ++i) {
                    counts[static_cast<std::size_t>(i)] =
                        64 + 32 * static_cast<std::size_t>(i % 3);
                }
                std::partial_sum(counts.begin(), counts.end() - 1,
                                 displs.begin() + 1);
                std::vector<std::byte> in(
                    counts[static_cast<std::size_t>(r)]);
                fill(in.data(), in.size(), 800 + r);
                buf.resize(displs.back() + counts.back());
                if (exec == Exec::Block) {
                    allgatherv(world, in.data(), in.size(), buf.data(),
                               counts, displs, Datatype::Byte);
                } else if (exec == Exec::Nonblock) {
                    iallgatherv(world, in.data(), in.size(), buf.data(),
                                counts, displs, Datatype::Byte)
                        .wait();
                } else {
                    PersistentColl pc = PersistentColl::allgatherv_init(
                        world, in.data(), in.size(), buf.data(), counts,
                        displs, Datatype::Byte);
                    pc.start();
                    pc.wait();
                }
                break;
            }
            case Kind::Allreduce: {
                const std::size_t n = 512;
                std::vector<double> in(n), out(n);
                for (std::size_t i = 0; i < n; ++i) {
                    in[i] = static_cast<double>(r + 1) *
                            static_cast<double>(i % 13);
                }
                if (exec == Exec::Block) {
                    allreduce(world, in.data(), out.data(), n,
                              Datatype::Double, Op::Sum);
                } else if (exec == Exec::Nonblock) {
                    iallreduce(world, in.data(), out.data(), n,
                               Datatype::Double, Op::Sum)
                        .wait();
                } else {
                    PersistentColl pc = PersistentColl::allreduce_init(
                        world, in.data(), out.data(), n, Datatype::Double,
                        Op::Sum);
                    pc.start();
                    pc.wait();
                }
                buf.resize(n * sizeof(double));
                std::memcpy(buf.data(), out.data(), buf.size());
                break;
            }
        }
        res.bufs[static_cast<std::size_t>(world.to_world())] = std::move(buf);
    });
    res.counters = rt.total_span_counters();
    return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Hybrid split-phase channels on the engine: start() posts the leaders'
// bridge exchange as an engine task; wait() runs the release sync and the
// on-node copy. Data must stay correct across reused rounds, the persistent
// task must reject a second in-flight round, and under forced immediate
// wait the virtual clocks must match the synchronous split phase exactly.
// ---------------------------------------------------------------------------
TEST(HybridNonblocking, ChannelRoundsDataCorrect) {
    Runtime rt(ClusterSpec::regular(3, 4), ModelParams::cray());
    rt.run([](Comm& world) {
        hympi::HierComm hc(world);
        const std::size_t bb = 96;

        hympi::AllgatherChannel ag(hc, bb);
        for (int round = 0; round < 3; ++round) {
            fill(ag.my_block(), bb, world.rank() + 100 * round);
            minimpi::CollRequest rq = ag.start();
            EXPECT_THROW(ag.start(), RequestError);
            world.ctx().charge_flops(2000.0);
            rq.wait();
            for (int r = 0; r < world.size(); ++r) {
                expect_block(ag.block_of(r), bb, r + 100 * round);
            }
            ag.quiesce();
        }

        hympi::BcastChannel bc(hc, bb);
        for (int round = 0; round < 3; ++round) {
            const int root = round % world.size();
            if (world.rank() == root) {
                fill(bc.write_buffer(), bb, 7000 + round);
            }
            minimpi::CollRequest rq = bc.start(root);
            world.ctx().charge_flops(2000.0);
            rq.wait();
            expect_block(bc.read_buffer(), bb, 7000 + round);
        }

        const std::size_t n = 256;
        hympi::AllreduceChannel ar(hc, n, Datatype::Double);
        for (int round = 0; round < 2; ++round) {
            auto* in = reinterpret_cast<double*>(ar.my_input());
            for (std::size_t i = 0; i < n; ++i) {
                in[i] = static_cast<double>(world.rank() + 1 + round) *
                        static_cast<double>(i % 11);
            }
            minimpi::CollRequest rq = ar.start(Op::Sum);
            world.ctx().charge_flops(2000.0);
            rq.wait();
            const auto* out = reinterpret_cast<const double*>(ar.result());
            double rank_sum = 0.0;
            for (int r = 0; r < world.size(); ++r) {
                rank_sum += static_cast<double>(r + 1 + round);
            }
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_DOUBLE_EQ(out[i],
                                 rank_sum * static_cast<double>(i % 11));
            }
            barrier(world);  // quiesce before the next round's writes
        }
        barrier(world);
    });
}

TEST(HybridNonblocking, StartWaitMatchesSynchronousExactly) {
    // On 1-socket clusters start()+wait() with no interleaved compute
    // replays run() bit-for-bit (same call sites, sub-clock seeded at the
    // same instant; the only split-phase deviation — the flat on-node copy
    // — is inert there).
    auto run_case = [](int kind, bool split) {
        Runtime rt(ClusterSpec::regular(2, 3, Placement::Smp, 1),
                   ModelParams::cray());
        return rt.run([&](Comm& world) {
            hympi::HierComm hc(world);
            const std::size_t bb = 2048;
            if (kind == 0) {
                hympi::AllgatherChannel ch(hc, bb);
                for (int round = 0; round < 2; ++round) {
                    fill(ch.my_block(), bb, world.rank() + round);
                    if (split) {
                        ch.start().wait();
                    } else {
                        ch.run();
                    }
                    ch.quiesce();
                }
            } else if (kind == 1) {
                hympi::BcastChannel ch(hc, bb);
                for (int round = 0; round < 2; ++round) {
                    if (world.rank() == round) {
                        fill(ch.write_buffer(), bb, round);
                    }
                    if (split) {
                        ch.start(round).wait();
                    } else {
                        ch.run(round);
                    }
                }
            } else {
                hympi::AllreduceChannel ch(hc, 128, Datatype::Double);
                auto* in = reinterpret_cast<double*>(ch.my_input());
                for (std::size_t i = 0; i < 128; ++i) {
                    in[i] = static_cast<double>(world.rank());
                }
                if (split) {
                    ch.start(Op::Sum).wait();
                } else {
                    ch.run(Op::Sum);
                }
            }
            barrier(world);
        });
    };
    for (const int kind : {0, 1, 2}) {
        const std::vector<VTime> sync_clocks = run_case(kind, false);
        const std::vector<VTime> split_clocks = run_case(kind, true);
        ASSERT_EQ(sync_clocks.size(), split_clocks.size());
        for (std::size_t i = 0; i < sync_clocks.size(); ++i) {
            EXPECT_EQ(sync_clocks[i], split_clocks[i])
                << "kind " << kind << " rank " << i;
        }
    }
}

TEST(HybridNonblocking, LeaderComputeOverlapsItsOwnExchange) {
    // run() blocks the LEADER until its transfers are done, so leader
    // compute serializes behind the exchange; start() charges the exchange
    // to the request's sub-clock, so leader compute overlaps too and the
    // makespan drops.
    const std::size_t bb = 512 * 1024;
    const double flops = 2.0e6;
    VTime t_start = 0, t_run = 0;
    for (const bool use_start : {false, true}) {
        Runtime rt(ClusterSpec::regular(4, 8), ModelParams::cray(),
                   PayloadMode::SizeOnly);
        auto clocks = rt.run([&](Comm& world) {
            hympi::HierComm hc(world);
            hympi::AllgatherChannel ch(hc, bb);
            barrier(world);
            if (use_start) {
                minimpi::CollRequest rq = ch.start();
                world.ctx().charge_flops(flops);  // EVERY rank computes
                rq.wait();
            } else {
                ch.run();
                world.ctx().charge_flops(flops);
            }
        });
        (use_start ? t_start : t_run) =
            *std::max_element(clocks.begin(), clocks.end());
    }
    EXPECT_LT(t_start, t_run) << "start=" << t_start << " run=" << t_run;
}

TEST(NonblockingEquivalence, ImmediateWaitMatchesBlockingExactly) {
    for (const bool cray : {true, false}) {
        const ModelParams model =
            cray ? ModelParams::cray() : ModelParams::openmpi();
        for (const int sockets : {1, 2}) {
            const ClusterSpec cluster =
                ClusterSpec::regular(2, 4, Placement::Smp, sockets);
            for (const Kind kind :
                 {Kind::Barrier, Kind::Bcast, Kind::Allgather,
                  Kind::Allgatherv, Kind::Allreduce}) {
                const PinResult ref =
                    run_pinned(cluster, model, kind, Exec::Block);
                for (const Exec exec : {Exec::Nonblock, Exec::Persist}) {
                    const PinResult got =
                        run_pinned(cluster, model, kind, exec);
                    const char* tag = exec == Exec::Nonblock ? "nonblocking"
                                                             : "persistent";
                    ASSERT_EQ(ref.clocks.size(), got.clocks.size());
                    for (std::size_t i = 0; i < ref.clocks.size(); ++i) {
                        EXPECT_EQ(ref.clocks[i], got.clocks[i])
                            << tag << " clock diverges: profile "
                            << (cray ? "cray" : "openmpi") << " sockets "
                            << sockets << " kind "
                            << static_cast<int>(kind) << " rank " << i;
                    }
                    EXPECT_EQ(ref.counters.bridge_bytes,
                              got.counters.bridge_bytes);
                    EXPECT_EQ(ref.counters.shm_bytes, got.counters.shm_bytes);
                    EXPECT_EQ(ref.counters.xsocket_bytes,
                              got.counters.xsocket_bytes);
                    ASSERT_EQ(ref.bufs.size(), got.bufs.size());
                    for (std::size_t i = 0; i < ref.bufs.size(); ++i) {
                        EXPECT_EQ(ref.bufs[i], got.bufs[i])
                            << tag << " bytes diverge at rank " << i;
                    }
                }
            }
        }
    }
}
