// Failure injection: errors raised in one rank must not deadlock the job —
// the poison machinery unblocks peers stuck in receives, collectives or
// rendezvous, and Runtime::run rethrows the ORIGINAL error.

#include <gtest/gtest.h>

#include <functional>

#include "hybrid/hympi.h"

using namespace minimpi;

TEST(Failure, ErrorWhilePeerBlockedInRecv) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 0) {
            recv(world, nullptr, 0, Datatype::Byte, 1, 0);  // never sent
        } else {
            throw ArgumentError("injected");
        }
    }),
                 ArgumentError);
}

TEST(Failure, ErrorWhilePeersBlockedInBarrier) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 4) throw CommError("boom");
        barrier(world);
        // Unreached by some ranks; others may pass before the poison.
        barrier(world);
        barrier(world);
    }),
                 CommError);
}

TEST(Failure, ErrorWhilePeersBlockedInSplitRendezvous) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 3) throw ArgumentError("no split for you");
        world.split(0);
    }),
                 ArgumentError);
}

TEST(Failure, ErrorWhilePeersBlockedInCollective) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        std::vector<double> buf(64);
        if (world.rank() == 2) throw WinError("mid-collective");
        std::vector<double> all(64 * 4);
        allgather(world, buf.data(), 64, all.data(), Datatype::Double);
    }),
                 WinError);
}

TEST(Failure, OriginalErrorPreferredOverJobAborted) {
    // Every non-failing rank dies with JobAborted; the injected error must
    // still be the one reported.
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::test());
    try {
        rt.run([](Comm& world) {
            if (world.rank() == 1) throw TruncationError(100, 10);
            barrier(world);
        });
        FAIL() << "expected a throw";
    } catch (const TruncationError&) {
        SUCCEED();
    } catch (const JobAborted&) {
        FAIL() << "JobAborted must not mask the original error";
    }
}

TEST(Failure, ErrorWhilePeersWaitOnNodeFlags) {
    // One rank throws before it signals; its node peers are parked on
    // shared flags, which nothing but the poison wake can release. Both
    // flag waits: the ready/release round and a pipeline chunk wait.
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    using Body = std::function<void(hympi::NodeSync&, int)>;
    const auto expect_original = [&](const Body& body) {
        try {
            rt.run([&](Comm& world) {
                hympi::HierComm hc(world);
                hympi::NodeSync sync(hc);
                body(sync, world.rank());
            });
            FAIL() << "expected a throw";
        } catch (const ArgumentError&) {
            SUCCEED();
        } catch (const JobAborted&) {
            FAIL() << "JobAborted must not mask the original error";
        }
    };
    expect_original([](hympi::NodeSync& sync, int rank) {
        if (rank == 2) throw ArgumentError("no ready flag from rank 2");
        sync.full_sync(hympi::SyncPolicy::Flags);
    });
    expect_original([](hympi::NodeSync& sync, int rank) {
        const int slot = sync.chunk_slot_rank(1);
        if (rank == 1) throw ArgumentError("no chunk from rank 1");
        sync.chunk_wait(slot, sync.chunk_mark(slot) + 1);
    });
}

TEST(Failure, RuntimeReusableAfterFailedRun) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 0) throw ArgumentError("first run fails");
        recv(world, nullptr, 0, Datatype::Byte, 0, 0);
    }),
                 ArgumentError);
    // A fresh run on the same Runtime starts clean.
    auto clocks = rt.run([](Comm& world) { barrier(world); });
    EXPECT_EQ(clocks.size(), 2u);
    for (VTime t : clocks) EXPECT_GT(t, 0.0);
}

TEST(Failure, CollectiveArgumentErrorsRaisedEverywhere) {
    // Errors all ranks can detect locally surface without needing poison.
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        double x = 0;
        bcast(world, &x, 1, Datatype::Double, world.size());  // bad root
    }),
                 ArgumentError);
    EXPECT_THROW(rt.run([](Comm& world) {
        std::vector<std::size_t> counts(1, 1);  // wrong arity
        std::vector<std::size_t> displs(1, 0);
        double x = 0;
        allgatherv(world, &x, 1, &x, counts, displs, Datatype::Double);
    }),
                 ArgumentError);
}

TEST(Failure, AllgathervCountMismatchDetected) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        std::vector<std::size_t> counts = {1, 1};
        std::vector<std::size_t> displs = {0, 1};
        std::vector<double> buf(2);
        double mine = 1;
        // Rank 0 lies about its send count.
        const std::size_t send = world.rank() == 0 ? 2 : 1;
        allgatherv(world, &mine, send, buf.data(), counts, displs,
                   Datatype::Double);
    }),
                 ArgumentError);
}

TEST(Failure, NullCommOperationsThrow) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Comm null_comm = world.split(world.rank() == 0 ? 0 : kUndefined);
        if (!null_comm.valid()) {
            EXPECT_THROW(null_comm.size(), CommError);
            EXPECT_THROW(null_comm.split(0), CommError);
        }
    });
}
