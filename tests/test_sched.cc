// The fiber scheduler under the runtime: exact stall detection, no lost
// wake-ups, per-fiber exception state, and K worker threads for any number
// of ranks.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "hybrid/hier_comm.h"
#include "hybrid/sync.h"
#include "minimpi/minimpi.h"
#include "minimpi/sched.h"

using namespace minimpi;

namespace {

/// Run @p body and return the StallError message it must end with.
template <typename Body>
std::string stall_message(Runtime& rt, Body&& body) {
    try {
        rt.run(body);
    } catch (const StallError& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a StallError";
    return {};
}

}  // namespace

TEST(Sched, ReceiveWithNoSenderStalls) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::test());
    const std::string msg = stall_message(rt, [](Comm& world) {
        barrier(world);
        if (world.rank() == 2) {
            int v = 0;
            recv(world, &v, 1, Datatype::Int32, 1, 7);
        }
    });
    EXPECT_NE(msg.find("1 of 4 ranks parked"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 2 at vclock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("recv ctx="), std::string::npos) << msg;
    EXPECT_NE(msg.find("src=1 tag=7"), std::string::npos) << msg;
}

TEST(Sched, UnsignalledNodeFlagStalls) {
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::test());
    const std::string msg = stall_message(rt, [](Comm& world) {
        hympi::HierComm hc(world);
        hympi::NodeSync sync(hc);
        if (world.rank() == 1) {
            // Rank 0 publishes this slot but never signals it.
            const int slot = sync.chunk_slot_rank(0);
            sync.chunk_wait(slot, sync.chunk_mark(slot) + 1);
        }
    });
    EXPECT_NE(msg.find("1 of 3 ranks parked"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 1 at vclock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node flag owner=0 want=1"), std::string::npos) << msg;
}

TEST(Sched, StalledRuntimeRunsAgain) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 0) recv(world, nullptr, 0, Datatype::Byte, 1, 0);
    }),
                 StallError);
    const std::vector<VTime> clocks = rt.run([](Comm& world) { barrier(world); });
    EXPECT_EQ(clocks.size(), 2u);
}

// Ping-pong among 2K ranks (K = worker threads): every round parks and
// wakes each rank, so a wake-up lost between queueing at a site and
// switching out would hang a pair and surface as a StallError.
TEST(Sched, PingPongLosesNoWakeUp) {
    const int k = detail::Scheduler::affinity_cpus();
    Runtime rt(ClusterSpec::regular(1, 2 * k), ModelParams::test());
    constexpr int kRounds = 10000;
    rt.run([](Comm& world) {
        const int peer = world.rank() ^ 1;
        const bool first = world.rank() % 2 == 0;
        int v = first ? 0 : -1;
        for (int i = 0; i < kRounds; ++i) {
            if (first) {
                send(world, &v, 1, Datatype::Int32, peer, 0);
                recv(world, &v, 1, Datatype::Int32, peer, 0);
                ASSERT_EQ(v, 2 * i + 1);
                ++v;
            } else {
                recv(world, &v, 1, Datatype::Int32, peer, 0);
                ASSERT_EQ(v, 2 * i);
                ++v;
                send(world, &v, 1, Datatype::Int32, peer, 0);
            }
        }
    });
}

namespace {

/// Parks in its destructor, which runs while the owning rank unwinds.
struct ParkingGuard {
    Comm& world;
    int* uncaught_after_park;
    ~ParkingGuard() {
        const int peer = world.rank() ^ 1;
        send(world, nullptr, 0, Datatype::Byte, peer, 2);
        recv(world, nullptr, 0, Datatype::Byte, peer, 2);
        *uncaught_after_park = std::uncaught_exceptions();
    }
};

}  // namespace

// A rank that parks inside a catch handler (or in a destructor during
// unwinding) may resume on another worker thread, after other ranks threw
// and caught their own exceptions there: `throw;` must still rethrow its
// own exception, and std::uncaught_exceptions() must still count its own.
TEST(Sched, ExceptionStateFollowsTheFiber) {
    const int n = 4 * detail::Scheduler::affinity_cpus();
    Runtime rt(ClusterSpec::regular(1, n), ModelParams::test());
    std::vector<std::string> rethrown(static_cast<std::size_t>(n));
    std::vector<int> uncaught(static_cast<std::size_t>(n), -1);
    rt.run([&](Comm& world) {
        const auto me = static_cast<std::size_t>(world.rank());
        const int peer = world.rank() ^ 1;
        try {
            try {
                throw std::runtime_error("rank " + std::to_string(me));
            } catch (const std::runtime_error&) {
                for (int i = 0; i < 50; ++i) {
                    send(world, nullptr, 0, Datatype::Byte, peer, 1);
                    recv(world, nullptr, 0, Datatype::Byte, peer, 1);
                }
                throw;
            }
        } catch (const std::runtime_error& e) {
            rethrown[me] = e.what();
        }
        try {
            ParkingGuard guard{world, &uncaught[me]};
            throw std::logic_error("unwind");
        } catch (const std::logic_error&) {
        }
    });
    for (int r = 0; r < n; ++r) {
        EXPECT_EQ(rethrown[static_cast<std::size_t>(r)],
                  "rank " + std::to_string(r));
        EXPECT_EQ(uncaught[static_cast<std::size_t>(r)], 1) << "rank " << r;
    }
}

// 92 ranks run on K worker threads (the calling thread among them), not on
// one OS thread per rank.
TEST(Sched, RanksShareKWorkerThreads) {
    Runtime rt(ClusterSpec::regular(4, 23), ModelParams::test());
    std::size_t tasks = 0;
    rt.run([&](Comm& world) {
        barrier(world);
        if (world.rank() == 0) {
            for (const auto& e :
                 std::filesystem::directory_iterator("/proc/self/task")) {
                (void)e;
                ++tasks;
            }
        }
        barrier(world);
    });
    EXPECT_GE(tasks, 1u);
    EXPECT_LE(tasks,
              static_cast<std::size_t>(detail::Scheduler::affinity_cpus()) + 1);
}
