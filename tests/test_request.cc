#include <gtest/gtest.h>

#include <vector>

#include "minimpi/minimpi.h"

using namespace minimpi;

TEST(Request, DefaultIsInvalidAndWaitIsNoop) {
    Request r;
    EXPECT_FALSE(r.valid());
    Status st = r.wait();
    EXPECT_EQ(st.source, kProcNull);
    EXPECT_TRUE(r.test());
}

TEST(Request, SendRequestCompletesImmediately) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            int v = 9;
            Request r = isend(world, &v, 1, Datatype::Int32, 1, 0);
            EXPECT_TRUE(r.valid());
            EXPECT_TRUE(r.test());
            EXPECT_FALSE(r.valid()) << "test() consumes the request";
        } else {
            EXPECT_EQ(recv_value<int>(world, 0, 0), 9);
        }
    });
}

TEST(Request, MoveTransfersOwnership) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        if (world.rank() == 1) {
            int v = 0;
            Request a = irecv(world, &v, 1, Datatype::Int32, 0, 0);
            Request b = std::move(a);
            EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
            EXPECT_TRUE(b.valid());
            send(world, nullptr, 0, Datatype::Byte, 0, 1);
            Status st = b.wait();
            EXPECT_EQ(v, 17);
            EXPECT_EQ(st.source, 0);
        } else {
            recv(world, nullptr, 0, Datatype::Byte, 1, 1);
            send_value(world, 17, 1, 0);
        }
    });
}

TEST(Request, MoveAssignCancelsPreviousPending) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        if (world.rank() == 1) {
            int a = 0, b = 0;
            Request r = irecv(world, &a, 1, Datatype::Int32, 0, 5);
            // Overwriting r must deregister the first receive; the message
            // later sent with tag 5 must land in the second buffer.
            r = irecv(world, &b, 1, Datatype::Int32, 0, 5);
            send(world, nullptr, 0, Datatype::Byte, 0, 1);
            r.wait();
            EXPECT_EQ(a, 0);
            EXPECT_EQ(b, 23);
        } else {
            recv(world, nullptr, 0, Datatype::Byte, 1, 1);
            send_value(world, 23, 1, 5);
        }
    });
}

TEST(Request, VectorOfRequestsReallocatesSafely) {
    // PostedRecv addresses must stay stable through vector growth (the
    // mailbox keeps raw pointers): Request stores it behind a unique_ptr.
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        const int n = 100;
        if (world.rank() == 1) {
            std::vector<int> vals(n, -1);
            std::vector<Request> reqs;  // no reserve: force reallocation
            for (int i = 0; i < n; ++i) {
                reqs.push_back(irecv(world, &vals[static_cast<std::size_t>(i)],
                                     1, Datatype::Int32, 0, i));
            }
            send(world, nullptr, 0, Datatype::Byte, 0, n + 1);
            wait_all(reqs);
            for (int i = 0; i < n; ++i) {
                ASSERT_EQ(vals[static_cast<std::size_t>(i)], i * 3);
            }
        } else {
            recv(world, nullptr, 0, Datatype::Byte, 1, n + 1);
            for (int i = 0; i < n; ++i) send_value(world, i * 3, 1, i);
        }
    });
}

TEST(Request, WaitAllMixedSendRecv) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.run([](Comm& world) {
        const int peer = world.rank() ^ 1;
        int in = -1, out = world.rank() + 40;
        std::vector<Request> reqs;
        reqs.push_back(irecv(world, &in, 1, Datatype::Int32, peer, 0));
        reqs.push_back(isend(world, &out, 1, Datatype::Int32, peer, 0));
        wait_all(reqs);
        EXPECT_EQ(in, peer + 40);
    });
}

TEST(Request, TestOnPendingDoesNotConsume) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        if (world.rank() == 1) {
            int v = 0;
            Request r = irecv(world, &v, 1, Datatype::Int32, 0, 0);
            EXPECT_FALSE(r.test());
            EXPECT_TRUE(r.valid()) << "incomplete test must keep the request";
            send(world, nullptr, 0, Datatype::Byte, 0, 1);
            r.wait();
            EXPECT_EQ(v, 71);
        } else {
            recv(world, nullptr, 0, Datatype::Byte, 1, 1);
            send_value(world, 71, 1, 0);
        }
    });
}

TEST(Request, PersistentSendRecvRounds) {
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::cray());
    rt.run([](Comm& world) {
        const int peer = 1 - world.rank();
        int out = 0, in = -1;
        PersistentRequest ps =
            PersistentRequest::send_init(world, &out, 1, Datatype::Int32,
                                         peer, 4);
        PersistentRequest pr =
            PersistentRequest::recv_init(world, &in, 1, Datatype::Int32, peer,
                                         4);
        for (int round = 0; round < 5; ++round) {
            out = world.rank() * 100 + round;
            pr.start();
            ps.start();
            ps.wait();
            Status st = pr.wait();
            EXPECT_EQ(in, peer * 100 + round);
            EXPECT_EQ(st.source, peer);
        }
    });
}

TEST(Request, DoubleWaitReturnsCachedStatus) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        if (world.rank() == 1) {
            int v = 0;
            Request r = irecv(world, &v, 1, Datatype::Int32, 0, 3);
            Status st1 = r.wait();
            EXPECT_EQ(v, 55);
            EXPECT_FALSE(r.valid());
            // Double-wait: a no-op returning the status cached at completion.
            Status st2 = r.wait();
            EXPECT_EQ(st2.source, st1.source);
            EXPECT_EQ(st2.tag, st1.tag);
            EXPECT_EQ(st2.bytes, st1.bytes);
        } else {
            send_value(world, 55, 1, 3);
        }
    });
}

TEST(Request, WaitAfterTestSuccessReturnsCachedStatus) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        if (world.rank() == 1) {
            int v = 0;
            Request r = irecv(world, &v, 1, Datatype::Int32, 0, 8);
            recv(world, nullptr, 0, Datatype::Byte, 0, 9);  // message landed
            Status st1;
            ASSERT_TRUE(r.test(&st1));
            EXPECT_EQ(v, 66);
            // Wait after a successful test: no-op with the cached status.
            Status st2 = r.wait();
            EXPECT_EQ(st2.source, st1.source);
            EXPECT_EQ(st2.tag, st1.tag);
            EXPECT_EQ(st2.bytes, st1.bytes);
            Status st3;
            EXPECT_TRUE(r.test(&st3));
            EXPECT_EQ(st3.tag, st1.tag);
        } else {
            send_value(world, 66, 1, 8);
            send(world, nullptr, 0, Datatype::Byte, 1, 9);
        }
    });
}

TEST(CollRequestLifecycle, DoubleWaitAndWaitAfterTestAreNoOps) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.run([](Comm& world) {
        std::vector<std::byte> in(64), out(64 * world.size());
        CollRequest rq =
            iallgather(world, in.data(), 64, out.data(), Datatype::Byte);
        rq.wait();
        const VTime t_after = world.ctx().clock.now();
        rq.wait();  // double-wait: no-op
        EXPECT_EQ(world.ctx().clock.now(), t_after);
        EXPECT_TRUE(rq.test());

        CollRequest rq2 =
            iallgather(world, in.data(), 64, out.data(), Datatype::Byte);
        while (!rq2.test()) {
        }
        const VTime t2 = world.ctx().clock.now();
        rq2.wait();  // wait after successful test: no-op
        EXPECT_EQ(world.ctx().clock.now(), t2);
    });
}

TEST(CollRequestLifecycle, DestroyCompletedRequestIsQuiet) {
    Runtime rt(ClusterSpec::regular(1, 1), ModelParams::test());
    rt.run([](Comm& world) {
        // Single-member communicator: the body completes at the posting
        // drive, so dropping the handle finishes it like an implicit wait.
        std::vector<std::byte> buf(32);
        { CollRequest rq = ibcast(world, buf.data(), 32, Datatype::Byte, 0); }
    });
}

TEST(CollRequestLifecycle, DestroyInFlightRequestThrowsTyped) {
    // Destroying a request whose operation cannot have completed (its peer
    // never participates) must raise RequestError instead of silently
    // cancelling half-executed protocol state.
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
                     if (world.rank() == 0) {
                         std::vector<std::byte> buf(256);
                         CollRequest rq = ibcast(world, buf.data(), 256,
                                                 Datatype::Byte, 1);
                         // dropped without wait(): throws RequestError
                     }
                     // rank 1 never posts, so rank 0 can never complete
                 }),
                 RequestError);
}

TEST(Request, PersistentMisuseThrows) {
    Runtime rt(ClusterSpec::regular(1, 1), ModelParams::test());
    rt.run([](Comm& world) {
        PersistentRequest empty;
        EXPECT_THROW(empty.start(), ArgumentError);
        int v = 0;
        PersistentRequest pr = PersistentRequest::recv_init(
            world, &v, 1, Datatype::Int32, 0, 0);
        EXPECT_THROW(pr.wait(), ArgumentError) << "wait before start";
        pr.start();
        EXPECT_THROW(pr.start(), ArgumentError) << "double start";
        send_value(world, 1, 0, 0);
        pr.wait();
        EXPECT_EQ(v, 1);
        pr.start();  // reusable after completion
        send_value(world, 2, 0, 0);
        pr.wait();
        EXPECT_EQ(v, 2);
        EXPECT_THROW(PersistentRequest::send_init(world, &v, 1,
                                                  Datatype::Int32, 9, 0),
                     ArgumentError);
    });
}
