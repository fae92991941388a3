#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "minimpi/minimpi.h"

using namespace minimpi;

namespace {
Runtime make_rt(int nodes = 1, int ppn = 2) {
    return Runtime(ClusterSpec::regular(nodes, ppn), ModelParams::test());
}
}  // namespace

TEST(P2P, BasicSendRecvCarriesData) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        std::vector<std::int32_t> data(100);
        if (world.rank() == 0) {
            std::iota(data.begin(), data.end(), 7);
            send(world, data.data(), data.size(), Datatype::Int32, 1, 3);
        } else {
            Status st = recv(world, data.data(), data.size(), Datatype::Int32,
                             0, 3);
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.tag, 3);
            EXPECT_EQ(st.bytes, 400u);
            for (int i = 0; i < 100; ++i) EXPECT_EQ(data[i], 7 + i);
        }
    });
}

TEST(P2P, MessagesFromOneSenderDoNotOvertake) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            for (int i = 0; i < 50; ++i) send_value(world, i, 1, 9);
        } else {
            for (int i = 0; i < 50; ++i) {
                EXPECT_EQ(recv_value<int>(world, 0, 9), i);
            }
        }
    });
}

TEST(P2P, TagSelectsAmongPendingMessages) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            send_value(world, 111, 1, 1);
            send_value(world, 222, 1, 2);
            send_value(world, 333, 1, 3);
        } else {
            // Receive out of send order by tag.
            EXPECT_EQ(recv_value<int>(world, 0, 3), 333);
            EXPECT_EQ(recv_value<int>(world, 0, 1), 111);
            EXPECT_EQ(recv_value<int>(world, 0, 2), 222);
        }
    });
}

TEST(P2P, AnyTagMatchesFirstPending) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            send_value(world, 5, 1, 42);
        } else {
            int v = 0;
            Status st = recv(world, &v, 1, Datatype::Int32, 0, kAnyTag);
            EXPECT_EQ(v, 5);
            EXPECT_EQ(st.tag, 42);
        }
    });
}

TEST(P2P, AnySourceReportsActualSource) {
    Runtime rt = make_rt(1, 3);
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            int total = 0;
            for (int i = 0; i < 2; ++i) {
                int v = 0;
                Status st = recv(world, &v, 1, Datatype::Int32, kAnySource, 0);
                EXPECT_TRUE(st.source == 1 || st.source == 2);
                EXPECT_EQ(v, 10 * st.source);
                total += v;
            }
            EXPECT_EQ(total, 30);
        } else {
            send_value(world, 10 * world.rank(), 0, 0);
        }
    });
}

TEST(P2P, SelfSendWorks) {
    Runtime rt = make_rt(1, 1);
    rt.run([](Comm& world) {
        send_value(world, 88, 0, 0);
        EXPECT_EQ(recv_value<int>(world, 0, 0), 88);
    });
}

TEST(P2P, ProcNullIsNoOp) {
    Runtime rt = make_rt(1, 1);
    rt.run([](Comm& world) {
        int v = 123;
        send(world, &v, 1, Datatype::Int32, kProcNull, 0);
        Status st = recv(world, &v, 1, Datatype::Int32, kProcNull, 0);
        EXPECT_EQ(st.source, kProcNull);
        EXPECT_EQ(v, 123);  // untouched
    });
}

TEST(P2P, ZeroByteMessage) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            send(world, nullptr, 0, Datatype::Byte, 1, 5);
        } else {
            Status st = recv(world, nullptr, 0, Datatype::Byte, 0, 5);
            EXPECT_EQ(st.bytes, 0u);
        }
    });
}

TEST(P2P, RecvIntoLargerBufferReportsActualSize) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            std::vector<double> d(10, 1.5);
            send(world, d.data(), d.size(), Datatype::Double, 1, 0);
        } else {
            std::vector<double> d(100, 0.0);
            Status st = recv(world, d.data(), d.size(), Datatype::Double, 0, 0);
            EXPECT_EQ(st.bytes, 80u);
            EXPECT_DOUBLE_EQ(d[9], 1.5);
            EXPECT_DOUBLE_EQ(d[10], 0.0);
        }
    });
}

TEST(P2P, TruncationThrows) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 0) {
            std::vector<double> d(10, 1.0);
            send(world, d.data(), d.size(), Datatype::Double, 1, 0);
            // Peer throws; we may get unblocked by the poison or finish.
            recv(world, nullptr, 0, Datatype::Byte, 1, 1);
        } else {
            double one = 0;
            recv(world, &one, 1, Datatype::Double, 0, 0);  // too small
        }
    }),
                 TruncationError);
}

TEST(P2P, IsendIrecvWaitall) {
    Runtime rt = make_rt(2, 2);
    rt.run([](Comm& world) {
        const int p = world.size();
        std::vector<int> outbox(static_cast<std::size_t>(p));
        std::vector<int> inbox(static_cast<std::size_t>(p), -1);
        std::vector<Request> reqs;
        for (int i = 0; i < p; ++i) {
            reqs.push_back(irecv(world, &inbox[static_cast<std::size_t>(i)], 1,
                                 Datatype::Int32, i, 2));
        }
        for (int i = 0; i < p; ++i) {
            outbox[static_cast<std::size_t>(i)] = world.rank() * 100 + i;
            reqs.push_back(isend(world, &outbox[static_cast<std::size_t>(i)],
                                 1, Datatype::Int32, i, 2));
        }
        wait_all(reqs);
        for (int i = 0; i < p; ++i) {
            EXPECT_EQ(inbox[static_cast<std::size_t>(i)],
                      i * 100 + world.rank());
        }
    });
}

TEST(P2P, TestPollsUntilComplete) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 1) {
            int v = 0;
            Request r = irecv(world, &v, 1, Datatype::Int32, 0, 0);
            // Tell rank 0 we're ready, then poll.
            send(world, nullptr, 0, Datatype::Byte, 0, 1);
            Status st;
            while (!r.test(&st)) {
            }
            EXPECT_EQ(v, 4242);
            EXPECT_EQ(st.source, 0);
        } else {
            recv(world, nullptr, 0, Datatype::Byte, 1, 1);
            send_value(world, 4242, 1, 0);
        }
    });
}

TEST(P2P, DroppedPendingRecvIsCancelled) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 1) {
            {
                int v = 0;
                Request r = irecv(world, &v, 1, Datatype::Int32, 0, 7);
                // Dropped without wait: must deregister cleanly.
            }
            // A later message with the same tag must be receivable.
            send(world, nullptr, 0, Datatype::Byte, 0, 1);
            EXPECT_EQ(recv_value<int>(world, 0, 7), 31);
        } else {
            recv(world, nullptr, 0, Datatype::Byte, 1, 1);
            send_value(world, 31, 1, 7);
        }
    });
}

TEST(P2P, IprobeSeesPendingWithoutConsuming) {
    Runtime rt = make_rt();
    rt.run([](Comm& world) {
        if (world.rank() == 0) {
            send_value<std::int64_t>(world, 99, 1, 4);
            send(world, nullptr, 0, Datatype::Byte, 1, 5);
        } else {
            // Wait until something with tag 4 is pending.
            Status st;
            probe(world, 0, 4, &st);
            EXPECT_EQ(st.bytes, sizeof(std::int64_t));
            EXPECT_EQ(st.source, 0);
            EXPECT_TRUE(iprobe(world, 0, 4, &st));
            EXPECT_FALSE(iprobe(world, 0, 12345, nullptr));
            EXPECT_EQ(recv_value<std::int64_t>(world, 0, 4), 99);
            EXPECT_FALSE(iprobe(world, 0, 4, nullptr));
            recv(world, nullptr, 0, Datatype::Byte, 0, 5);
        }
    });
}

TEST(P2P, ValidationErrors) {
    Runtime rt(ClusterSpec::regular(1, 1), ModelParams::test());
    rt.run([](Comm& world) {
        int v = 0;
        EXPECT_THROW(send(world, &v, 1, Datatype::Int32, 5, 0), ArgumentError);
        EXPECT_THROW(send(world, &v, 1, Datatype::Int32, -7, 0), ArgumentError);
        EXPECT_THROW(send(world, &v, 1, Datatype::Int32, 0, -1), ArgumentError);
        EXPECT_THROW(send(world, &v, 1, Datatype::Int32, 0, kTagUpperBound),
                     ArgumentError);
        EXPECT_THROW(send(world, nullptr, 4, Datatype::Int32, 0, 0),
                     ArgumentError);
        EXPECT_THROW(recv(world, &v, 1, Datatype::Int32, 3, 0), ArgumentError);
        // Wildcards allowed on recv but not send.
        EXPECT_THROW(send(world, &v, 1, Datatype::Int32, kAnySource, 0),
                     ArgumentError);
    });
}

TEST(P2P, CrossNodeTraffic) {
    Runtime rt(ClusterSpec::regular(3, 2), ModelParams::cray());
    rt.run([](Comm& world) {
        // Ring of value+1 passes through every node.
        const int p = world.size();
        const int next = (world.rank() + 1) % p;
        const int prev = (world.rank() - 1 + p) % p;
        if (world.rank() == 0) {
            send_value(world, 1, next, 0);
            EXPECT_EQ(recv_value<int>(world, prev, 0), p);
        } else {
            const int v = recv_value<int>(world, prev, 0);
            send_value(world, v + 1, next, 0);
        }
    });
}

TEST(P2P, LargeMessage) {
    Runtime rt = make_rt(2, 1);
    rt.run([](Comm& world) {
        const std::size_t n = 1 << 20;  // 1M ints = 4 MB
        if (world.rank() == 0) {
            std::vector<std::int32_t> big(n);
            std::iota(big.begin(), big.end(), 0);
            send(world, big.data(), n, Datatype::Int32, 1, 0);
        } else {
            std::vector<std::int32_t> big(n, -1);
            recv(world, big.data(), n, Datatype::Int32, 0, 0);
            EXPECT_EQ(big[0], 0);
            EXPECT_EQ(big[n - 1], static_cast<std::int32_t>(n - 1));
        }
    });
}

TEST(P2P, SendOnFreedCommThrows) {
    Runtime rt = make_rt(1, 2);
    rt.run([](Comm& world) {
        Comm c = world.split(0);
        c.free();
        int v = 1;
        const int peer = (c.rank() + 1) % c.size();
        EXPECT_THROW(send(c, &v, 1, Datatype::Int32, peer, 0), CommError);
    });
}
