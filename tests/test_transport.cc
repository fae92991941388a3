// Direct tests of the matching engine below the p2p layer: unexpected
// queue, posted queue, wildcard matching, FIFO per (source, tag),
// truncation flagging and poisoning.

#include <gtest/gtest.h>

#include "minimpi/error.h"
#include "minimpi/runtime.h"
#include "minimpi/transport.h"

using namespace minimpi;

namespace {

InMsg make_msg(std::uint64_t ctx, int src, int tag, std::size_t bytes,
               const void* payload = nullptr) {
    InMsg m;
    m.ctx = ctx;
    m.src_global = src;
    m.tag = tag;
    m.bytes = bytes;
    if (payload != nullptr) {
        m.payload = std::make_unique<std::byte[]>(bytes);
        std::memcpy(m.payload.get(), payload, bytes);
    }
    m.arrival = 1.0;
    m.recv_overhead = 0.1;
    return m;
}

}  // namespace

TEST(Transport, UnexpectedThenMatched) {
    Transport t(2, PayloadMode::Real);
    const int v = 77;
    t.deliver(1, make_msg(5, 0, 3, sizeof(int), &v));
    EXPECT_EQ(t.unexpected_count(1), 1u);

    PostedRecv r;
    r.ctx = 5;
    r.src_global = 0;
    r.tag = 3;
    int out = 0;
    r.buf = &out;
    r.capacity = sizeof(int);
    t.post_recv(1, &r);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(out, 77);
    EXPECT_EQ(r.matched_src, 0);
    EXPECT_EQ(r.msg_bytes, sizeof(int));
    EXPECT_EQ(t.unexpected_count(1), 0u);
}

TEST(Transport, PostedThenDelivered) {
    Transport t(2, PayloadMode::Real);
    PostedRecv r;
    r.ctx = 9;
    r.src_global = kAnySource;
    r.tag = kAnyTag;
    double out = 0;
    r.buf = &out;
    r.capacity = sizeof(double);
    t.post_recv(0, &r);
    EXPECT_FALSE(r.completed);

    const double v = 2.5;
    t.deliver(0, make_msg(9, 1, 11, sizeof(double), &v));
    EXPECT_TRUE(r.completed);
    EXPECT_DOUBLE_EQ(out, 2.5);
    EXPECT_EQ(r.matched_tag, 11);
}

TEST(Transport, ContextSeparatesTraffic) {
    Transport t(1, PayloadMode::Real);
    const int v = 1;
    t.deliver(0, make_msg(/*ctx=*/1, 0, 0, sizeof(int), &v));

    PostedRecv r;
    r.ctx = 2;  // different communicator context
    r.src_global = 0;
    r.tag = 0;
    int out = 0;
    r.buf = &out;
    r.capacity = sizeof(int);
    t.post_recv(0, &r);
    EXPECT_FALSE(r.completed) << "must not match across contexts";
    EXPECT_TRUE(t.cancel_recv(0, &r));
}

TEST(Transport, FifoPerSourceAndTag) {
    Transport t(2, PayloadMode::Real);
    for (int i = 0; i < 5; ++i) {
        t.deliver(1, make_msg(1, 0, 7, sizeof(int), &i));
    }
    for (int want = 0; want < 5; ++want) {
        PostedRecv r;
        r.ctx = 1;
        r.src_global = 0;
        r.tag = 7;
        int out = -1;
        r.buf = &out;
        r.capacity = sizeof(int);
        t.post_recv(1, &r);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(out, want);
    }
}

TEST(Transport, TagSelectsAcrossQueuedMessages) {
    Transport t(2, PayloadMode::Real);
    const int a = 1, b = 2;
    t.deliver(1, make_msg(1, 0, 10, sizeof(int), &a));
    t.deliver(1, make_msg(1, 0, 20, sizeof(int), &b));
    PostedRecv r;
    r.ctx = 1;
    r.src_global = 0;
    r.tag = 20;
    int out = 0;
    r.buf = &out;
    r.capacity = sizeof(int);
    t.post_recv(1, &r);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(out, 2);
    EXPECT_EQ(t.unexpected_count(1), 1u);
}

TEST(Transport, TruncationFlagged) {
    Transport t(1, PayloadMode::Real);
    const double big[4] = {1, 2, 3, 4};
    t.deliver(0, make_msg(1, 0, 0, sizeof(big), big));
    PostedRecv r;
    r.ctx = 1;
    r.src_global = 0;
    r.tag = 0;
    double small = 0;
    r.buf = &small;
    r.capacity = sizeof(double);
    t.post_recv(0, &r);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.msg_bytes, sizeof(big));
    EXPECT_DOUBLE_EQ(small, 0.0) << "truncated payload must not be copied";
}

TEST(Transport, SizeOnlyModeCarriesNoPayload) {
    Transport t(1, PayloadMode::SizeOnly);
    EXPECT_EQ(t.make_payload("abc", 3), nullptr);
    InMsg m = make_msg(1, 0, 0, 1024);
    t.deliver(0, std::move(m));
    PostedRecv r;
    r.ctx = 1;
    r.src_global = 0;
    r.tag = 0;
    r.buf = nullptr;
    r.capacity = 1024;
    t.post_recv(0, &r);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.msg_bytes, 1024u);
}

TEST(Transport, ProbeDoesNotConsume) {
    Transport t(1, PayloadMode::Real);
    const int v = 3;
    t.deliver(0, make_msg(4, 0, 6, sizeof(int), &v));
    Status st;
    EXPECT_TRUE(t.iprobe(0, 4, 0, 6, &st));
    EXPECT_EQ(st.bytes, sizeof(int));
    EXPECT_TRUE(t.iprobe(0, 4, kAnySource, kAnyTag, &st));
    EXPECT_FALSE(t.iprobe(0, 4, 0, 99, nullptr));
    EXPECT_FALSE(t.iprobe(0, 777, 0, 6, nullptr));
    EXPECT_EQ(t.unexpected_count(0), 1u);
}

// Blocking waits run on rank fibers: both tests below are rank programs
// that drive the run's transport directly, on a context no comm uses.
constexpr std::uint64_t kRawCtx = 1000;

TEST(Transport, WaitBlocksUntilDelivery) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    int out = 0;
    rt.run([&](Comm& world) {
        Transport& t = world.ctx().runtime->transport();
        if (world.rank() == 0) {
            const int v = 55;
            t.deliver(1, make_msg(kRawCtx, 0, 0, sizeof(int), &v));
            return;
        }
        PostedRecv r;
        r.ctx = kRawCtx;
        r.src_global = 0;
        r.tag = 0;
        r.buf = &out;
        r.capacity = sizeof(int);
        t.post_recv(1, &r);
        PostedRecv* const rs[] = {&r};
        EXPECT_EQ(t.wait(1, rs), 0u);
    });
    EXPECT_EQ(out, 55);
}

TEST(Transport, PoisonUnblocksWaiters) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Transport& t = world.ctx().runtime->transport();
        if (world.rank() == 0) {
            t.poison(0);
            return;
        }
        PostedRecv r;
        r.ctx = kRawCtx;
        r.src_global = 0;
        r.tag = 0;
        r.buf = nullptr;
        r.capacity = 0;
        t.post_recv(1, &r);
        PostedRecv* const rs[] = {&r};
        EXPECT_THROW(t.wait(1, rs), JobAborted);
    });
    EXPECT_TRUE(rt.transport().poisoned());
    EXPECT_THROW(rt.transport().check_poison(), JobAborted);
}

TEST(Transport, CancelRemovesPending) {
    Transport t(1, PayloadMode::Real);
    PostedRecv r;
    r.ctx = 1;
    r.src_global = 0;
    r.tag = 5;
    r.buf = nullptr;
    r.capacity = 0;
    t.post_recv(0, &r);
    EXPECT_TRUE(t.cancel_recv(0, &r));
    // A message arriving later goes unexpected instead of matching.
    t.deliver(0, make_msg(1, 0, 5, 0));
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(t.unexpected_count(0), 1u);
}
