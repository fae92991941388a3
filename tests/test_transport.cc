// Direct tests of the matching engine below the p2p layer: unexpected
// queue, posted queue, wildcard matching, FIFO per (source, tag),
// truncation flagging, poisoning, kept (forwardable) payloads and the
// copy-on-write rule of payload fault injection.

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "minimpi/error.h"
#include "minimpi/runtime.h"
#include "minimpi/transport.h"

using namespace minimpi;

namespace {

PostedRecv make_recv(std::uint64_t ctx, int src, int tag, void* buf,
                     std::size_t capacity, bool keep = false) {
    PostedRecv r;
    r.ctx = ctx;
    r.src_global = src;
    r.tag = tag;
    r.buf = buf;
    r.capacity = capacity;
    r.keep = keep;
    return r;
}

InMsg make_msg(std::uint64_t ctx, int src, int tag, std::size_t bytes,
               const void* payload = nullptr) {
    InMsg m;
    m.ctx = ctx;
    m.src_global = src;
    m.tag = tag;
    m.bytes = bytes;
    if (payload != nullptr) {
        auto copy = std::make_shared_for_overwrite<std::byte[]>(bytes);
        std::memcpy(copy.get(), payload, bytes);
        m.payload = std::move(copy);
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

// ---- kept payloads (forwarding) ----------------------------------------------

TEST(Transport, KeptReceiveHandsBackTheDeliveredBuffer) {
    Transport t(2, PayloadMode::Real);
    const std::uint64_t v[3] = {7, 8, 9};
    // Posted first: matched on delivery.
    std::uint64_t out[3] = {};
    PostedRecv r = make_recv(1, 0, 0, out, sizeof(out), true);
    t.post_recv(1, &r);
    InMsg m = make_msg(1, 0, 0, sizeof(v), v);
    const std::byte* const sent = m.payload.get();
    t.deliver(1, std::move(m));
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.kept.get(), sent);
    EXPECT_EQ(std::memcmp(out, v, sizeof(v)), 0) << "kept and still copied";

    // Unexpected first: matched on post.
    InMsg m2 = make_msg(1, 0, 0, sizeof(v), v);
    const std::byte* const sent2 = m2.payload.get();
    t.deliver(1, std::move(m2));
    std::uint64_t out2[3] = {};
    PostedRecv r2 = make_recv(1, 0, 0, out2, sizeof(out2), true);
    t.post_recv(1, &r2);
    ASSERT_TRUE(r2.completed);
    EXPECT_EQ(r2.kept.get(), sent2);
    EXPECT_EQ(std::memcmp(out2, v, sizeof(v)), 0);
}

TEST(Transport, NothingKeptWithoutFlagOnSizeMismatchOrTombstone) {
    Transport t(1, PayloadMode::Real);
    const std::uint64_t v[2] = {1, 2};
    std::uint64_t out[4] = {};

    PostedRecv no_flag = make_recv(1, 0, 0, out, sizeof(v), false);
    t.post_recv(0, &no_flag);
    t.deliver(0, make_msg(1, 0, 0, sizeof(v), v));
    ASSERT_TRUE(no_flag.completed);
    EXPECT_EQ(no_flag.kept, nullptr);

    PostedRecv truncated = make_recv(1, 0, 0, out, sizeof(v) - 1, true);
    t.post_recv(0, &truncated);
    t.deliver(0, make_msg(1, 0, 0, sizeof(v), v));
    ASSERT_TRUE(truncated.completed);
    EXPECT_TRUE(truncated.truncated);
    EXPECT_EQ(truncated.kept, nullptr);

    // A shorter message fills only part of the buffer: its payload is not
    // the bytes a forward of the whole buffer would send.
    PostedRecv short_msg = make_recv(1, 0, 0, out, sizeof(out), true);
    t.post_recv(0, &short_msg);
    t.deliver(0, make_msg(1, 0, 0, sizeof(v), v));
    ASSERT_TRUE(short_msg.completed);
    EXPECT_EQ(short_msg.kept, nullptr);

    // A tombstone is never kept, even one that still carries bytes.
    PostedRecv tomb = make_recv(1, 0, 0, out, sizeof(v), true);
    t.post_recv(0, &tomb);
    InMsg dropped = make_msg(1, 0, 0, sizeof(v), v);
    dropped.dropped = true;
    t.deliver(0, std::move(dropped));
    ASSERT_TRUE(tomb.completed);
    EXPECT_TRUE(tomb.dropped);
    EXPECT_EQ(tomb.kept, nullptr);

    // And a tombstone made by the fault plan.
    FaultPlan drop_all;
    drop_all.drop_every = 1;
    t.set_fault_plan(&drop_all);
    PostedRecv lost = make_recv(kFirstUserCtx, 0, 0, out, sizeof(v), true);
    t.post_recv(0, &lost);
    t.deliver(0, make_msg(kFirstUserCtx, 0, 0, sizeof(v), v));
    ASSERT_TRUE(lost.completed);
    EXPECT_TRUE(lost.dropped);
    EXPECT_EQ(lost.kept, nullptr);
    t.set_fault_plan(nullptr);
}

TEST(Transport, CorruptingOneDeliveryOfASharedPayloadCopiesOnWrite) {
    // One payload, delivered to mailboxes 1 and 2 (as a root sends one
    // payload to two children), under a plan that corrupts only the
    // delivery to 1.
    FaultPlan plan;
    plan.corrupt_every = 2;
    while (!(plan.should_corrupt(0, 1, 0) && !plan.should_corrupt(0, 2, 0))) {
        ++plan.seed;
    }
    Transport t(3, PayloadMode::Real);
    t.set_fault_plan(&plan);

    std::array<std::byte, 64> v;
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::byte(i * 3 + 1);
    const InMsg proto = make_msg(kFirstUserCtx, 0, 0, v.size(), v.data());
    const Payload shared = proto.payload;
    for (int dst : {1, 2}) {
        InMsg m = make_msg(kFirstUserCtx, 0, 0, v.size());
        m.payload = shared;
        t.deliver(dst, std::move(m));
    }

    std::array<std::byte, 64> out1{}, out2{};
    PostedRecv r1 = make_recv(kFirstUserCtx, 0, 0, out1.data(), 64, true);
    PostedRecv r2 = make_recv(kFirstUserCtx, 0, 0, out2.data(), 64, true);
    t.post_recv(1, &r1);
    t.post_recv(2, &r2);
    ASSERT_TRUE(r1.completed && r2.completed);

    const std::size_t bad = plan.corrupt_byte(0, 1, 0, v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(out1[i], i == bad ? (v[i] ^ std::byte{0x40}) : v[i]) << i;
    }
    EXPECT_EQ(out2, v) << "the other receiver's bytes must stay intact";
    EXPECT_EQ(std::memcmp(shared.get(), v.data(), v.size()), 0)
        << "the sender's payload must stay intact";
    EXPECT_EQ(r2.kept, shared);
    EXPECT_NE(r1.kept, shared) << "the corrupted delivery got its own copy";
}

TEST(Transport, DuplicateCarriesTheOriginalsBytes) {
    FaultPlan plan;
    plan.dup_every = 1;
    Transport t(2, PayloadMode::Real);
    t.set_fault_plan(&plan);
    const std::uint64_t v[4] = {11, 22, 33, 44};
    InMsg m = make_msg(kFirstUserCtx, 0, 5, sizeof(v), v);
    const Payload sent = m.payload;
    t.deliver(1, std::move(m));
    EXPECT_EQ(t.unexpected_count(1), 2u);

    std::uint64_t a[4] = {}, b[4] = {};
    PostedRecv ra = make_recv(kFirstUserCtx, 0, 5, a, sizeof(a), true);
    PostedRecv rb = make_recv(kFirstUserCtx, 0, 5, b, sizeof(b), true);
    t.post_recv(1, &ra);
    t.post_recv(1, &rb);
    ASSERT_TRUE(ra.completed && rb.completed);
    EXPECT_EQ(std::memcmp(a, v, sizeof(v)), 0);
    EXPECT_EQ(std::memcmp(b, v, sizeof(v)), 0);
    EXPECT_GT(rb.arrival, ra.arrival) << "the duplicate trails the original";
    EXPECT_EQ(ra.kept, sent);
    EXPECT_EQ(rb.kept, sent) << "the duplicate shares the original's bytes";
}
