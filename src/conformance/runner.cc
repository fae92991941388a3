#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <sstream>

#include "conformance/conformance.h"
#include "minimpi/coll.h"
#include "minimpi/context.h"
#include "robust/checksum.h"

namespace conformance {

namespace {

using hympi::AllgatherChannel;
using hympi::AllreduceChannel;
using hympi::AlltoallChannel;
using hympi::BcastChannel;
using hympi::GatherChannel;
using hympi::HierComm;
using hympi::ReduceChannel;
using hympi::ScatterChannel;
using minimpi::Comm;
using minimpi::Datatype;
using minimpi::PersistentColl;
using minimpi::RankCtx;
using minimpi::VTime;
using hympi::robust::fill_pattern;
using hympi::robust::mix64;

/// Per-rank findings. Each rank thread writes only its own entry, so the
/// vector needs no locking; after the join the lowest failing rank wins
/// (deterministic pick regardless of which thread hit its mismatch first).
struct RankLog {
    std::string err;
    VTime last_checkpoint = 0.0;
};

void fail(RankLog& log, std::string msg) {
    if (log.err.empty()) log.err = std::move(msg);
}

/// Virtual clocks must never run backwards across a rank's own program
/// order — sample at every iteration boundary.
void checkpoint(RankLog& log, RankCtx& ctx, const char* where) {
    const VTime now = ctx.clock.now();
    if (now < log.last_checkpoint) {
        std::ostringstream os;
        os << "clock regressed at " << where << ": " << now << " < "
           << log.last_checkpoint;
        fail(log, os.str());
    }
    log.last_checkpoint = now;
}

/// Complete one hybrid split-phase round issued via start(). Persistent
/// additionally spins on the zero-cost test() poll first, exercising the
/// progress path; the poll must not move any virtual clock.
void drive_split(const CaseSpec& spec, minimpi::CollRequest rq) {
    if (spec.exec == ExecMode::Persistent) {
        while (!rq.test()) {
        }
    }
    rq.wait();
}

std::uint64_t salt_of(int iter, int a, int b = 0) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(iter))
            << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 20) |
           static_cast<std::uint32_t>(b);
}

/// Deterministic reduction inputs. Magnitudes stay small enough that Sum
/// over any supported rank count cannot overflow (overflow would be UB for
/// the signed types and would void the byte-identity claim).
void fill_red(std::byte* dst, std::size_t count, Datatype dt,
              std::uint64_t seed, std::uint64_t salt) {
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t h = mix64(seed ^ (salt * 0xA24BAED4963EE407ULL) ^ i);
        switch (dt) {
            case Datatype::Int32: {
                const std::int32_t v =
                    static_cast<std::int32_t>(h & 0xFFFF) - 0x8000;
                std::memcpy(dst + i * 4, &v, 4);
                break;
            }
            case Datatype::Int64: {
                const std::int64_t v =
                    static_cast<std::int64_t>(h & 0xFFFFF) - 0x80000;
                std::memcpy(dst + i * 8, &v, 8);
                break;
            }
            default: {  // UInt64
                const std::uint64_t v = h & 0xFFFFF;
                std::memcpy(dst + i * 8, &v, 8);
                break;
            }
        }
    }
}

/// Elementwise reference reduction computed locally (used where the flat
/// result is not addressable on this rank, e.g. non-root ranks of the
/// root's node).
template <typename T>
void apply_red(minimpi::Op op, T* inout, const T* in, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        switch (op) {
            case minimpi::Op::Sum: inout[i] = inout[i] + in[i]; break;
            case minimpi::Op::Min: inout[i] = std::min(inout[i], in[i]); break;
            case minimpi::Op::Max: inout[i] = std::max(inout[i], in[i]); break;
            case minimpi::Op::BitAnd: inout[i] = inout[i] & in[i]; break;
            default: inout[i] = inout[i] | in[i]; break;  // BitOr
        }
    }
}

std::vector<std::byte> expected_reduction(const CaseSpec& spec,
                                          std::size_t count, int nranks) {
    const std::size_t ds = datatype_size(spec.dt);
    std::vector<std::byte> acc(count * ds), in(count * ds);
    if (count == 0) return acc;
    fill_red(acc.data(), count, spec.dt, spec.seed, salt_of(0, 0));
    for (int r = 1; r < nranks; ++r) {
        fill_red(in.data(), count, spec.dt, spec.seed, salt_of(0, r));
        switch (spec.dt) {
            case Datatype::Int32:
                apply_red(spec.red_op,
                          reinterpret_cast<std::int32_t*>(acc.data()),
                          reinterpret_cast<const std::int32_t*>(in.data()),
                          count);
                break;
            case Datatype::Int64:
                apply_red(spec.red_op,
                          reinterpret_cast<std::int64_t*>(acc.data()),
                          reinterpret_cast<const std::int64_t*>(in.data()),
                          count);
                break;
            default:
                apply_red(spec.red_op,
                          reinterpret_cast<std::uint64_t*>(acc.data()),
                          reinterpret_cast<const std::uint64_t*>(in.data()),
                          count);
                break;
        }
    }
    return acc;
}

void expect_eq(RankLog& log, const std::byte* got, const std::byte* want,
               std::size_t n, const char* what, int iter, int block) {
    if (n == 0 || !log.err.empty()) return;
    if (got == nullptr || want == nullptr) {
        std::ostringstream os;
        os << what << " iter " << iter << " block " << block
           << ": null buffer with " << n << " bytes expected";
        fail(log, os.str());
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (got[i] != want[i]) {
            std::ostringstream os;
            os << what << " iter " << iter << " block " << block << " byte "
               << i << ": hybrid=0x" << std::hex
               << static_cast<int>(got[i]) << " flat=0x"
               << static_cast<int>(want[i]);
            fail(log, os.str());
            return;
        }
    }
}

// ---- per-op differential bodies ----------------------------------------

void diff_allgather(const CaseSpec& spec, Comm& active, HierComm& hc,
                    RankLog& log) {
    const int n = active.size();
    const int me = active.rank();
    const std::size_t bb = spec.block_bytes;
    AllgatherChannel ch(hc, bb);
    ch.set_socket_staging(spec.staging);
    ch.set_chunk_bytes(spec.chunk_bytes);
    std::vector<std::byte> mine(bb);
    std::vector<std::byte> ref(bb * static_cast<std::size_t>(n));
    PersistentColl pc;
    if (spec.exec == ExecMode::Persistent) {
        pc = PersistentColl::allgather_init(active, mine.data(), bb,
                                            ref.data(), Datatype::Byte);
    }
    for (int it = 0; it < spec.iterations; ++it) {
        fill_pattern(mine.data(), bb, spec.seed, salt_of(it, me));
        if (bb > 0) std::memcpy(ch.my_block(), mine.data(), bb);
        if (spec.exec == ExecMode::Blocking) {
            ch.run(spec.sync, spec.bridge);
            minimpi::allgather(active, mine.data(), bb, ref.data(),
                               Datatype::Byte);
        } else {
            drive_split(spec, ch.start(spec.sync, spec.bridge));
            if (spec.exec == ExecMode::Nonblocking) {
                minimpi::iallgather(active, mine.data(), bb, ref.data(),
                                    Datatype::Byte)
                    .wait();
            } else {
                pc.start();
                pc.wait();
            }
        }
        for (int r = 0; r < n; ++r) {
            expect_eq(log, ch.block_of(r),
                      ref.data() + static_cast<std::size_t>(r) * bb, bb,
                      "allgather", it, r);
        }
        checkpoint(log, active.ctx(), "allgather");
        ch.quiesce(spec.sync);
    }
}

void diff_allgatherv(const CaseSpec& spec, Comm& active, HierComm& hc,
                     RankLog& log) {
    const int n = active.size();
    const int me = active.rank();
    const auto counts = spec.derive_v_bytes(n);
    std::vector<std::size_t> displs(static_cast<std::size_t>(n));
    std::size_t total = 0;
    for (int r = 0; r < n; ++r) {
        displs[static_cast<std::size_t>(r)] = total;
        total += counts[static_cast<std::size_t>(r)];
    }
    AllgatherChannel ch(hc, counts);
    ch.set_socket_staging(spec.staging);
    ch.set_chunk_bytes(spec.chunk_bytes);
    const std::size_t mb = counts[static_cast<std::size_t>(me)];
    std::vector<std::byte> mine(mb);
    std::vector<std::byte> ref(total);
    PersistentColl pc;
    if (spec.exec == ExecMode::Persistent) {
        pc = PersistentColl::allgatherv_init(active, mine.data(), mb,
                                             ref.data(), counts, displs,
                                             Datatype::Byte);
    }
    for (int it = 0; it < spec.iterations; ++it) {
        fill_pattern(mine.data(), mb, spec.seed, salt_of(it, me));
        if (mb > 0) std::memcpy(ch.my_block(), mine.data(), mb);
        if (spec.exec == ExecMode::Blocking) {
            ch.run(spec.sync, spec.bridge);
            minimpi::allgatherv(active, mine.data(), mb, ref.data(), counts,
                                displs, Datatype::Byte);
        } else {
            drive_split(spec, ch.start(spec.sync, spec.bridge));
            if (spec.exec == ExecMode::Nonblocking) {
                minimpi::iallgatherv(active, mine.data(), mb, ref.data(),
                                     counts, displs, Datatype::Byte)
                    .wait();
            } else {
                pc.start();
                pc.wait();
            }
        }
        for (int r = 0; r < n; ++r) {
            expect_eq(log, ch.block_of(r),
                      ref.data() + displs[static_cast<std::size_t>(r)],
                      counts[static_cast<std::size_t>(r)], "allgatherv", it,
                      r);
        }
        checkpoint(log, active.ctx(), "allgatherv");
        ch.quiesce(spec.sync);
    }
}

void diff_bcast(const CaseSpec& spec, Comm& active, HierComm& hc,
                RankLog& log) {
    const int n = active.size();
    const int me = active.rank();
    const std::size_t bb = spec.block_bytes;
    BcastChannel ch(hc, bb);
    ch.set_socket_staging(spec.staging);
    ch.set_chunk_bytes(spec.chunk_bytes);
    std::vector<std::byte> flat(bb);
    for (int it = 0; it < spec.iterations; ++it) {
        const int root = (spec.derive_root(n) + it) % n;  // rotate roots
        if (me == root) {
            fill_pattern(flat.data(), bb, spec.seed, salt_of(it, root, 1));
            if (bb > 0) std::memcpy(ch.write_buffer(), flat.data(), bb);
        }
        if (spec.exec == ExecMode::Blocking) {
            ch.run(root, spec.sync);
            minimpi::bcast(active, flat.data(), bb, Datatype::Byte, root);
        } else {
            drive_split(spec, ch.start(root, spec.sync));
            if (spec.exec == ExecMode::Nonblocking) {
                minimpi::ibcast(active, flat.data(), bb, Datatype::Byte, root)
                    .wait();
            } else {
                // The root rotates per iteration, so the persistent request
                // is re-initialized each round (init/start/wait/destroy is
                // itself a lifecycle worth fuzzing).
                PersistentColl pc = PersistentColl::bcast_init(
                    active, flat.data(), bb, Datatype::Byte, root);
                pc.start();
                pc.wait();
            }
        }
        expect_eq(log, ch.read_buffer(), flat.data(), bb, "bcast", it, root);
        checkpoint(log, active.ctx(), "bcast");
    }
}

void diff_allreduce(const CaseSpec& spec, Comm& active, HierComm& hc,
                    RankLog& log) {
    const int me = active.rank();
    const std::size_t ds = datatype_size(spec.dt);
    const std::size_t count = spec.block_bytes / ds;
    AllreduceChannel ch(hc, count, spec.dt);
    ch.set_socket_staging(spec.staging);
    ch.set_chunk_bytes(spec.chunk_bytes);
    std::vector<std::byte> mine(count * ds);
    std::vector<std::byte> ref(count * ds);
    PersistentColl pc;
    if (spec.exec == ExecMode::Persistent) {
        pc = PersistentColl::allreduce_init(active, mine.data(), ref.data(),
                                            count, spec.dt, spec.red_op);
    }
    for (int it = 0; it < spec.iterations; ++it) {
        // Inputs are iteration-independent (salt iter 0) so the locally
        // computed expected_reduction can double-check every iteration.
        fill_red(mine.data(), count, spec.dt, spec.seed, salt_of(0, me));
        if (count > 0) std::memcpy(ch.my_input(), mine.data(), count * ds);
        if (spec.exec == ExecMode::Blocking) {
            ch.run(spec.red_op, spec.sync);
            minimpi::allreduce(active, mine.data(), ref.data(), count,
                               spec.dt, spec.red_op);
        } else {
            drive_split(spec, ch.start(spec.red_op, spec.sync));
            if (spec.exec == ExecMode::Nonblocking) {
                minimpi::iallreduce(active, mine.data(), ref.data(), count,
                                    spec.dt, spec.red_op)
                    .wait();
            } else {
                pc.start();
                pc.wait();
            }
        }
        expect_eq(log, ch.result(), ref.data(), count * ds, "allreduce", it,
                  0);
        checkpoint(log, active.ctx(), "allreduce");
    }
    const auto expected = expected_reduction(spec, count, active.size());
    expect_eq(log, ref.data(), expected.data(), count * ds,
              "allreduce-vs-local", spec.iterations - 1, 0);
}

void diff_reduce(const CaseSpec& spec, Comm& active, HierComm& hc,
                 RankLog& log) {
    const int me = active.rank();
    const std::size_t ds = datatype_size(spec.dt);
    const std::size_t count = spec.block_bytes / ds;
    const int root = spec.derive_root(active.size());
    ReduceChannel ch(hc, count, spec.dt, root);
    const bool on_root_node = hc.my_node() == hc.node_of_rank(root);
    std::vector<std::byte> mine(count * ds);
    std::vector<std::byte> ref(count * ds);
    const auto expected = expected_reduction(spec, count, active.size());
    for (int it = 0; it < spec.iterations; ++it) {
        fill_red(mine.data(), count, spec.dt, spec.seed, salt_of(0, me));
        if (count > 0) std::memcpy(ch.my_input(), mine.data(), count * ds);
        ch.run(spec.red_op, spec.sync);
        minimpi::reduce(active, mine.data(), ref.data(), count, spec.dt,
                        spec.red_op, root);
        if (me == root) {
            expect_eq(log, ch.result(), ref.data(), count * ds, "reduce", it,
                      0);
        }
        // The hybrid result is node-shared: every rank of the root's node
        // must see it (the flat reference exists only at the root itself).
        if (on_root_node) {
            expect_eq(log, ch.result(), expected.data(), count * ds,
                      "reduce-node-visibility", it, 0);
        }
        checkpoint(log, active.ctx(), "reduce");
        minimpi::barrier(active);  // root-node readers vs next writers
    }
}

void diff_gather(const CaseSpec& spec, Comm& active, HierComm& hc,
                 RankLog& log) {
    const int n = active.size();
    const int me = active.rank();
    const std::size_t bb = spec.block_bytes;
    const int root = spec.derive_root(n);
    GatherChannel ch(hc, bb, root);
    const bool on_root_node = hc.my_node() == hc.node_of_rank(root);
    std::vector<std::byte> mine(bb);
    std::vector<std::byte> ref(bb * static_cast<std::size_t>(n));
    std::vector<std::byte> want(bb);
    for (int it = 0; it < spec.iterations; ++it) {
        fill_pattern(mine.data(), bb, spec.seed, salt_of(it, me));
        if (bb > 0) std::memcpy(ch.my_block(), mine.data(), bb);
        ch.run(spec.sync);
        minimpi::gather(active, mine.data(), bb, ref.data(), Datatype::Byte,
                        root);
        if (me == root) {
            for (int r = 0; r < n; ++r) {
                expect_eq(log, ch.gathered(r),
                          ref.data() + static_cast<std::size_t>(r) * bb, bb,
                          "gather", it, r);
            }
        } else if (on_root_node) {
            // Gathered vector exists ONCE on the root's node — check that
            // the other node members see every contribution too.
            for (int r = 0; r < n; ++r) {
                fill_pattern(want.data(), bb, spec.seed, salt_of(it, r));
                expect_eq(log, ch.gathered(r), want.data(), bb,
                          "gather-node-visibility", it, r);
            }
        }
        checkpoint(log, active.ctx(), "gather");
        minimpi::barrier(active);  // root-node readers vs next writers
    }
}

void diff_scatter(const CaseSpec& spec, Comm& active, HierComm& hc,
                  RankLog& log) {
    const int n = active.size();
    const int me = active.rank();
    const std::size_t bb = spec.block_bytes;
    const int root = spec.derive_root(n);
    ScatterChannel ch(hc, bb, root);
    std::vector<std::byte> send(bb * static_cast<std::size_t>(n));
    std::vector<std::byte> flat(bb);
    for (int it = 0; it < spec.iterations; ++it) {
        if (me == root) {
            for (int r = 0; r < n; ++r) {
                std::byte* blk = send.data() + static_cast<std::size_t>(r) * bb;
                fill_pattern(blk, bb, spec.seed, salt_of(it, r, 2));
                if (bb > 0) std::memcpy(ch.outgoing(r), blk, bb);
            }
        }
        ch.run(spec.sync);
        minimpi::scatter(active, send.data(), bb, flat.data(), Datatype::Byte,
                         root);
        expect_eq(log, ch.my_block(), flat.data(), bb, "scatter", it, me);
        checkpoint(log, active.ctx(), "scatter");
        minimpi::barrier(active);  // readers vs the root's next writes
    }
}

void diff_alltoall(const CaseSpec& spec, Comm& active, HierComm& hc,
                   RankLog& log) {
    const int n = active.size();
    const int me = active.rank();
    const std::size_t bb = spec.block_bytes;
    AlltoallChannel ch(hc, bb);
    std::vector<std::byte> send(bb * static_cast<std::size_t>(n));
    std::vector<std::byte> recv(bb * static_cast<std::size_t>(n));
    for (int it = 0; it < spec.iterations; ++it) {
        for (int d = 0; d < n; ++d) {
            std::byte* blk = send.data() + static_cast<std::size_t>(d) * bb;
            fill_pattern(blk, bb, spec.seed, salt_of(it, me, d));
            if (bb > 0) std::memcpy(ch.send_block(d), blk, bb);
        }
        ch.run(spec.sync);
        minimpi::alltoall(active, send.data(), bb, recv.data(),
                          Datatype::Byte);
        for (int s = 0; s < n; ++s) {
            expect_eq(log, ch.recv_block(s),
                      recv.data() + static_cast<std::size_t>(s) * bb, bb,
                      "alltoall", it, s);
        }
        checkpoint(log, active.ctx(), "alltoall");
        minimpi::barrier(active);  // recv-row readers vs next transpose
    }
}

void dispatch_op(const CaseSpec& spec, Comm& active, HierComm& hc,
                 RankLog& log) {
    switch (spec.op) {
        case CollOp::Allgather: diff_allgather(spec, active, hc, log); break;
        case CollOp::Allgatherv: diff_allgatherv(spec, active, hc, log); break;
        case CollOp::Bcast: diff_bcast(spec, active, hc, log); break;
        case CollOp::Allreduce: diff_allreduce(spec, active, hc, log); break;
        case CollOp::Reduce: diff_reduce(spec, active, hc, log); break;
        case CollOp::Gather: diff_gather(spec, active, hc, log); break;
        case CollOp::Scatter: diff_scatter(spec, active, hc, log); break;
        case CollOp::Alltoall: diff_alltoall(spec, active, hc, log); break;
    }
}

void case_body(const CaseSpec& spec, Comm& world, RankLog& log) {
    const auto members = spec.derive_members();
    const bool in_active =
        std::find(members.begin(), members.end(), world.rank()) !=
        members.end();
    // The split is collective over world even for ranks that sit out.
    Comm active = world.split(in_active ? 0 : minimpi::kUndefined,
                              world.rank());
    if (!in_active) return;

    checkpoint(log, active.ctx(), "start");
    // Warm the flat hierarchy cache at one fixed program point for every
    // exec mode. PersistentColl *_init builds it eagerly at init time while
    // the blocking reference builds it lazily at its first collective; the
    // build is two synchronizing splits, and moving that charge across the
    // hybrid round's barriers shifts slack between ranks — a legitimate
    // charging difference between the two programs, not an engine bug.
    // Pinning the build here keeps the blocking-twin clock identity exact.
    if (minimpi::detail::smp_hier_applicable(active)) {
        minimpi::detail::hier(active);
    }
    HierComm hc(active, spec.leaders);
    dispatch_op(spec, active, hc, log);
    checkpoint(log, active.ctx(), "end");
}

// ---- kill-injection (ULFM recovery) bodies -----------------------------

/// World ranks the plan kills, ascending: the victim alone, or its whole
/// node (kill_node cases pin SMP placement, so node membership is a
/// prefix-sum function of the spec).
std::vector<int> derive_kill_set(const CaseSpec& spec) {
    if (!spec.kill_node) return {spec.kill_rank};
    int lo = 0;
    for (const int n : spec.procs_per_node) {
        if (spec.kill_rank < lo + n) {
            std::vector<int> v(static_cast<std::size_t>(n));
            std::iota(v.begin(), v.end(), lo);
            return v;
        }
        lo += n;
    }
    return {spec.kill_rank};
}

/// Differential body for a kill case, run by every rank (victims included
/// — they execute it until the plan kills them).
///
/// Phase 1 provokes: run the regular differential body with an extended
/// iteration budget until the failure surfaces as a typed error (pre-kill
/// rounds are complete, valid diffs; the round that touches the dead rank
/// throws before any comparison, so a scratch mismatch is a genuine bug).
/// Phase 2 recovers ULFM-style on the ROOT world — revoke, agree+shrink,
/// rebuild the hierarchy — which gives every survivor one uniform
/// rendezvous even when the kill lands during the split/HierComm setup and
/// different ranks got different distances into it. Phase 3 is the
/// survivor-equivalence oracle: the agreed failed set must equal the
/// planned kill set, and the normal differential body must pass on the
/// shrunken communicator exactly as on a fresh run of the survivor set.
void kill_case_body(const CaseSpec& spec, const std::vector<int>& killset,
                    Comm& world, RankLog& log) {
    RankCtx& ctx = world.ctx();
    bool surfaced = false;
    std::shared_ptr<HierComm> hc;
    RankLog scratch;
    try {
        CaseSpec provoke = spec;
        provoke.iterations = spec.iterations * 4 + 8;
        Comm active = world.split(0, world.rank());
        if (minimpi::detail::smp_hier_applicable(active)) {
            minimpi::detail::hier(active);
        }
        hc = std::make_shared<HierComm>(active, spec.leaders);
        dispatch_op(provoke, active, *hc, scratch);
    } catch (const minimpi::ProcessFailedError&) {
        surfaced = true;
    } catch (const minimpi::CommRevokedError&) {
        surfaced = true;
    }
    // A victim that surfaced a PEER's death (or the revocation) before
    // crossing its own kill time must still die per the plan instead of
    // joining the agreement as a survivor: walk its clock forward until the
    // kill fires (RankKilled unwinds to the runtime like any other death).
    if (std::find(killset.begin(), killset.end(), world.to_world()) !=
        killset.end()) {
        for (;;) {
            ctx.clock.advance(1.0);
            minimpi::detail::check_alive(ctx);
        }
    }
    if (!scratch.err.empty()) {
        fail(log, "provoke phase: " + scratch.err);
        return;
    }
    if (!surfaced) {
        fail(log, "kill never surfaced: provoke loop ran to completion");
        return;
    }
    // Revoke before agreeing: unparks survivors still blocked in waits that
    // do not involve the dead rank directly (on-node flag rounds, bridge
    // legs between live nodes). Revocation flags live in shared CommState,
    // so it is harmless that ranks which died mid-setup never built `hc`.
    world.revoke();
    if (hc) hympi::revoke_hierarchy(*hc);
    hympi::RecoveryResult rec = hympi::shrink_and_rebuild(world, spec.leaders);

    if (rec.failed_world != killset) {
        std::ostringstream os;
        os << "agreed failed set {";
        for (std::size_t i = 0; i < rec.failed_world.size(); ++i) {
            os << (i ? "," : "") << rec.failed_world[i];
        }
        os << "} != planned kill set {";
        for (std::size_t i = 0; i < killset.size(); ++i) {
            os << (i ? "," : "") << killset[i];
        }
        os << "}";
        fail(log, os.str());
        return;
    }
    if (rec.world.size() + static_cast<int>(killset.size()) != world.size()) {
        fail(log, "shrunken comm size " + std::to_string(rec.world.size()) +
                      " inconsistent with " + std::to_string(killset.size()) +
                      " kills in a world of " + std::to_string(world.size()));
        return;
    }
    dispatch_op(spec, rec.world, *rec.hier, log);
    checkpoint(log, ctx, "post-recovery");
}

/// Execute @p spec in one virtual-time runtime. @p killset non-empty means
/// spec.faults.kills is armed and ranks run the recovery body instead of
/// the plain differential body.
CaseResult run_built_case(const CaseSpec& spec,
                          const std::vector<int>& killset) {
    CaseResult res;
    minimpi::ClusterSpec cluster = minimpi::ClusterSpec::irregular(
        spec.procs_per_node, spec.placement, spec.sockets);
    minimpi::Runtime rt(cluster, spec.cray_profile
                                     ? minimpi::ModelParams::cray()
                                     : minimpi::ModelParams::openmpi());
    rt.set_fault_plan(spec.faults);
    // Pin the robust config explicitly: cases must behave identically no
    // matter what HYMPI_ROBUST/HYMPI_RETRY_MAX/... are set to in the
    // environment of the process running the harness.
    hympi::RobustConfig rc;
    rc.enabled = spec.robust;
    // Generated plans drop/corrupt up to one frame in three; the default
    // budget of 8 leaves ~(1/3)^9 odds per flow of a legitimate
    // retries-exhausted abort, which across a many-thousand-flow sweep
    // surfaces as a rare seed-dependent failure. Doubling the budget puts
    // the exhaustion probability below 1e-8 per flow while still
    // exercising the same retry/backoff machinery.
    rc.retry_max = 16;
    rt.set_robust_config(rc);
    std::vector<RankLog> logs(
        static_cast<std::size_t>(cluster.total_ranks()));
    try {
        res.clocks = rt.run([&](Comm& world) {
            RankLog& log = logs[static_cast<std::size_t>(world.rank())];
            if (killset.empty()) {
                case_body(spec, world, log);
            } else {
                kill_case_body(spec, killset, world, log);
            }
        });
        res.robust_stats = rt.last_robust_stats();
    } catch (const std::exception& e) {
        res.ok = false;
        res.detail = std::string("exception: ") + e.what();
        return res;
    }
    for (std::size_t r = 0; r < logs.size(); ++r) {
        if (!logs[r].err.empty()) {
            res.ok = false;
            res.detail = "rank " + std::to_string(r) + ": " + logs[r].err;
            break;
        }
    }
    return res;
}

}  // namespace

CaseResult run_case(const CaseSpec& spec) {
    if (spec.kill_rank < 0) return run_built_case(spec, {});

    // Kill cases aim the failure mid-collective regardless of topology or
    // payload: a clean twin (same spec, kill disabled) measures the
    // fault-free completion time, and the kill lands at kill_frac of it.
    CaseSpec clean = spec;
    clean.kill_rank = -1;
    clean.kill_node = false;
    CaseResult probe = run_built_case(clean, {});
    if (!probe.ok) {
        probe.detail = "clean twin: " + probe.detail;
        return probe;
    }
    VTime total = 0.0;
    for (const VTime t : probe.clocks) total = std::max(total, t);

    const std::vector<int> killset = derive_kill_set(spec);
    CaseSpec armed = spec;
    for (const int w : killset) {
        armed.faults.kill(w, spec.kill_frac * total);
    }
    return run_built_case(armed, killset);
}

CaseResult run_case_checked(const CaseSpec& spec) {
    CaseResult a = run_case(spec);
    if (!a.ok) return a;
    CaseResult b = run_case(spec);
    if (!b.ok) return b;
    // Kill cases must reach the same verified end state in both runs (the
    // recovery body checks the agreed failed set and the survivor bytes),
    // but the detection interleaving is free to differ: whether a given
    // wait surfaces the dead peer (charged) or the revocation raced in
    // first (uncharged) is a wall-clock race by design, so exact clock and
    // counter identity is only required of kill-free cases.
    if (spec.kill_rank >= 0) return a;
    for (std::size_t r = 0; r < a.clocks.size(); ++r) {
        if (a.clocks[r] != b.clocks[r]) {
            std::ostringstream os;
            os.precision(17);
            os << "nondeterministic clock at rank " << r << ": "
               << a.clocks[r] << " vs " << b.clocks[r];
            a.ok = false;
            a.detail = os.str();
            return a;
        }
    }
    // Determinism under recovery: retries, downgrades and every other
    // resilience counter must repeat exactly for the same seed and plan.
    for (std::size_t r = 0; r < a.robust_stats.size(); ++r) {
        if (!(a.robust_stats[r] == b.robust_stats[r])) {
            a.ok = false;
            a.detail = "nondeterministic robust counters at rank " +
                       std::to_string(r);
            return a;
        }
    }
    // Immediate-wait identity: the harness never computes between start()
    // and wait(), so the non-blocking modes must replay the blocking
    // charging exactly — on 1-socket cases the clocks have to match a
    // Blocking twin bit for bit. (Multi-socket cases legitimately differ:
    // the split-phase wait always distributes flat, a blocking round may
    // stage through the socket leaders.)
    if (spec.exec != ExecMode::Blocking && spec.sockets == 1) {
        CaseSpec twin = spec;
        twin.exec = ExecMode::Blocking;
        const CaseResult blk = run_case(twin);
        if (!blk.ok) return blk;
        for (std::size_t r = 0; r < a.clocks.size(); ++r) {
            if (a.clocks[r] != blk.clocks[r]) {
                std::ostringstream os;
                os.precision(17);
                os << exec_name(spec.exec)
                   << " clock diverges from the blocking twin at rank " << r
                   << ": " << a.clocks[r] << " vs " << blk.clocks[r];
                a.ok = false;
                a.detail = os.str();
                return a;
            }
        }
    }
    return a;
}

}  // namespace conformance
