#include "robust/reliable.h"

#include <cstring>
#include <functional>
#include <vector>

#include "minimpi/context.h"
#include "minimpi/p2p.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"
#include "minimpi/transport.h"
#include "robust/checksum.h"

namespace hympi::robust {

namespace {

using minimpi::Comm;
using minimpi::PostedRecv;
using minimpi::RankCtx;
using minimpi::VTime;

void send_ctrl(const Comm& comm, int peer, int op_tag, FrameKind kind,
               std::uint64_t gen) {
    minimpi::detail::send_frame(comm, nullptr, 0, peer,
                                make_tag(op_tag, kind, gen),
                                minimpi::kRobustCtrlCtx, false);
}

/// Base of the retransmission backoff, in virtual microseconds.
constexpr double kBackoffBaseUs = 2.0;

/// Deterministic jittered exponential backoff for the @p attempt-th
/// retransmission: kBackoffBaseUs * 2^(attempt-2) * [0.5, 1.5). Charged in
/// virtual time only — a pure function of (gen, attempt, rank), so
/// identical runs back off identically and the vtime/determinism tests
/// hold under faults.
VTime backoff_us(std::uint64_t gen, int attempt, int world_rank) {
    const std::uint64_t h =
        mix64(gen ^ mix64((static_cast<std::uint64_t>(attempt) << 32) |
                          static_cast<std::uint32_t>(world_rank)));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    double b = kBackoffBaseUs;
    for (int i = 2; i < attempt; ++i) b *= 2.0;
    return b * (0.5 + u);
}

}  // namespace

std::uint64_t alloc_channel_uid(const minimpi::Comm& comm) {
    return comm.state()
        .member_chan_seq.at(static_cast<std::size_t>(comm.rank()))++;
}

bool reliable_xfer(const minimpi::Comm& comm, const void* sbuf,
                   std::size_t sbytes, int dest, void* rbuf,
                   std::size_t rbytes, int src, int op_tag, std::uint64_t gen,
                   const RobustConfig& cfg, RobustStats& st) {
    RankCtx& ctx = comm.ctx();
    minimpi::Transport& tp = ctx.runtime->transport();
    RobustStats& agg = ctx.robust_stats;
    // Every counter is kept per channel (@p st) and per rank (agg).
    const auto count = [&](std::uint64_t RobustStats::*field) {
        st.*field += 1;
        agg.*field += 1;
    };
    const bool real = ctx.payload_mode == minimpi::PayloadMode::Real;
    const int data_tag = make_tag(op_tag, FrameKind::Data, gen);
    // A receiver NACKs at most retry_max times before FAILing, so stale
    // frames per transfer are bounded; the cap only guards exotic schedules.
    const int stale_cap = cfg.retry_max * 4 + 4;

    // --- sending direction -------------------------------------------------
    const bool sending = dest != minimpi::kProcNull;
    bool send_done = !sending;
    bool send_ok = true;
    int attempt = 1;
    std::vector<std::byte> sframe;
    PostedRecv ctrl_pr;
    const auto post_ctrl = [&] {
        minimpi::detail::post_frame_recv(comm, &ctrl_pr, nullptr, 0, dest,
                                         minimpi::kAnyTag,
                                         minimpi::kRobustCtrlCtx);
    };
    if (sending) {
        sframe.resize(sizeof(FrameHeader) + sbytes);
        FrameHeader h;
        h.magic = kFrameMagic;
        h.gen = gen;
        h.attempt = 1;
        h.bytes = sbytes;
        std::memcpy(sframe.data(), &h, sizeof(h));
        ctx.copy_bytes(sframe.data() + sizeof(h), sbuf, sbytes);
        // Checksum scan cost, charged in both payload modes so Real and
        // SizeOnly timings agree under drop/dup plans. The sum is taken over
        // the FRAME payload (not sbuf) so it agrees with the receiver's
        // verification for zero-byte and null contributions (a zero-byte
        // buffer has a null base but a well-defined sum).
        ctx.charge_memcpy(sbytes);
        if (real) {
            h.checksum = frame_checksum(sframe.data() + sizeof(h), sbytes,
                                        h.gen, h.bytes);
            std::memcpy(sframe.data(), &h, sizeof(h));
        }
        minimpi::detail::send_frame(comm, sframe.data(), sframe.size(), dest,
                                    data_tag, comm.state().ctx_coll, true);
        post_ctrl();
    }

    // --- receiving direction -----------------------------------------------
    const bool receiving = src != minimpi::kProcNull;
    bool recv_done = !receiving;
    bool recv_ok = true;
    int nacks = 0;
    int stale_data = 0;
    int stale_ctrl = 0;
    std::vector<std::byte> rframe;
    PostedRecv data_pr;
    const auto post_data = [&] {
        minimpi::detail::post_frame_recv(comm, &data_pr, rframe.data(),
                                         rframe.size(), src, data_tag,
                                         comm.state().ctx_coll);
    };
    if (receiving) {
        rframe.resize(sizeof(FrameHeader) + rbytes);
        post_data();
    }

    // Full-duplex progress loop: serve whichever side completes first. This
    // is what makes a symmetric exchange converge even when every rank's
    // initial DATA frame is dropped — each side keeps serving its peer's
    // retransmissions while waiting for its own acknowledgement.
    //
    // Determinism: the wait wakes on whichever message was PHYSICALLY
    // delivered first — a wall-clock race. To keep virtual time a pure
    // function of the fault plan, the two directions are tracked on
    // independent sub-clocks (t_recv / t_send) and merged with max() at the
    // end: every serve reads/charges only its own direction's clock, so the
    // final clock, the counters and every outgoing frame's timestamp are
    // invariant under the physical service order. (The transfer's event
    // chains — my DATA -> peer's ctrl responses, peer's DATA -> my
    // responses — are causally disjoint, which is what makes the split
    // exact, not an approximation.)
    VTime t_send = ctx.clock.now();
    VTime t_recv = t_send;
    const std::function<bool()> bailed = [&] {
        return static_cast<bool>(minimpi::detail::comm_interrupt(comm.state()));
    };
    while (!send_done || !recv_done) {
        PostedRecv* prs[2];
        std::size_t n = 0;
        if (!recv_done) prs[n++] = &data_pr;
        if (!send_done) prs[n++] = &ctrl_pr;
        // Comm-aware interrupt: once the receive direction is done only the
        // control receive (kRobustCtrlCtx — never revoked, peer alive) is
        // pending, and a peer that left for recovery will never serve it.
        // The predicate watches the owning comm's failure state; false on
        // every fault-free and payload-fault run.
        const std::size_t hit =
            tp.wait(ctx.world_rank, std::span<PostedRecv* const>(prs, n),
                    nullptr, bailed);
        if (hit == SIZE_MAX) {
            ctx.clock.set(std::max(t_send, t_recv));
            minimpi::detail::throw_comm_interrupt(comm.state(), ctx);
        }

        const bool serving_data = prs[hit] == &data_pr;
        ctx.clock.set(serving_data ? t_recv : t_send);
        if (serving_data) {
            const auto r = minimpi::detail::finish_frame_recv(comm, data_pr);
            bool bad = false;
            bool stale = false;
            if (r.dropped) {
                // Watchdog: the loss surfaces as a typed timeout here, and
                // the detection deadline is charged in virtual time.
                count(&RobustStats::timeouts);
                minimpi::trace_instant(ctx, hytrace::Phase::Robust, "timeout");
                ctx.clock.advance(cfg.watchdog_us);
                bad = true;
            } else {
                ctx.charge_memcpy(rbytes);
                if (r.bytes != rframe.size()) bad = true;
                if (!bad && real) {
                    FrameHeader h;
                    std::memcpy(&h, rframe.data(), sizeof(h));
                    // The gen check comes LAST, and the checksum binds the
                    // header's gen/bytes fields (verified against the values
                    // AS RECEIVED): only a frame that proves self-consistent
                    // may be classified as a stale duplicate and silently
                    // discarded. A corrupted gen byte on a live frame fails
                    // verification and is NACKed instead — discarding it
                    // would leave the sender waiting for an acknowledgement
                    // that never comes (mutual deadlock).
                    if (h.magic != kFrameMagic) {
                        bad = true;
                    } else if (h.bytes != rbytes) {
                        bad = true;
                    } else if (h.checksum !=
                               frame_checksum(rframe.data() + sizeof(h),
                                              rbytes, h.gen, h.bytes)) {
                        bad = true;
                    } else if (h.gen != gen) {
                        stale = true;  // intact duplicate from an earlier epoch
                    }
                }
                if (bad) {
                    count(&RobustStats::checksum_failures);
                }
            }
            if (stale) {
                count(&RobustStats::stale_discards);
                if (++stale_data > stale_cap) {
                    send_ctrl(comm, src, op_tag, FrameKind::Fail, gen);
                    recv_done = true;
                    recv_ok = false;
                } else {
                    post_data();
                }
            } else if (bad) {
                if (nacks >= cfg.retry_max) {
                    send_ctrl(comm, src, op_tag, FrameKind::Fail, gen);
                    recv_done = true;
                    recv_ok = false;
                } else {
                    ++nacks;
                    send_ctrl(comm, src, op_tag, FrameKind::Nack, gen);
                    post_data();
                }
            } else {
                ctx.copy_bytes(rbuf, rframe.data() + sizeof(FrameHeader),
                               rbytes);
                send_ctrl(comm, src, op_tag, FrameKind::Ack, gen);
                recv_done = true;
                recv_ok = true;
                if (nacks > 0) {
                    count(&RobustStats::recoveries);
                }
            }
        } else {
            const auto r = minimpi::detail::finish_frame_recv(comm, ctrl_pr);
            const FrameKind k = kind_of_tag(r.tag);
            if (op_of_tag(r.tag) != (op_tag & 0xFFF) ||
                gen_nibble_of_tag(r.tag) != static_cast<int>(gen & 0xF)) {
                count(&RobustStats::stale_discards);
                if (++stale_ctrl > stale_cap) {
                    send_done = true;
                    send_ok = false;
                } else {
                    post_ctrl();
                }
            } else if (k == FrameKind::Ack) {
                send_done = true;
                send_ok = true;
                if (attempt > 1) {
                    count(&RobustStats::recoveries);
                }
            } else if (k == FrameKind::Fail) {
                send_done = true;
                send_ok = false;
            } else {  // Nack: back off (virtual time) and retransmit.
                if (attempt > cfg.retry_max) {
                    send_done = true;
                    send_ok = false;
                } else {
                    count(&RobustStats::retries);
                    minimpi::trace_instant(ctx, hytrace::Phase::Robust,
                                           "retransmit");
                    HYTRACE_COUNTER(ctx, retransmits, 1);
                    ++attempt;
                    const VTime t_backoff0 = ctx.clock.now();
                    ctx.clock.advance(
                        backoff_us(gen, attempt, ctx.world_rank));
                    if (hytrace::Span* bs = minimpi::trace_complete(
                            ctx, hytrace::Phase::Robust, "backoff",
                            t_backoff0)) {
                        bs->peer = dest;
                    }
                    FrameHeader h;
                    std::memcpy(&h, sframe.data(), sizeof(h));
                    h.attempt = static_cast<std::uint32_t>(attempt);
                    std::memcpy(sframe.data(), &h, sizeof(h));
                    minimpi::detail::send_frame(comm, sframe.data(),
                                                sframe.size(), dest, data_tag,
                                                comm.state().ctx_coll, true);
                    post_ctrl();
                }
            }
        }
        (serving_data ? t_recv : t_send) = ctx.clock.now();
    }
    ctx.clock.set(std::max(t_send, t_recv));
    return send_ok && recv_ok;
}

bool agree_failure(const minimpi::Comm& comm, bool my_fail,
                   std::uint64_t gen) {
    RankCtx& ctx = comm.ctx();
    minimpi::Transport& tp = ctx.runtime->transport();
    const int n = comm.size();
    const int me = comm.rank();
    bool agreed = my_fail;
    if (n <= 1) return agreed;
    // The gather/broadcast legs ride the reliable control channel from live
    // peers, so the per-receive interrupt rules never fire; the comm-aware
    // predicate unblocks them when a peer abandons the ARQ for recovery.
    const std::function<bool()> bailed = [&] {
        return static_cast<bool>(minimpi::detail::comm_interrupt(comm.state()));
    };
    PostedRecv pr;
    PostedRecv* const one[] = {&pr};
    if (me == 0) {
        for (int s = 1; s < n; ++s) {
            minimpi::detail::post_frame_recv(comm, &pr, nullptr, 0, s,
                                             minimpi::kAnyTag,
                                             minimpi::kRobustCtrlCtx);
            if (tp.wait(ctx.world_rank, one, nullptr, bailed) == SIZE_MAX) {
                minimpi::detail::throw_comm_interrupt(comm.state(), ctx);
            }
            const auto r = minimpi::detail::finish_frame_recv(comm, pr);
            if (kind_of_tag(r.tag) == FrameKind::Fail) agreed = true;
        }
        for (int s = 1; s < n; ++s) {
            send_ctrl(comm, s, kOpAgree,
                      agreed ? FrameKind::Fail : FrameKind::Ack, gen);
        }
    } else {
        send_ctrl(comm, 0, kOpAgree,
                  my_fail ? FrameKind::Fail : FrameKind::Ack, gen);
        minimpi::detail::post_frame_recv(comm, &pr, nullptr, 0, 0,
                                         minimpi::kAnyTag,
                                         minimpi::kRobustCtrlCtx);
        if (tp.wait(ctx.world_rank, one, nullptr, bailed) == SIZE_MAX) {
            minimpi::detail::throw_comm_interrupt(comm.state(), ctx);
        }
        const auto r = minimpi::detail::finish_frame_recv(comm, pr);
        agreed = kind_of_tag(r.tag) == FrameKind::Fail;
    }
    return agreed;
}

}  // namespace hympi::robust
