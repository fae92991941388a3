#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "minimpi/block.h"
#include "minimpi/netmodel.h"
#include "minimpi/types.h"

namespace minimpi {

/// The bytes of a message: one immutable buffer, shared by every holder.
/// The sender's eager copy is one allocation (make_shared_for_overwrite);
/// a forwarding rank sends the payload it received on as it is, and a root
/// sends one payload to all its children. Nothing writes a payload after
/// it is made: fault injection clones before it corrupts (copy on write).
using Payload = std::shared_ptr<const std::byte[]>;

/// A message in flight (or sitting in the unexpected queue). The payload is
/// absent in SizeOnly mode or for zero-byte messages. `arrival` and
/// `recv_overhead` carry the modelled timing computed by the sender, which
/// knows the link class.
struct InMsg {
    std::uint64_t ctx = 0;  ///< communicator context id
    int src_global = -1;    ///< sender's WORLD rank (translated by the p2p layer)
    int tag = 0;
    std::size_t bytes = 0;
    Payload payload;
    VTime arrival = 0.0;        ///< modelled time the message reaches the dest
    VTime recv_overhead = 0.0;  ///< CPU overhead the receiver pays on match

    /// Index of this message within the sender's stream to this destination,
    /// stamped by the sending rank (program order, hence deterministic).
    /// Keys the FaultPlan's per-message perturbations.
    std::uint64_t fault_seq = 0;

    /// The message was dropped in transit (FaultPlan::drop_every): only the
    /// envelope arrives — payload cleared — so receivers wake and detect
    /// the loss instead of hanging.
    bool dropped = false;

    /// Framed transfer of the resilience layer (src/robust): the only
    /// traffic payload faults may hit under FaultScope::RobustFrames.
    bool robust_frame = false;
};

/// Context id 0 is not used. The ids below keep their values: robust
/// channel uids and engine-task contexts derive from a communicator's
/// context id, so renumbering would move recorded results.

/// Context id reserved for the resilience layer's ACK/NACK control frames
/// (src/robust). It is exempt from fault injection: a lost
/// acknowledgement would reintroduce the two-generals problem the bounded
/// retry protocol is built to avoid, so control frames model a reliable
/// side channel while DATA frames ride the faulty transport.
inline constexpr std::uint64_t kRobustCtrlCtx = 1;

/// First context id Runtime::alloc_ctx hands to communicators.
inline constexpr std::uint64_t kFirstUserCtx = 2;

/// A receive posted by the destination rank, owned by a Request (or stack
/// frame for blocking receives). The mailbox keeps only a raw pointer while
/// the receive is pending.
struct PostedRecv {
    std::uint64_t ctx = 0;
    int src_global = kAnySource;  ///< WORLD rank or kAnySource
    int tag = kAnyTag;
    void* buf = nullptr;
    std::size_t capacity = 0;
    /// Retain the matched payload in `kept` (besides copying it to `buf`),
    /// so the receiver can send the same bytes on without copying them
    /// again. Only an exact-size match that is not a tombstone is kept.
    bool keep = false;

    bool completed = false;
    bool truncated = false;   ///< matched message exceeded `capacity`
    bool dropped = false;     ///< matched a tombstone (message lost in transit)
    std::size_t msg_bytes = 0;  ///< actual size of the matched message
    int matched_src = -1;       ///< WORLD rank of the matched sender
    int matched_tag = 0;
    VTime arrival = 0.0;
    VTime recv_overhead = 0.0;
    Payload kept;  ///< the delivered payload, when `keep` applied
};

/// Point-to-point matching engine: one mailbox per world rank, with MPI
/// semantics — (context, source, tag) matching, wildcards, per-sender FIFO
/// (non-overtaking), an unexpected-message queue and a posted-receive queue.
///
/// All sends are eager and buffered: the sender copies the payload (Real
/// mode) or forwards one it holds, delivers, and returns; there is no
/// rendezvous. This preserves the standard's buffered-send semantics and
/// cannot deadlock on send.
class Transport {
public:
    Transport(int nranks, PayloadMode mode);

    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;

    PayloadMode payload_mode() const { return mode_; }

    /// Attach a deterministic fault plan (non-owning; may be null). Applied
    /// to every subsequent deliver() on a user context. Set before rank
    /// fibers start; the Runtime wires this per run().
    void set_fault_plan(const FaultPlan* plan) { faults_ = plan; }

    /// The scheduler running the ranks (non-owning; null for a bare
    /// transport): poison, a death and a revocation wake its parked fibers.
    void set_scheduler(detail::Scheduler* sched) { sched_ = sched; }

    /// Deliver a message to @p dst_global: either complete a matching posted
    /// receive (copying the payload on the sender's fiber) or enqueue it as
    /// unexpected. `msg.payload` may be shared with other messages.
    void deliver(int dst_global, InMsg msg);

    /// Convenience for the sending side: copy @p bytes at @p src into a new
    /// payload according to the payload mode. `src` may be null in SizeOnly
    /// mode.
    Payload make_payload(const void* src, std::size_t bytes) const;

    /// Register @p r in @p me's mailbox; if an unexpected message already
    /// matches, complete immediately.
    void post_recv(int me, PostedRecv* r);

    /// Block until ANY of the given pending receives (all owned by @p me)
    /// completes; returns the first completed index in scan order. Goes
    /// through detail::block_until with @p ctx as the waiter (null: the
    /// calling fiber parks, and no detection latency is charged). A poisoned
    /// job, a dead source or a revoked context throws after deregistering
    /// every receive; completion always wins. @p interrupt is for waits the
    /// per-receive rules cannot cover — the resilience layer's control-frame
    /// receives ride the reliable side channel (kRobustCtrlCtx, never
    /// revoked) from a live peer, yet must abandon the ARQ when that peer
    /// leaves for recovery. When it fires first, every receive is
    /// deregistered and the call returns SIZE_MAX.
    std::size_t wait(int me, std::span<PostedRecv* const> rs,
                     RankCtx* ctx = nullptr,
                     const std::function<bool()>& interrupt = {});

    /// Non-blocking completion check.
    bool test_recv(int me, PostedRecv* r);

    /// Remove a still-pending posted receive (used by Request teardown on
    /// abnormal paths). Returns false if it had already completed.
    bool cancel_recv(int me, PostedRecv* r);

    /// MPI_Iprobe: report whether a matching message is pending without
    /// receiving it. Fills @p out with the envelope when found.
    bool iprobe(int me, std::uint64_t ctx_id, int src_global, int tag,
                Status* out);

    /// Blocking MPI_Probe; waits like wait().
    void probe(int me, std::uint64_t ctx_id, int src_global, int tag,
               Status* out, RankCtx* ctx = nullptr);

    /// Number of messages currently sitting unexpected in @p me's mailbox
    /// (diagnostics/tests).
    std::size_t unexpected_count(int me);

    /// Mark the job as aborted by @p by_rank and wake every blocked waiter;
    /// subsequent/pending blocking calls throw JobAborted.
    void poison(int by_rank);

    bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

    /// Throw JobAborted if the job has been poisoned.
    void check_poison() const;

    // ---- process-failure model (ULFM-style) --------------------------------
    //
    // All of it is gated on two atomic counters (dead_count_, revoke_count_)
    // that stay zero on fault-free runs, so the fast paths pay one relaxed
    // load and no virtual-time cost — existing baselines are unaffected.

    /// Record the death of @p world_rank at virtual time @p at and wake every
    /// blocked waiter so receives depending on the dead rank can raise
    /// ProcessFailedError. Called from the dying rank's own fiber, after its
    /// last send — so everything it sent before dying is already delivered.
    void mark_dead(int world_rank, VTime at);

    bool any_dead() const {
        return dead_count_.load(std::memory_order_acquire) > 0;
    }
    bool is_dead(int world_rank) const {
        return boxes_.at(static_cast<std::size_t>(world_rank))
            ->dead.load(std::memory_order_acquire);
    }
    /// Virtual time of @p world_rank's death; only meaningful when is_dead().
    VTime death_vtime(int world_rank) const {
        return boxes_.at(static_cast<std::size_t>(world_rank))->death_vtime;
    }

    /// Revoke a communicator context: every pending and future wait on it
    /// raises CommRevokedError (except completed receives, which are always
    /// consumed first — a message delivered before the revoke is never lost).
    /// Wakes every parked rank.
    void revoke_ctx(std::uint64_t ctx);

    bool any_revoked() const {
        return revoke_count_.load(std::memory_order_acquire) > 0;
    }
    bool ctx_revoked(std::uint64_t ctx) const;

private:
    std::atomic<bool> poisoned_{false};
    std::atomic<int> poison_rank_{-1};
    std::atomic<int> dead_count_{0};
    std::atomic<int> revoke_count_{0};

    mutable std::mutex revoked_mu_;
    std::vector<std::uint64_t> revoked_;  ///< revoked context ids (unsorted)

    struct Mailbox {
        std::mutex mu;
        detail::WaitSite site;  ///< the owner (or its tasks) waiting here
        std::deque<InMsg> unexpected;
        std::list<PostedRecv*> posted;
        /// Process-failure state of the mailbox OWNER (the world rank).
        std::atomic<bool> dead{false};
        VTime death_vtime = 0.0;  ///< written before `dead` is released
    };

    static bool matches(const PostedRecv& r, const InMsg& m) {
        return r.ctx == m.ctx &&
               (r.src_global == kAnySource || r.src_global == m.src_global) &&
               (r.tag == kAnyTag || r.tag == m.tag);
    }

    /// Fill completion fields of @p r from @p m, copy the payload and keep
    /// it when @p r asks to (moved out: @p m is dropped after the match).
    /// Caller holds the mailbox lock.
    static void complete(PostedRecv* r, InMsg& m);

    /// Post-fault delivery: match against posted receives or enqueue as
    /// unexpected. Split from deliver() so an injected duplicate is not
    /// re-perturbed by the fault plan.
    void deliver_matched(int dst_global, InMsg msg);

    /// Why a pending receive can never complete: its source died (a
    /// wildcard: any rank died) or its context was revoked. Death wins over
    /// revocation so detection stays deterministic.
    detail::WaitInterrupt interrupt_of(const PostedRecv& r) const;

    /// Copy the envelope of the first unexpected message matching @p key
    /// into @p out (if given). Caller holds the mailbox lock.
    static bool find_unexpected(const Mailbox& mb, const PostedRecv& key,
                                Status* out);

    /// Wake every parked rank (poison, death, revocation).
    void wake_parked();

    Mailbox& box(int rank) { return *boxes_.at(static_cast<std::size_t>(rank)); }

    PayloadMode mode_;
    const FaultPlan* faults_ = nullptr;
    detail::Scheduler* sched_ = nullptr;
    std::vector<std::unique_ptr<Mailbox>> boxes_;
};

}  // namespace minimpi
