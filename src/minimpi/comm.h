#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "minimpi/block.h"
#include "minimpi/context.h"
#include "minimpi/icoll_gate.h"
#include "minimpi/types.h"

namespace minimpi {

class Runtime;
struct CommState;

/// Shared (across the member ranks) state of one communicator. Created by
/// the Runtime; lives until the job ends. Rank handles (`Comm`) point here.
struct CommState {
    Runtime* runtime = nullptr;
    std::uint64_t ctx_p2p = 0;   ///< matching context for user point-to-point
    std::uint64_t ctx_coll = 0;  ///< matching context for internal collectives
    /// Communicator this one was derived from (split/dup/create), or null
    /// for the world comm and for agree_shrink's recovery comm. Revocation
    /// cascades down this tree: the collectives internally split hierarchy
    /// sub-communicators the caller never sees, and revoking a comm must
    /// interrupt waits on those internal legs too. Stable for the run's
    /// lifetime (comms_ is only cleared between runs).
    CommState* parent = nullptr;

    std::vector<int> members;         ///< comm rank -> world rank
    std::vector<int> world_to_local;  ///< world rank -> comm rank (or -1)

    int size() const { return static_cast<int>(members.size()); }
    int to_world(int local) const { return members.at(static_cast<std::size_t>(local)); }
    int from_world(int world) const {
        return world_to_local.at(static_cast<std::size_t>(world));
    }

    // ---- collective-rendezvous machinery (split, dup, window allocation,
    // one-off operations that must agree across all member ranks). Each rank
    // increments its private epoch slot; ranks meeting at the same epoch are
    // executing the same collective call (MPI requires identical collective
    // call order on a communicator).
    struct OpSlot {
        int arrived = 0;
        int left = 0;
        bool done = false;
        VTime max_clock = 0.0;
        detail::WaitSite site;  ///< guarded by op_mu
        std::shared_ptr<void> data;  ///< operation-specific payload
    };
    std::mutex op_mu;
    std::map<std::uint64_t, std::shared_ptr<OpSlot>> ops;
    std::vector<std::uint64_t> member_epoch;  ///< per-member, owner-written

    /// ULFM revocation flag: set (once) by Comm::revoke from any member;
    /// every pending and future operation on the comm raises
    /// CommRevokedError. Never reset — recovery builds a NEW comm. Set at
    /// creation when the parent is already revoked (closes the race with a
    /// split finalizing concurrently with the parent's revocation).
    std::atomic<bool> revoked{false};

    /// Per-member call counters for agree_shrink, keying its fault-tolerant
    /// rendezvous in the kShrinkKeyBase namespace (disjoint from member
    /// epochs and gate keys).
    std::vector<std::uint64_t> member_shrink_epoch;

    /// Per-member robust channel uid counters (robust::alloc_channel_uid),
    /// owner-written. Keyed by comm, not by rank: members that reach this
    /// comm with different channel histories elsewhere still agree.
    std::vector<std::uint64_t> member_chan_seq;

    /// Set (once, by Comm::free's finalizer) when the members collectively
    /// released the communicator. The registry slot itself lives until the
    /// run ends — stale handles stay dereferenceable so any operation on a
    /// freed comm raises a typed CommError instead of touching freed memory.
    std::atomic<bool> freed{false};
};

/// Base of the `ops` key namespace used by agree_shrink's fault-tolerant
/// rendezvous. Plain member-epoch keys are small counters and engine gate
/// keys have bit 63 set, so bit 62 is free.
inline constexpr std::uint64_t kShrinkKeyBase = 1ULL << 62;

/// Per-rank communicator handle — a (state, my-rank, my-context) triple.
/// Cheap to copy; must only be used from the owning rank's fiber.
class Comm {
public:
    /// Null handle (MPI_COMM_NULL): what split returns for kUndefined color.
    Comm() = default;
    Comm(CommState* state, RankCtx* ctx, int rank)
        : state_(state), ctx_(ctx), rank_(rank) {}

    bool valid() const { return state_ != nullptr; }

    int rank() const { return rank_; }
    int size() const { return require().size(); }

    /// World rank of @p local (default: my own).
    int to_world(int local) const { return require().to_world(local); }
    int to_world() const { return to_world(rank_); }
    /// Comm rank of world rank @p world, or -1 if not a member.
    int from_world(int world) const { return require().from_world(world); }

    /// Simulated node hosting comm rank @p local.
    int node_of(int local) const {
        return ctx_->cluster->node_of(to_world(local));
    }

    /// NUMA socket (within its node) hosting comm rank @p local.
    int socket_of(int local) const {
        return ctx_->cluster->socket_of(to_world(local));
    }

    RankCtx& ctx() const { return *ctx_; }
    CommState& state() const { return require(); }

    /// MPI_Comm_split. Ranks passing kUndefined receive a null Comm.
    /// Members of each child are ordered by (key, parent rank).
    Comm split(int color, int key = 0) const;

    /// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): one child communicator per
    /// simulated node.
    Comm split_shared() const { return split(node_of(rank_), rank_); }

    /// MPI_Comm_dup.
    Comm dup() const;

    /// MPI_Comm_create: a new communicator containing exactly the comm
    /// ranks in @p members (identical list everywhere, strictly
    /// increasing). Collective over THIS comm; non-members get a null
    /// Comm. New ranks follow the order of @p members.
    Comm create(std::span<const int> members) const;

    /// MPI_Comm_free: collectively release the communicator. After the
    /// members meet (clocks sync to max + one-off cost, like every other
    /// one-off coordination) the comm is marked freed, this rank's cached
    /// hierarchy/channel state keyed by it is dropped — the leak-freedom
    /// the churny multi-tenant service relies on — and any later operation
    /// on a stale handle raises CommError. Freeing while a nonblocking
    /// collective on this comm is still in flight throws CommBusyError
    /// (complete it with wait() first); double-free throws CommError. The
    /// world communicator cannot be freed.
    void free() const;

    /// ULFM MPI_Comm_revoke: interrupt every pending and future operation on
    /// this communicator with CommRevokedError, on every member. Called by
    /// any member that observed a ProcessFailedError so ALL survivors —
    /// including those blocked on live-but-erroring peers — reach the
    /// recovery path. Revocation cascades to every communicator derived
    /// from this one by split/dup/create: the library's collectives
    /// internally split hierarchy sub-communicators (see detail::hier), and
    /// a survivor blocked in such an internal leg — where every DIRECT peer
    /// is alive — would otherwise never observe the failure. The comm built
    /// by agree_shrink is NOT derived: recovery survives revocation of the
    /// broken comm. Idempotent; a revoke interrupt charges no virtual time
    /// (the interrupted rank keeps its wait-entry clock).
    void revoke() const;

    /// ULFM MPI_Comm_shrink: fault-tolerant agreement on the surviving
    /// member set followed by deterministic construction of a new
    /// communicator over exactly those survivors (old comm-rank order
    /// preserved). Collective over the SURVIVORS of this comm — unlike
    /// every other collective it completes even though dead members never
    /// arrive, and it works on a revoked comm. Survivors leave with clocks
    /// synchronized to max(survivor clocks) + one-off sync cost. The failed
    /// world ranks are reported through @p failed_world when non-null.
    /// Must not be called from inside a nonblocking-collective engine task.
    Comm agree_shrink(std::vector<int>* failed_world = nullptr) const;

private:
    CommState& require() const;

    CommState* state_ = nullptr;
    RankCtx* ctx_ = nullptr;
    int rank_ = -1;
};

namespace detail {

/// Why a pending operation on @p st can never complete normally: a member
/// process died (the first in member order), or the comm was revoked.
/// Death wins over revocation so the error a direct observer sees is a pure
/// function of the program. Two atomic loads on fault-free runs (defined in
/// comm.cc to reach the transport).
WaitInterrupt comm_interrupt(const CommState& st);
/// Raise the typed error for an interrupted comm (see raise_interrupt):
/// ProcessFailedError for a dead member, charging the detection latency,
/// CommRevokedError otherwise.
[[noreturn]] void throw_comm_interrupt(const CommState& st, RankCtx& ctx);

/// Generic collective rendezvous on a communicator: every member contributes
/// under the lock, the last to arrive finalizes, everyone leaves with their
/// clock synchronized to max(member clocks) + @p sync_cost (one-off
/// coordination is modelled as a flat synchronization, not a message-by-
/// message schedule — the paper excludes these one-offs from measurements).
///
/// @tparam Data        operation payload default-constructed on first arrival
/// @param contribute   void(Data&) — called under the lock
/// @param finalize     void(Data&) — called once, by the last arriver
/// @returns the shared payload (kept alive by shared_ptr past slot erasure)
template <typename Data, typename Contribute, typename Finalize>
std::shared_ptr<Data> rendezvous(CommState& st, RankCtx& ctx, int my_rank,
                                 VTime sync_cost, Contribute&& contribute,
                                 Finalize&& finalize) {
    check_alive(ctx);
    if (comm_interrupt(st)) throw_comm_interrupt(st, ctx);
    if (st.freed.load(std::memory_order_acquire)) {
        throw CommError("collective on a freed communicator");
    }
    std::unique_lock<std::mutex> lock(st.op_mu);
    // Under an engine gate the slot is keyed in the request's private
    // namespace instead of the member epoch: outstanding collectives may be
    // driven in any order relative to each other and to later blocking
    // collectives, so position in the epoch stream would not identify the
    // operation. Every member executes the op under a gate with the same
    // rdv_ctx/rdv_seq, so they still meet at one slot.
    const std::uint64_t key =
        ctx.gate != nullptr
            ? ctx.gate->next_rdv_key()
            : st.member_epoch.at(static_cast<std::size_t>(my_rank))++;
    auto& slot_ref = st.ops[key];
    if (!slot_ref) {
        slot_ref = std::make_shared<CommState::OpSlot>();
        slot_ref->data = std::make_shared<Data>();
    }
    std::shared_ptr<CommState::OpSlot> slot = slot_ref;
    auto data = std::static_pointer_cast<Data>(slot->data);

    contribute(*data);
    slot->max_clock = std::max(slot->max_clock, ctx.vck().now());
    if (++slot->arrived == st.size()) {
        finalize(*data);
        slot->done = true;
        slot->site.notify_all();
    } else {
        lock.unlock();  // block_until takes op_mu itself
        const WaitDesc at = WaitDesc::rendezvous(st.ctx_coll, key);
        block_until(
            waiter_of(ctx), st.op_mu, slot->site, at,
            [&] { return slot->done; }, [&] { return comm_interrupt(st); });
        lock.lock();
    }

    ctx.vck().sync_to(slot->max_clock);
    ctx.vck().advance(sync_cost);

    if (++slot->left == st.size()) {
        st.ops.erase(key);
    }
    return data;
}

}  // namespace detail

}  // namespace minimpi
