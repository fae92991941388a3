#include "hybrid/sync.h"

#include "hybrid/hy_trace.h"
#include "minimpi/runtime.h"
#include "minimpi/transport.h"

namespace hympi {

std::shared_ptr<NodeFailWord> boot_fail_word(const HierComm& hc) {
    const Comm& shm = hc.shm();
    minimpi::RankCtx& ctx = shm.ctx();
    struct Boot {
        std::shared_ptr<NodeFailWord> word;
    };
    auto boot = minimpi::detail::rendezvous<Boot>(
        shm.state(), ctx, shm.rank(),
        ctx.runtime->one_off_sync_cost(shm.size()), [](Boot&) {},
        [&](Boot& b) { b.word = std::make_shared<NodeFailWord>(); });
    return boot->word;
}

NodeSync::NodeSync(const HierComm& hc) : hc_(&hc) {
    const Comm& shm = hc.shm();
    minimpi::RankCtx& ctx = shm.ctx();
    // Collective one-off: share the flag block among the node's ranks (a
    // real MPI port would place it in a small MPI_Win_allocate_shared
    // window; the cost model below charges flag traffic identically).
    struct Boot {
        std::shared_ptr<Shared> shared;
    };
    auto boot = minimpi::detail::rendezvous<Boot>(
        shm.state(), ctx, shm.rank(),
        ctx.runtime->one_off_sync_cost(shm.size()), [](Boot&) {},
        [&](Boot& b) {
            b.shared = std::make_shared<Shared>();
            b.shared->ready.resize(static_cast<std::size_t>(shm.size()));
            b.shared->release.resize(static_cast<std::size_t>(shm.size()));
            b.shared->chunk.resize(static_cast<std::size_t>(shm.size()) + 1 +
                                   static_cast<std::size_t>(
                                       hc.sockets_on_node()));
        });
    shared_ = boot->shared;
    chunk_next_.assign(shared_->chunk.size(), 0);
    if (ctx.cluster->sockets_per_node() > 1) {
        xsocket_flags_ = shm.socket_of(shm.rank()) != shm.socket_of(0);
    }
}

void NodeSync::signal(Cell& c, minimpi::RankCtx& ctx) {
    minimpi::detail::check_alive(ctx);
    ctx.clock.advance(ctx.model->flag_signal_us);
    if (xsocket_flags_) ctx.clock.advance(ctx.model->xsocket_flag_penalty_us);
    std::lock_guard<std::mutex> lock(shared_->mu);
    c.vtime = ctx.clock.now();
    ++c.seq;
    shared_->site.notify_all();
}

template <typename Stamp>
void NodeSync::wait_flag(const std::uint64_t& seq, std::uint64_t target,
                         int owner_world, bool count_trips, Stamp&& stamp) {
    minimpi::RankCtx& ctx = hc_->shm().ctx();
    minimpi::detail::check_alive(ctx);
    const VTime wait_begin = ctx.clock.now();
    minimpi::Transport& tp = ctx.runtime->transport();
    const minimpi::CommState& world = hc_->world().state();
    const hympi::RobustConfig* cfg = ctx.robust_cfg;
    VTime signal_time = 0.0;
    using minimpi::detail::WaitInterrupt;
    // Completion wins: a flag published before a failure is consumed
    // normally. Poison, a dead owner (the flag will never be published) and
    // a revoked world comm (some survivor started recovery) wake the wait
    // through the park record.
    const minimpi::detail::WaitDesc at =
        minimpi::detail::WaitDesc::flag(owner_world, target);
    minimpi::detail::block_until(
        minimpi::detail::waiter_of(ctx), shared_->mu, shared_->site, at,
        [&] {
            if (seq < target) return false;
            signal_time = stamp();
            // Progress watchdog: a flag that was published later than the
            // virtual-time deadline counts as a divergence trip (a
            // straggling rank whose flag rounds lag the node). Trips feed
            // the Flags -> Barrier ladder. Only waits whose recording
            // provably happens-before the primary leader's next downgrade
            // decision may count (count_trips), keeping the trip total it
            // reads deterministic. watchdog_us = 0 is the strictest setting
            // — ANY flag published after the wait began counts as late
            // (immediate trip) — not a disable knob.
            if (count_trips && cfg != nullptr && cfg->enabled &&
                signal_time > wait_begin + cfg->watchdog_us) {
                shared_->trips += 1;
                ctx.robust_stats.sync_trips += 1;
            }
            return true;
        },
        [&] {
            if (owner_world >= 0 && tp.any_dead() && tp.is_dead(owner_world)) {
                return WaitInterrupt{WaitInterrupt::Dead, owner_world};
            }
            if (world.revoked.load(std::memory_order_acquire)) {
                return WaitInterrupt{WaitInterrupt::Revoked};
            }
            return WaitInterrupt{};
        });
    ctx.clock.sync_to(signal_time);
    ctx.clock.advance(ctx.model->flag_poll_us);
    if (xsocket_flags_) ctx.clock.advance(ctx.model->xsocket_flag_penalty_us);
    // The wait portion is the virtual time this rank idled until the flag
    // was published (0 when the signal predates the wait); the flag_poll
    // advance is active cost, not waiting.
    if (signal_time > wait_begin) {
        HYTRACE_COUNTER(ctx, sync_wait_us, signal_time - wait_begin);
    }
}

int NodeSync::chunk_slot_owner(int slot) const {
    const Comm& shm = hc_->shm();
    const int ppn = shm.size();
    if (slot < ppn) return shm.to_world(slot);       // per-rank ready flag
    if (slot == ppn) return shm.to_world(0);         // node release: primary leader
    const int s = slot - ppn - 1;                    // socket s's release
    for (int r = 0; r < ppn; ++r) {
        if (shm.socket_of(r) == s) return shm.to_world(r);  // lowest = leader
    }
    return -1;
}

void NodeSync::chunk_signal(int slot) {
    minimpi::RankCtx& ctx = hc_->shm().ctx();
    minimpi::detail::check_alive(ctx);
    ctx.clock.advance(ctx.model->flag_signal_us);
    if (xsocket_flags_) ctx.clock.advance(ctx.model->xsocket_flag_penalty_us);
    ChunkSlot& c = shared_->chunk[static_cast<std::size_t>(slot)];
    std::lock_guard<std::mutex> lock(shared_->mu);
    c.stamps.push_back(ctx.clock.now());
    ++c.seq;
    ++chunk_next_[static_cast<std::size_t>(slot)];
    shared_->site.notify_all();
}

void NodeSync::chunk_wait(int slot, std::uint64_t target) {
    const ChunkSlot& c = shared_->chunk[static_cast<std::size_t>(slot)];
    // This chunk's OWN stamp, read by index from the append-only log — the
    // publisher may already be several chunks ahead in wall-clock time.
    wait_flag(c.seq, target, chunk_slot_owner(slot), false, [&c, target] {
        return c.stamps[static_cast<std::size_t>(target - 1)];
    });
}

void NodeSync::barrier_phase(const char* name) {
    minimpi::RankCtx& ctx = hc_->shm().ctx();
    TraceSpan span(ctx, hytrace::Phase::Sync, name);
    span.set_algo("barrier");
    const VTime begin = ctx.clock.now();
    minimpi::barrier(hc_->shm());
    HYTRACE_COUNTER(ctx, sync_wait_us, ctx.clock.now() - begin);
}

void NodeSync::ready_phase(SyncPolicy p, bool collector) {
    if (effective(p) == SyncPolicy::Barrier) {
        barrier_phase("ready_sync");
        return;
    }
    const Comm& shm = hc_->shm();
    TraceSpan span(shm.ctx(), hytrace::Phase::Sync, "ready_sync");
    span.set_algo("flags");
    minimpi::RankCtx& ctx = shm.ctx();
    ++my_ready_epoch_;
    signal(shared_->ready[static_cast<std::size_t>(shm.rank())], ctx);
    if (hc_->is_leader() || collector) {
        for (int r = 0; r < shm.size(); ++r) {
            const Cell& c = shared_->ready[static_cast<std::size_t>(r)];
            wait_flag(c.seq, my_ready_epoch_, shm.to_world(r),
                      hc_->is_primary_leader(), [&c] { return c.vtime; });
        }
    }
}

void NodeSync::release_phase(SyncPolicy p) {
    if (effective(p) == SyncPolicy::Barrier) {
        barrier_phase("release_sync");
        return;
    }
    const Comm& shm = hc_->shm();
    TraceSpan span(shm.ctx(), hytrace::Phase::Sync, "release_sync");
    span.set_algo("flags");
    minimpi::RankCtx& ctx = shm.ctx();
    const hympi::RobustConfig* cfg = ctx.robust_cfg;
    const bool robust = cfg != nullptr && cfg->enabled;
    ++release_epoch_;
    const int nleaders = std::min(hc_->leaders_per_node(), shm.size());
    if (hc_->is_leader()) {
        if (robust && hc_->is_primary_leader()) {
            // Downgrade decision, published BEFORE the round-R release
            // signal: any rank that observes seq >= R (same mutex) also
            // observes degrade_after, so the whole node flips at the same
            // round boundary.
            std::lock_guard<std::mutex> lock(shared_->mu);
            if (shared_->degrade_after == 0 &&
                shared_->trips >=
                    static_cast<std::uint64_t>(cfg->sync_trip_limit)) {
                shared_->degrade_after = release_epoch_;
            }
        }
        signal(shared_->release[static_cast<std::size_t>(hc_->leader_index())],
               ctx);
    }
    // Everyone (leaders included) proceeds only once every leader has
    // published its slice of the exchange.
    // Leader l is shm rank l (the node's lowest L ranks lead).
    for (int l = 0; l < nleaders; ++l) {
        const Cell& c = shared_->release[static_cast<std::size_t>(l)];
        wait_flag(c.seq, release_epoch_, shm.to_world(l), true,
                  [&c] { return c.vtime; });
    }
    if (robust && !degraded_) {
        std::lock_guard<std::mutex> lock(shared_->mu);
        if (shared_->degrade_after != 0 &&
            release_epoch_ >= shared_->degrade_after) {
            degraded_ = true;
            ctx.robust_stats.sync_downgrades += 1;
            minimpi::trace_instant(ctx, hytrace::Phase::Robust,
                                   "sync_downgrade");
            HYTRACE_COUNTER(ctx, degradations, 1);
        }
    }
}

void NodeSync::full_sync(SyncPolicy p) {
    if (p == SyncPolicy::Barrier) {
        barrier_phase("full_sync");
        return;
    }
    ready_phase(p);
    release_phase(p);
}

}  // namespace hympi
