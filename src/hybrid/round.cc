#include "hybrid/round.h"

#include <string>

#include "minimpi/coll_internal.h"

namespace hympi {

namespace mdet = minimpi::detail;

HybridRound::HybridRound(const HierComm& hc, const RoundNames& names)
    : hc_(&hc), names_(names), sync_(hc), stager_(hc) {
    const RobustConfig* cfg = hc.world().ctx().robust_cfg;
    if (cfg != nullptr && cfg->enabled) {
        cfg_ = cfg;
        uid_ = robust::alloc_channel_uid(hc.world());
    }
}

bool HybridRound::boot(const NodeSharedBuffer& buf, bool flat_rung) {
    if (cfg_ == nullptr) return false;
    if (!flat_rung) {
        // No flat rung: a failed node-shared allocation surfaces as a
        // typed error instead of null partition pointers.
        if (buf.alloc_failed()) {
            throw RobustError(StatusCode::AllocFailed,
                              std::string(names_.coll) + ": " +
                                  buf.status().detail);
        }
        return false;
    }
    fail_ = boot_fail_word(*hc_);
    // SHM allocation failure: agree across the whole job and degrade
    // together, so no rank is left holding a null partition while others
    // use the window. Gated on an active injection plan — fault-free runs
    // send no agreement traffic.
    if (hc_->world().ctx().runtime->fault_plan().shm_fail_every > 0 &&
        robust::agree_failure(hc_->world(), buf.alloc_failed(), gen())) {
        degrade();
        return true;
    }
    return false;
}

std::uint64_t HybridRound::side_ctx() const {
    return (std::uint64_t{1} << 63) | (std::uint64_t{1} << 62) |
           (hc_->world().state().ctx_coll << 20) | (generation_ & 0xFFFFFu);
}

void HybridRound::ready(SyncPolicy sync, const RoundSteps& s) {
    if (s.ready) {
        s.ready();
    } else {
        sync_.ready_phase(sync);
    }
}

void HybridRound::verdict(bool ok) {
    if (cfg_ == nullptr) return;
    if (fail_ == nullptr) {
        if (!ok) {
            throw RobustError(StatusCode::RetriesExhausted,
                              std::string(names_.coll) + " bridge exchange");
        }
        return;
    }
    // Every bridge spans every node (leaders_per_node is clamped to the
    // smallest node), so a per-bridge agreement reaches every node via its
    // member leader; the failure word makes it node-visible.
    if (robust::agree_failure(hc_->bridge(), !ok, gen())) {
        fail_->fail_gen.store(gen());
    }
}

void HybridRound::degrade() {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    degraded_ = true;
    stats_.flat_downgrades += 1;
    ctx.robust_stats.flat_downgrades += 1;
    minimpi::trace_instant(ctx, hytrace::Phase::Robust, "flat_downgrade");
    HYTRACE_COUNTER(ctx, degradations, 1);
}

void HybridRound::run(SyncPolicy sync, std::size_t bytes,
                      const RoundSteps& s) {
    const Comm& world = hc_->world();
    TraceSpan root(world.ctx(), hytrace::Phase::Coll, names_.name);
    root.set_coll(names_.coll);
    root.set_bytes(bytes);
    root.set_comm(world.size(), world.rank());
    ++generation_;
    if (degraded_) {
        // Rung 2 reached earlier: the flat round completes this one.
        s.flat();
        return;
    }
    const bool multi = hc_->num_nodes() > 1;
    // Inputs written -> visible to all on-node ranks.
    if (s.contribute) sync_.full_sync(sync);
    // Chunked single-copy pipeline: per-chunk release flags replace the
    // whole-message bridge + staged mirror, so the bridge transfer of chunk
    // i+1 overlaps the on-node phases of chunk i. The trailing release keeps
    // the epoch bookkeeping and the degradation ladder identical to the
    // whole-message rounds (the per-chunk flags already published the data).
    const PipelinePlan pp =
        multi && s.chunked
            ? stager_.plan(s.staging, s.bytes, /*multi_node=*/true,
                           s.chunk_bytes)
            : PipelinePlan{};
    if (pp.pipelined) {
        root.set_algo("pipelined");
        if (!s.contribute) ready(sync, s);
        const bool ok = s.chunked(pp, root);
        if (bridging(s)) verdict(ok);
        sync_.release_phase(sync);
    } else {
        if (s.contribute) s.contribute();
        if (!multi && s.fast_path) {
            // Fig. 4 lines 29-30/37-38: single node — one on-node sync
            // makes every partition visible; no inter-node traffic at all.
            sync_.full_sync(sync);
            stager_.distribute(s.bytes, s.staging);
            return;
        }
        // Fig. 4 line 25/34: leaders wait until all partitions on their
        // node are initialized; line 26: the leaders' bridge exchange;
        // line 27/35: children wait until the exchange finished.
        ready(sync, s);
        if (bridging(s)) verdict(s.bridge());
        sync_.release_phase(sync);
        // On-node NUMA phase: remote-socket readers pull the result across
        // the socket boundary (or their socket leader mirrors it once).
        stager_.distribute(s.bytes, s.staging);
    }
    if (fail_ != nullptr && fail_->fail_gen.load() == gen()) {
        degrade();
        s.refill();
    }
}

minimpi::CollRequest HybridRound::start(SyncPolicy sync, std::size_t bytes,
                                        const RoundSteps& s) {
    const Comm& world = hc_->world();
    if (active_) {
        throw minimpi::RequestError(
            std::string(names_.coll) +
            " split-phase round already in flight on this channel; wait() "
            "on it before the next start()");
    }
    if (cfg_ != nullptr && !degraded_) {
        // The reliable (ARQ) frame paths are main-clock by design: complete
        // the whole round at post and hand back a finished request.
        s.blocking();
        return minimpi::CollRequest(
            mdet::make_complete_icoll(world, names_.kind, {}));
    }
    TraceSpan root(world.ctx(), hytrace::Phase::Coll, names_.start);
    root.set_coll(names_.start_coll);
    root.set_bytes(bytes);
    root.set_comm(world.size(), world.rank());
    ++generation_;
    active_ = true;
    if (s.post) s.post();
    if (degraded_) {
        // Flat path: the exchange is deferred to wait(), so callers still
        // get a compute window on their own partition in between.
        return minimpi::CollRequest(mdet::make_complete_icoll(
            world, names_.kind, [this, flat = s.flat, done = s.done] {
                active_ = false;
                flat();
                if (done) done();
            }));
    }
    // The contribution is the callers' own compute: it stays at post, on
    // the main clock, exactly as in run().
    if (s.contribute) {
        sync_.full_sync(sync);
        s.contribute();
    }
    const bool single = hc_->num_nodes() == 1;
    finish_ = [this, single, sync, bytes = s.bytes, done = s.done] {
        active_ = false;
        minimpi::RankCtx& ctx = hc_->world().ctx();
        TraceSpan fin(ctx, hytrace::Phase::Coll, names_.finish);
        fin.set_coll(names_.finish_coll);
        fin.set_comm(hc_->world().size(), hc_->world().rank());
        // Single node: there is no bridge traffic to overlap — the WHOLE
        // publishing sync is deferred to wait(), the same one-sync shape as
        // run() and the widest compute window.
        if (single) {
            sync_.full_sync(sync);
        } else {
            sync_.release_phase(sync);
        }
        // Flat on-node copy: children already overlapped, so a staged
        // mirror would re-serialize them behind the socket leader.
        stager_.distribute(bytes, SocketStaging::Flat);
        if (done) done();
    };
    if (single) return finish_off_bridge(s);
    ready(sync, s);
    if (!bridging(s)) return finish_off_bridge(s);
    body_ = s.bridge;
    if (task_ == nullptr) {
        // One-off: the engine worker and private matching context persist
        // across rounds (the lazy creation is collective over the bridge —
        // every leader's first start() happens in the same round).
        task_ = mdet::create_icoll(
            hc_->bridge(), names_.kind, [this] { body_(); },
            [this] { finish_(); });
    }
    mdet::arm_icoll(*task_);
    mdet::drive_icoll(*task_);
    return minimpi::CollRequest(task_);
}

minimpi::CollRequest HybridRound::finish_off_bridge(const RoundSteps& s) {
    const Comm& world = hc_->world();
    if (!s.side) {
        return minimpi::CollRequest(mdet::make_complete_icoll(
            world, names_.kind, [this] { finish_(); }));
    }
    side_ = s.side;
    if (side_task_ == nullptr) {
        side_task_ = mdet::create_icoll(
            world, s.side_kind, [this] { side_(); }, [this] { finish_(); },
            /*match_seq=*/generation_);
    } else {
        side_task_->gate.rdv_ctx = side_ctx();
    }
    mdet::arm_icoll(*side_task_);
    mdet::drive_icoll(*side_task_);
    return minimpi::CollRequest(side_task_);
}

bool HybridRound::chunked(const PipelinePlan& plan,
                          std::span<const std::size_t> lens, bool producer,
                          const char* algo,
                          const std::function<bool(std::size_t)>& ship) {
    if (!producer) {
        stager_.consume_chunks(sync_, lens, plan.leaf);
        return true;
    }
    BridgeSpan span(hc_->bridge(), cfg_ != nullptr ? "reliable_chunked" : algo);
    span.set_chunks(lens.size());
    HYTRACE_COUNTER(hc_->bridge().ctx(), chunks, lens.size());
    const int node_slot = sync_.chunk_slot_node();
    bool ok = true;
    for (std::size_t c = 0; c < lens.size(); ++c) {
        if (!ship(c)) ok = false;
        // Publish the chunk the moment it lands: consumers on this node
        // start mirroring/reading it while the next chunk is in flight.
        sync_.chunk_signal(node_slot);
    }
    return ok;
}

bool HybridRound::ring(int op, std::uint64_t gen,
                       const std::function<RingLeg(int, int)>& leg,
                       const std::function<void(int)>& landed,
                       int plain_tag) {
    const Comm& bridge = hc_->bridge();
    const int bp = bridge.size();
    const int br = bridge.rank();
    bool ok = true;
    for (int k = 1; k < bp; ++k) {
        const int dst = (br + k) % bp;
        const int src = (br - k + bp) % bp;
        const RingLeg l = leg(dst, src);
        if (cfg_ != nullptr) {
            if (!robust::reliable_xfer(bridge, l.send, l.send_bytes, dst,
                                       l.recv, l.recv_bytes, src,
                                       op + ((k - 1) & 0xFF), gen, *cfg_,
                                       stats_)) {
                ok = false;
            }
        } else {
            const int tag = minimpi::detail::kTagHier + plain_tag + k;
            minimpi::Request rr = mdet::irecv_bytes(bridge, l.recv,
                                                    l.recv_bytes, src, tag,
                                                    true);
            mdet::send_bytes(bridge, l.send, l.send_bytes, dst, tag, true);
            rr.wait();
        }
        if (landed) landed(src);
    }
    return ok;
}

bool HybridRound::linear(
    int root, bool fan_in, int op, std::uint64_t gen,
    const std::function<std::pair<std::byte*, std::size_t>(int)>& part,
    const std::function<void()>& landed) {
    const Comm& bridge = hc_->bridge();
    auto leg = [&](int peer, int n) {
        const auto [p, len] = part(n);
        return (fan_in == (peer == root))
                   ? robust::reliable_send(bridge, p, len, peer, op, gen,
                                           *cfg_, stats_)
                   : robust::reliable_recv(bridge, p, len, peer, op, gen,
                                           *cfg_, stats_);
    };
    if (bridge.rank() != root) return leg(root, bridge.rank());
    bool ok = true;
    for (int n = 0; n < bridge.size(); ++n) {
        if (n == root) continue;
        if (!leg(n, n)) {
            ok = false;
        } else if (landed) {
            landed();
        }
    }
    return ok;
}

}  // namespace hympi
