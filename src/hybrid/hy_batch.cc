#include "hybrid/hy_batch.h"

#include <algorithm>

#include "hybrid/hy_allgather.h"
#include "hybrid/hy_trace.h"
#include "minimpi/coll_internal.h"
#include "tuning/decision.h"

namespace hympi {

CollBatcher::CollBatcher(const HierComm& hc) : hc_(&hc) {
    const RobustConfig* cfg = hc.world().ctx().robust_cfg;
    if (cfg != nullptr && cfg->enabled) return;  // inert: flat reliable path
    win_ = NodeSharedBuffer(hc, kBatchCapacity);
    if (win_.alloc_failed()) return;
    sync_.emplace(hc);
    active_ = true;
}

std::size_t CollBatcher::contrib(const PendingOp& op, int r) {
    switch (op.kind) {
        case Kind::Allgather: return op.bytes;
        case Kind::Bcast: return r == op.root ? op.bytes : 0;
        case Kind::Allreduce: return op.bytes;
    }
    return 0;
}

std::size_t CollBatcher::op_total(const PendingOp& op) const {
    const auto p = static_cast<std::size_t>(hc_->world().size());
    switch (op.kind) {
        case Kind::Allgather: return op.bytes * p;
        case Kind::Bcast: return op.bytes;
        case Kind::Allreduce: return op.bytes * p;
    }
    return 0;
}

bool CollBatcher::should_batch(std::size_t bytes) const {
    if (policy_ == BatchPolicy::Always) return true;
    if (policy_ == BatchPolicy::Never || !active_) return false;
    const tuning::DecisionTable* table = hc_->world().ctx().tuned;
    if (table != nullptr) {
        const auto c =
            table->lookup(tuning::Op::BatchWindow, tuning::Shape::Net,
                          hc_->num_nodes(), std::max<std::uint64_t>(bytes, 1));
        if (c.has_value()) return c->algo == tuning::algo::kBwFused;
    }
    // Legacy heuristic: fusing trades one extra shared-window pass for the
    // per-op bridge start-ups, so it wins only while those dominate.
    return bytes <= 1024;
}

minimpi::CollRequest CollBatcher::make_ticket() {
    // The ticket's wait-side hook closes the op's window if it is still
    // open; once any ticket (or an explicit flush) closed it, later waits
    // of the same window see a newer id and no-op. Completion work is
    // entirely wait-side, so the engine never needs a worker here.
    return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
        hc_->world(), "hy_batch", [this, id = window_id_] {
            if (id == window_id_) flush();
        }));
}

minimpi::CollRequest CollBatcher::enqueue(PendingOp op) {
    ++stats_.posted;
    const std::size_t total = op_total(op);
    if (!active_ || !should_batch(op.bytes) || total > kBatchCapacity) {
        // Unbatchable: drain the open window first so the shared posting
        // order stays intact, then run the op in place.
        flush();
        run_immediate(op);
        ++stats_.immediate;
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            hc_->world(), "hy_batch_immediate", {}));
    }
    if (pending_bytes_ + total > kBatchCapacity) flush();
    pending_.push_back(op);
    pending_bytes_ += total;
    return make_ticket();
}

minimpi::CollRequest CollBatcher::post_allgather(const void* send,
                                                 std::size_t bytes,
                                                 void* recv) {
    PendingOp op;
    op.kind = Kind::Allgather;
    op.send = send;
    op.recv = recv;
    op.bytes = bytes;
    return enqueue(op);
}

minimpi::CollRequest CollBatcher::post_bcast(void* buf, std::size_t bytes,
                                             int root) {
    PendingOp op;
    op.kind = Kind::Bcast;
    op.recv = buf;
    op.bytes = bytes;
    op.root = root;
    return enqueue(op);
}

minimpi::CollRequest CollBatcher::post_allreduce(const void* send, void* recv,
                                                 std::size_t count,
                                                 minimpi::Datatype dt,
                                                 minimpi::Op rop) {
    PendingOp op;
    op.kind = Kind::Allreduce;
    op.send = send;
    op.recv = recv;
    op.bytes = count * minimpi::datatype_size(dt);
    op.count = count;
    op.dt = dt;
    op.rop = rop;
    return enqueue(op);
}

void CollBatcher::run_immediate(const PendingOp& op) {
    const Comm& world = hc_->world();
    switch (op.kind) {
        case Kind::Allgather:
            minimpi::allgather(world, op.send, op.bytes, op.recv,
                               minimpi::Datatype::Byte);
            return;
        case Kind::Bcast:
            minimpi::bcast(world, op.recv, op.bytes, minimpi::Datatype::Byte,
                           op.root);
            return;
        case Kind::Allreduce:
            minimpi::allreduce(world, op.send, op.recv, op.count, op.dt,
                               op.rop);
            return;
    }
}

void CollBatcher::flush() {
    if (pending_.empty()) return;
    // Close the window FIRST: the demux below may run under a ticket whose
    // id must already be stale, and the next post opens a fresh window.
    ++window_id_;
    std::vector<PendingOp> ops;
    ops.swap(pending_);
    const std::size_t window_bytes = pending_bytes_;
    pending_bytes_ = 0;

    const Comm& world = hc_->world();
    const int p = world.size();
    const int nn = hc_->num_nodes();
    const std::size_t nops = ops.size();
    minimpi::RankCtx& ctx = world.ctx();
    TraceSpan root(ctx, hytrace::Phase::Coll, "hy_batch_flush");
    root.set_coll("Hy_Batch");
    root.set_comm(p, world.rank());
    root.set_bytes(window_bytes);
    root.set_chunks(nops);

    // Node-major window layout (node -> op -> slot): node n's block is one
    // contiguous span holding every window op's contributions from n's
    // ranks, so the bridge ships the whole window in ONE node-block Bruck —
    // per round, one aggregated message instead of one per fused op.
    std::vector<std::size_t> off(nops * static_cast<std::size_t>(p), 0);
    std::vector<std::size_t> node_displ(static_cast<std::size_t>(nn), 0);
    std::vector<std::size_t> node_count(static_cast<std::size_t>(nn), 0);
    std::size_t cur = 0;
    for (int n = 0; n < nn; ++n) {
        node_displ[static_cast<std::size_t>(n)] = cur;
        const int s0 = hc_->node_offset(n);
        const int s1 = s0 + hc_->node_size(n);
        for (std::size_t j = 0; j < nops; ++j) {
            for (int s = s0; s < s1; ++s) {
                off[j * static_cast<std::size_t>(p) +
                    static_cast<std::size_t>(s)] = cur;
                cur += contrib(ops[j], hc_->rank_at(s));
            }
        }
        node_count[static_cast<std::size_t>(n)] =
            cur - node_displ[static_cast<std::size_t>(n)];
    }
    const int my_rank = world.rank();
    const auto my_slot = static_cast<std::size_t>(hc_->my_slot());
    auto slot_off = [&](std::size_t j, int r) {
        return off[j * static_cast<std::size_t>(p) +
                   static_cast<std::size_t>(hc_->slot_of(r))];
    };

    {
        // Pack my contributions into the node-shared window.
        TraceSpan span(ctx, hytrace::Phase::Copy, "batch_pack");
        ShmBytesScope scope(ctx, span);
        for (std::size_t j = 0; j < nops; ++j) {
            const std::size_t mine = contrib(ops[j], my_rank);
            if (mine == 0) continue;
            const void* src =
                ops[j].kind == Kind::Bcast ? ops[j].recv : ops[j].send;
            ctx.copy_bytes(
                win_.at(off[j * static_cast<std::size_t>(p) + my_slot]), src,
                mine);
        }
    }
    sync_->ready_phase(SyncPolicy::Flags);
    if (hc_->is_primary_leader() && nn > 1) {
        TraceSpan span(ctx, hytrace::Phase::Bridge, "batch_bridge");
        span.set_algo("fused_bruck");
        BridgeBytesScope scope(ctx, span);
        detail::node_block_bruck(hc_->bridge(), win_.data(), node_displ,
                                 node_count, 0x60);
    }
    sync_->release_phase(SyncPolicy::Flags);
    {
        // Demultiplex every op out of the fully-populated window.
        TraceSpan span(ctx, hytrace::Phase::Copy, "batch_demux");
        ShmBytesScope scope(ctx, span);
        for (std::size_t j = 0; j < nops; ++j) {
            const PendingOp& op = ops[j];
            switch (op.kind) {
                case Kind::Allgather:
                    for (int r = 0; r < p; ++r) {
                        ctx.copy_bytes(
                            minimpi::detail::at(
                                op.recv,
                                static_cast<std::size_t>(r) * op.bytes),
                            win_.at(slot_off(j, r)), op.bytes);
                    }
                    break;
                case Kind::Bcast:
                    if (my_rank != op.root) {
                        ctx.copy_bytes(op.recv, win_.at(slot_off(j, op.root)),
                                       op.bytes);
                    }
                    break;
                case Kind::Allreduce:
                    // Comm-rank association order — identical on every
                    // rank, so the fused reduction is deterministic.
                    ctx.copy_bytes(op.recv, win_.at(slot_off(j, 0)), op.bytes);
                    for (int r = 1; r < p; ++r) {
                        minimpi::detail::apply_op(ctx, op.rop, op.dt, op.recv,
                                                  win_.at(slot_off(j, r)),
                                                  op.count);
                    }
                    break;
            }
        }
    }
    // Quiesce: the next window's layout differs, so its pack phase must
    // happen-after every on-node reader's demux of THIS window.
    sync_->full_sync(SyncPolicy::Flags);
    stats_.fused += nops;
    stats_.fused_bytes += window_bytes;
    ++stats_.windows;
}

}  // namespace hympi
