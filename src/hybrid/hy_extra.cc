#include "hybrid/hy_extra.h"

#include <algorithm>
#include <vector>

#include "hybrid/hy_trace.h"
#include "minimpi/coll_internal.h"

namespace hympi {

using minimpi::datatype_size;
using minimpi::detail::apply_op;
using minimpi::detail::at;
using minimpi::detail::Scratch;

namespace {

/// Element stripe [lo, hi) owned by @p idx of @p n workers.
std::pair<std::size_t, std::size_t> stripe(std::size_t count, int n, int idx) {
    return {count * static_cast<std::size_t>(idx) / static_cast<std::size_t>(n),
            count * (static_cast<std::size_t>(idx) + 1) /
                static_cast<std::size_t>(n)};
}

/// Fold elements [lo, lo + n) of every on-node input (input k at
/// k * vec_bytes) into the node result behind the last input; returns the
/// stripe's byte count.
std::size_t fold_stripe(minimpi::RankCtx& ctx, const NodeSharedBuffer& buf,
                        int ppn, std::size_t vec_bytes, Datatype dt, Op op,
                        std::size_t lo, std::size_t n) {
    const std::size_t ds = datatype_size(dt);
    std::byte* res =
        buf.at(static_cast<std::size_t>(ppn) * vec_bytes + lo * ds);
    ctx.copy_bytes(res, buf.at(lo * ds), n * ds);
    for (int k = 1; k < ppn; ++k) {
        apply_op(ctx, op, dt, res,
                 buf.at(static_cast<std::size_t>(k) * vec_bytes + lo * ds), n);
    }
    return n * ds;
}

/// The cooperative on-node reduction of Hy_Allreduce and Hy_Reduce: every
/// rank reduces its stripe of elements across all on-node contributions —
/// parallel work instead of a leader bottleneck.
void node_reduce(const HierComm& hc, const NodeSharedBuffer& buf,
                 std::size_t count, Datatype dt, Op op) {
    const Comm& shm = hc.shm();
    TraceSpan span(shm.ctx(), hytrace::Phase::Compute, "node_reduce");
    const auto [lo, hi] = stripe(count, shm.size(), shm.rank());
    span.set_bytes(fold_stripe(shm.ctx(), buf, shm.size(),
                               count * datatype_size(dt), dt, op, lo, hi - lo));
}

constexpr RoundNames kAllreduceNames{
    "hy_allreduce",        "Hy_Allreduce",       "hy_iallreduce",
    "hy_allreduce_start",  "Hy_Allreduce_start", "hy_allreduce_finish",
    "Hy_Allreduce_finish"};

}  // namespace

// ---- AllreduceChannel ----

AllreduceChannel::AllreduceChannel(const HierComm& hc, std::size_t count,
                                   Datatype dt)
    : hc_(&hc),
      buf_(hc, (static_cast<std::size_t>(hc.shm().size()) + 1) * count *
                   datatype_size(dt)),
      round_(hc, kAllreduceNames),
      count_(count),
      dt_(dt),
      vec_bytes_(count * datatype_size(dt)) {
    round_.boot(buf_, /*flat_rung=*/false);
}

std::byte* AllreduceChannel::my_input() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().rank()) * vec_bytes_);
}

std::byte* AllreduceChannel::result() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().size()) * vec_bytes_);
}

bool AllreduceChannel::leg(std::byte* slice, std::size_t bytes, Op op,
                           std::uint64_t gen) {
    const Comm& bridge = hc_->bridge();
    const std::size_t n = bytes / datatype_size(dt_);
    if (round_.robust() == nullptr) {
        minimpi::allreduce(bridge, minimpi::kInPlace, slice, n, dt_, op);
        return true;
    }
    // Reliable ring allgather of the node partials, then a local reduction
    // in ascending node order — identical on every leader, so the shared
    // result vectors agree bitwise.
    minimpi::RankCtx& ctx = bridge.ctx();
    const auto bp = static_cast<std::size_t>(bridge.size());
    Scratch parts_s(ctx, bp * bytes);
    std::byte* parts = parts_s.data();
    ctx.copy_bytes(at(parts, static_cast<std::size_t>(bridge.rank()) * bytes),
                   slice, bytes);
    if (!round_.ring(robust::kOpAllreduce, gen, [&](int, int src) {
            return RingLeg{slice, bytes,
                           at(parts, static_cast<std::size_t>(src) * bytes),
                           bytes};
        })) {
        return false;
    }
    ctx.copy_bytes(slice, parts, bytes);
    for (std::size_t k = 1; k < bp; ++k) {
        apply_op(ctx, op, dt_, slice, at(parts, k * bytes), n);
    }
    return true;
}

RoundSteps AllreduceChannel::steps(Op op) {
    RoundSteps s;
    s.bytes = vec_bytes_;
    s.contribute = [this, op] {
        node_reduce(*hc_, buf_, count_, dt_, op);
        // NUMA cost of the striped reduction: every rank read the inputs of
        // the OTHER socket's members (inert on 1-socket clusters).
        round_.stager().reduce_gather(vec_bytes_, staging_);
    };
    s.bridge = [this, op] {
        BridgeSpan span(hc_->bridge(), round_.robust() != nullptr
                                           ? "reliable_ring"
                                           : "allreduce");
        return leg(result(), vec_bytes_, op, round_.gen());
    };
    return s;
}

void AllreduceChannel::run(Op op, SyncPolicy sync) {
    RoundSteps s = steps(op);
    s.staging = staging_;
    s.chunk_bytes = chunk_bytes_;
    s.chunked = [this, op](const PipelinePlan& pp, TraceSpan&) {
        return run_pipelined(op, pp);
    };
    round_.run(sync, vec_bytes_, s);
}

minimpi::CollRequest AllreduceChannel::start(Op op, SyncPolicy sync) {
    RoundSteps s = steps(op);
    s.blocking = [this, op, sync] { run(op, sync); };
    return round_.start(sync, vec_bytes_, s);
}

bool AllreduceChannel::run_pipelined(Op op, const PipelinePlan& plan) {
    const Comm& shm = hc_->shm();
    minimpi::RankCtx& ctx = shm.ctx();
    const int ppn = shm.size();
    const int me = shm.rank();
    const std::size_t ds = datatype_size(dt_);
    const std::size_t ce = std::max<std::size_t>(plan.chunk_bytes / ds, 1);
    const std::vector<std::size_t> lens =
        detail::chunk_lens(vec_bytes_, ce * ds);
    const std::size_t nchunks = lens.size();
    NodeSync& sync = round_.sync();

    // Chunked cooperative reduction (XBRC): each rank reduces its stripe
    // of chunk c's elements directly into the node result slice — the
    // leader's staging buffer, so there is no second copy — and publishes
    // chunk c on its per-rank ready flag as soon as the stripe is done.
    {
        TraceSpan reduce_span(ctx, hytrace::Phase::Compute, "node_reduce");
        reduce_span.set_chunks(nchunks);
        std::size_t total_sb = 0;
        for (std::size_t c = 0; c < nchunks; ++c) {
            const auto [lo, hi] = stripe(lens[c] / ds, ppn, me);
            total_sb += fold_stripe(ctx, buf_, ppn, vec_bytes_, dt_, op,
                                    c * ce + lo, hi - lo);
            // NUMA cost of this chunk's striped input gather.
            round_.stager().reduce_gather(lens[c], plan.leaf);
            // The leader consumes its own completion in program order; only
            // the other ranks need a flag (slot 0 stays untouched all round,
            // which keeps every rank's mirror of it trivially consistent).
            if (me != 0) sync.chunk_signal(sync.chunk_slot_rank(me));
        }
        reduce_span.set_bytes(total_sb);
    }

    // Producer (the primary leader): bridge chunk c as soon as its ppn-1
    // ready flags land — overlapping the node's reduction of chunk c+1 —
    // then publish the globally-reduced chunk on the node-level flag.
    const bool producer = hc_->is_primary_leader();
    std::vector<std::uint64_t> base(static_cast<std::size_t>(ppn), 0);
    for (int r = 1; r < ppn; ++r) {
        if (producer) {
            base[static_cast<std::size_t>(r)] =
                sync.chunk_mark(sync.chunk_slot_rank(r));
        } else if (r != me) {
            sync.chunk_skip(sync.chunk_slot_rank(r), nchunks);
        }
    }
    const bool ok = round_.chunked(
        plan, lens, producer, "chunked_allreduce", [&](std::size_t c) {
            for (int r = 1; r < ppn; ++r) {
                sync.chunk_wait(sync.chunk_slot_rank(r),
                                base[static_cast<std::size_t>(r)] + c + 1);
            }
            return leg(buf_.at(static_cast<std::size_t>(ppn) * vec_bytes_ +
                               c * ce * ds),
                       lens[c], op,
                       round_.robust() != nullptr
                           ? robust::chunked_gen(round_.gen(), c)
                           : 0);
        });
    if (producer) {
        for (int r = 1; r < ppn; ++r) {
            sync.chunk_skip(sync.chunk_slot_rank(r), nchunks);
        }
    }
    return ok;
}

// ---- GatherChannel / ScatterChannel ----

namespace detail {

RootedBlocks::RootedBlocks(const HierComm& hc, std::size_t block_bytes,
                           int root, const RoundNames& names)
    : hc_(&hc),
      buf_(hc, (hc.node_of_rank(root) == hc.my_node()
                    ? static_cast<std::size_t>(hc.world().size())
                    : static_cast<std::size_t>(hc.node_size(hc.my_node()))) *
                   block_bytes),
      round_(hc, names),
      bb_(block_bytes),
      root_node_(hc.node_of_rank(root)) {
    round_.boot(buf_, /*flat_rung=*/false);
}

std::byte* RootedBlocks::my_block() const {
    const std::size_t slot =
        static_cast<std::size_t>(hc_->slot_of(hc_->world().rank()));
    if (hc_->my_node() == root_node_) return buf_.at(slot * bb_);
    return buf_.at(
        (slot - static_cast<std::size_t>(hc_->node_offset(hc_->my_node()))) *
        bb_);
}

std::byte* RootedBlocks::slot_block(int comm_rank) const {
    return buf_.at(static_cast<std::size_t>(hc_->slot_of(comm_rank)) * bb_);
}

void RootedBlocks::run(SyncPolicy sync, const char* algo, bool fan_in,
                       int op, const PlainLeg& plain) {
    RoundSteps s;
    s.bridge = [&] {
        const int nn = hc_->num_nodes();
        std::vector<std::size_t> counts(static_cast<std::size_t>(nn));
        std::vector<std::size_t> displs(static_cast<std::size_t>(nn));
        for (int n = 0; n < nn; ++n) {
            counts[static_cast<std::size_t>(n)] =
                static_cast<std::size_t>(hc_->node_size(n)) * bb_;
            displs[static_cast<std::size_t>(n)] =
                static_cast<std::size_t>(hc_->node_offset(n)) * bb_;
        }
        const std::size_t mine =
            counts[static_cast<std::size_t>(hc_->my_node())];
        BridgeSpan span(hc_->bridge(),
                        round_.robust() != nullptr ? "reliable_linear" : algo);
        if (round_.robust() == nullptr) {
            plain(counts, displs, mine);
            return true;
        }
        // Reliable linear gather/scatter: the root's leader moves node
        // blocks in ascending node order (bridge rank == node index).
        const bool root = hc_->my_node() == root_node_;
        return round_.linear(root_node_, fan_in, op, round_.gen(), [&](int n) {
            const auto i = static_cast<std::size_t>(n);
            return root ? std::pair{buf_.at(displs[i]), counts[i]}
                        : std::pair{buf_.data(), mine};
        });
    };
    round_.run(sync, static_cast<std::size_t>(hc_->world().size()) * bb_, s);
}

}  // namespace detail

GatherChannel::GatherChannel(const HierComm& hc, std::size_t block_bytes,
                             int root)
    : RootedBlocks(hc, block_bytes, root, {"hy_gather", "Hy_Gather"}) {}

std::byte* GatherChannel::gathered(int comm_rank) const {
    return slot_block(comm_rank);
}

void GatherChannel::run(SyncPolicy sync) {
    RootedBlocks::run(
        sync, "gatherv", /*fan_in=*/true, robust::kOpGather,
        [this](const auto& counts, const auto& displs, std::size_t mine) {
            const bool root = hc_->my_node() == root_node_;
            minimpi::gatherv(hc_->bridge(),
                             root ? minimpi::kInPlace : buf_.data(), mine,
                             root ? buf_.data() : nullptr, counts, displs,
                             Datatype::Byte, root_node_);
        });
}

ScatterChannel::ScatterChannel(const HierComm& hc, std::size_t block_bytes,
                               int root)
    : RootedBlocks(hc, block_bytes, root, {"hy_scatter", "Hy_Scatter"}) {}

std::byte* ScatterChannel::outgoing(int comm_rank) const {
    return slot_block(comm_rank);
}

void ScatterChannel::run(SyncPolicy sync) {
    // The root's stores complete (ready sync) before its leader ships the
    // slices; the root node's own slice is already in place.
    RootedBlocks::run(
        sync, "scatterv", /*fan_in=*/false, robust::kOpScatter,
        [this](const auto& counts, const auto& displs, std::size_t mine) {
            const bool root = hc_->my_node() == root_node_;
            minimpi::scatterv(
                hc_->bridge(), root ? buf_.data() : nullptr, counts, displs,
                root ? buf_.at(displs[static_cast<std::size_t>(root_node_)])
                     : buf_.data(),
                mine, Datatype::Byte, root_node_);
        });
}

// ---- ReduceChannel ----

ReduceChannel::ReduceChannel(const HierComm& hc, std::size_t count,
                             Datatype dt, int root)
    : hc_(&hc),
      buf_(hc, (static_cast<std::size_t>(hc.shm().size()) + 1) * count *
                   datatype_size(dt)),
      round_(hc, {"hy_reduce", "Hy_Reduce"}),
      count_(count),
      dt_(dt),
      vec_bytes_(count * datatype_size(dt)),
      root_node_(hc.node_of_rank(root)) {
    round_.boot(buf_, /*flat_rung=*/false);
}

std::byte* ReduceChannel::my_input() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().rank()) * vec_bytes_);
}

std::byte* ReduceChannel::result() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().size()) * vec_bytes_);
}

void ReduceChannel::run(Op op, SyncPolicy sync) {
    RoundSteps s;
    s.contribute = [this, op] { node_reduce(*hc_, buf_, count_, dt_, op); };
    s.bridge = [this, op] {
        const Comm& bridge = hc_->bridge();
        const bool root = hc_->my_node() == root_node_;
        BridgeSpan span(bridge, round_.robust() != nullptr ? "reliable_linear"
                                                           : "reduce");
        if (round_.robust() == nullptr) {
            minimpi::reduce(bridge, root ? minimpi::kInPlace : result(),
                            root ? result() : nullptr, count_, dt_, op,
                            root_node_);
            return true;
        }
        // Reliable linear reduce: the root's leader drains node partials
        // in ascending node order and folds them in that same order —
        // deterministic regardless of arrival interleaving.
        Scratch part_s(bridge.ctx(), root ? vec_bytes_ : 0);
        return round_.linear(
            root_node_, /*fan_in=*/true, robust::kOpReduce, round_.gen(),
            [&](int) {
                return std::pair{root ? part_s.data() : result(), vec_bytes_};
            },
            [&] {
                apply_op(bridge.ctx(), op, dt_, result(), part_s.data(),
                         count_);
            });
    };
    round_.run(sync, vec_bytes_, s);
}

// ---- AlltoallChannel ----

AlltoallChannel::AlltoallChannel(const HierComm& hc, std::size_t block_bytes)
    : hc_(&hc),
      buf_(hc, 2 * static_cast<std::size_t>(hc.node_size(hc.my_node())) *
                   static_cast<std::size_t>(hc.world().size()) * block_bytes),
      round_(hc, {"hy_alltoall", "Hy_Alltoall"}),
      bb_(block_bytes) {
    round_.boot(buf_, /*flat_rung=*/false);
}

std::size_t AlltoallChannel::row_bytes() const {
    return static_cast<std::size_t>(hc_->world().size()) * bb_;
}

std::byte* AlltoallChannel::send_block(int dest_rank) const {
    const std::size_t local =
        static_cast<std::size_t>(hc_->slot_of(hc_->world().rank()) -
                                 hc_->node_offset(hc_->my_node()));
    return buf_.at(local * row_bytes() +
                   static_cast<std::size_t>(hc_->slot_of(dest_rank)) * bb_);
}

std::byte* AlltoallChannel::recv_block(int src_rank) const {
    const std::size_t ppn = static_cast<std::size_t>(hc_->node_size(hc_->my_node()));
    const std::size_t local =
        static_cast<std::size_t>(hc_->slot_of(hc_->world().rank()) -
                                 hc_->node_offset(hc_->my_node()));
    return buf_.at((ppn + local) * row_bytes() +
                   static_cast<std::size_t>(hc_->slot_of(src_rank)) * bb_);
}

void AlltoallChannel::run(SyncPolicy sync) {
    RoundSteps s;
    // No single-node shortcut: the primary leader's transpose still runs
    // between the ready and release syncs.
    s.fast_path = false;
    s.bridge = [this] {
        minimpi::RankCtx& ctx = hc_->world().ctx();
        const int nn = hc_->num_nodes();
        const int my_node = hc_->my_node();
        const auto ppn = static_cast<std::size_t>(hc_->node_size(my_node));
        const std::size_t row = row_bytes();
        auto send_row = [&](std::size_t m) { return buf_.at(m * row); };
        auto recv_row = [&](std::size_t m) { return buf_.at((ppn + m) * row); };
        const std::size_t my_off =
            static_cast<std::size_t>(hc_->node_offset(my_node)) * bb_;

        // Intra-node transpose: member m's block for member c moves from
        // m's send row to c's receive row — pure load/store.
        {
            TraceSpan copy_span(ctx, hytrace::Phase::Copy,
                                "intra_node_transpose");
            ShmBytesScope shm_scope(ctx, copy_span);
            for (std::size_t m = 0; m < ppn; ++m) {
                for (std::size_t c = 0; c < ppn; ++c) {
                    ctx.copy_bytes(at(recv_row(c), my_off + m * bb_),
                                   at(send_row(m), my_off + c * bb_), bb_);
                }
            }
        }
        if (nn == 1) return true;

        BridgeSpan span(hc_->bridge(), round_.robust() != nullptr
                                           ? "reliable_pairwise"
                                           : "pairwise");
        std::size_t max_sz = 0;
        for (int n = 0; n < nn; ++n) {
            max_sz = std::max(max_sz,
                              static_cast<std::size_t>(hc_->node_size(n)));
        }
        Scratch out_s(ctx, ppn * max_sz * bb_);
        Scratch in_s(ctx, max_sz * ppn * bb_);
        auto node_sz = [&](int n) {
            return static_cast<std::size_t>(hc_->node_size(n));
        };
        auto node_off = [&](int n) {
            return static_cast<std::size_t>(hc_->node_offset(n)) * bb_;
        };
        // Pairwise over the primary bridge (bridge rank == node index):
        // pack every local row's blocks destined to to_node, exchange, and
        // unpack — sender member m2's block for local member c lands in c's
        // receive row at the sender's slot.
        return round_.ring(
            robust::kOpAlltoall, round_.gen(),
            [&](int to_node, int from_node) {
                const std::size_t to_sz = node_sz(to_node);
                for (std::size_t m = 0; m < ppn; ++m) {
                    ctx.copy_bytes(at(out_s.data(), m * to_sz * bb_),
                                   at(send_row(m), node_off(to_node)),
                                   to_sz * bb_);
                }
                return RingLeg{out_s.data(), ppn * to_sz * bb_, in_s.data(),
                               node_sz(from_node) * ppn * bb_};
            },
            [&](int from_node) {
                for (std::size_t m2 = 0; m2 < node_sz(from_node); ++m2) {
                    for (std::size_t c = 0; c < ppn; ++c) {
                        ctx.copy_bytes(
                            at(recv_row(c), node_off(from_node) + m2 * bb_),
                            at(in_s.data(), (m2 * ppn + c) * bb_), bb_);
                    }
                }
            },
            /*plain_tag=*/0x20);
    };
    round_.run(sync, row_bytes(), s);
}

}  // namespace hympi
