#include "hybrid/hy_bcast.h"

#include "hybrid/hy_trace.h"
#include "minimpi/coll_internal.h"

namespace hympi {

namespace {
std::size_t pad64(std::size_t x) { return (x + 63) & ~std::size_t{63}; }

/// Tag of the engine-fill completion token (root -> node leader). Carried
/// on the fill task's private explicit-sequence context, so it can never
/// collide with collective-tag traffic regardless of the value.
constexpr int kTagFill = 0xC000;

constexpr RoundNames kNames{"hy_bcast",        "Hy_Bcast",
                            "hy_ibcast",       "hy_bcast_start",
                            "Hy_Bcast_start",  "hy_bcast_finish",
                            "Hy_Bcast_finish"};
}  // namespace

BcastChannel::BcastChannel(const HierComm& hc, std::size_t bytes)
    : hc_(&hc),
      buf_(hc, 2 * pad64(bytes)),
      round_(hc, kNames),
      bytes_(bytes),
      bytes_padded_(pad64(bytes)) {
    // Resilience one-offs (robust mode only — the fast path pays nothing).
    if (round_.boot(buf_, /*flat_rung=*/true) &&
        hc.world().ctx().payload_mode == minimpi::PayloadMode::Real) {
        flat_buf_.assign(2 * bytes_padded_, std::byte{0});
    }
}

void BcastChannel::run_flat(int root) {
    minimpi::bcast(hc_->world(), write_buffer(), bytes_,
                   minimpi::Datatype::Byte, root);
}

bool BcastChannel::leg(std::byte* p, std::size_t len, int root_node,
                       std::uint64_t gen) {
    if (round_.robust() == nullptr) {
        minimpi::bcast(hc_->bridge(), p, len, minimpi::Datatype::Byte,
                       root_node);
        return true;
    }
    // Reliable linear broadcast: the root node's leader ships the slot to
    // every other node's leader with bounded retransmit recovery (bridge
    // rank == node index on the primary bridge).
    return round_.linear(root_node, /*fan_in=*/false, robust::kOpBcast, gen,
                         [&](int) { return std::pair{p, len}; });
}

RoundSteps BcastChannel::steps(int root, SyncPolicy sync, bool fill,
                               bool i_fill) {
    const Comm& world = hc_->world();
    if (root < 0 || root >= world.size()) {
        throw minimpi::ArgumentError("Hy_Bcast root out of range");
    }
    const int root_node = hc_->node_of_rank(root);
    std::byte* slot = write_buffer();
    RoundSteps s;
    s.bytes = bytes_;
    s.flat = [this, root] { run_flat(root); };
    // The paper's example (Fig. 5) has the root as a node leader. In the
    // general case the root may be a child: its payload is already in the
    // node-shared segment, but the node's leader must not ship it before
    // the root's store completes — the root's node runs a ready sync.
    // (With the light-weight flag sync every node runs it: the leader-only
    // release does not order a child's next write against the other
    // children's reads, so the ready round supplies that edge.) A fill
    // round widens this to every node under BOTH policies, and the root
    // collects: the engine-side slot writes the round posts (the root's
    // fill copy, the leaders' bridge receives) happen-after every on-node
    // rank's reads of the slot's previous contents exactly because each
    // collector observes all ready flags before arming its task.
    s.ready = [this, sync, fill, i_fill, root, root_node] {
        if (fill) {
            round_.sync().ready_phase(sync, /*collector=*/i_fill);
        } else if (sync == SyncPolicy::Flags ||
                   (hc_->my_node() == root_node &&
                    hc_->rank_at(hc_->node_offset(root_node)) != root)) {
            round_.sync().ready_phase(sync);
        }
    };
    // Fig. 6 line 6: broadcast across nodes over the bridge (leader 0 only
    // — a broadcast has no slices to hand to extra leaders).
    s.bridge = [this, slot, root_node] {
        BridgeSpan span(hc_->bridge(), round_.robust() != nullptr
                                           ? "reliable_linear"
                                           : "bcast");
        return leg(slot, bytes_, root_node, round_.gen());
    };
    return s;
}

void BcastChannel::run(int root, SyncPolicy sync) {
    RoundSteps s = steps(root, sync, false, false);
    s.staging = staging_;
    s.chunk_bytes = chunk_bytes_;
    const int root_node = hc_->node_of_rank(root);
    std::byte* slot = write_buffer();
    s.chunked = [this, slot, root_node](const PipelinePlan& pp,
                                        TraceSpan& root_span) {
        const auto lens = detail::chunk_lens(bytes_, pp.chunk_bytes);
        root_span.set_chunks(lens.size());
        return round_.chunked(
            pp, lens, hc_->is_primary_leader(), "chunked_bcast",
            [&](std::size_t c) {
                // Each chunk's robust frames carry their own generation
                // stamp, so a duplicated frame of chunk i can never be
                // accepted as chunk j.
                return leg(minimpi::detail::at(slot, c * pp.chunk_bytes),
                           lens[c], root_node,
                           round_.robust() != nullptr
                               ? robust::chunked_gen(round_.gen(), c)
                               : 0);
            });
    };
    s.refill = [this, root] {
        // Mid-run downgrade: the root's payload sits in its node's (still
        // valid) shared write slot; salvage it into the private slot, then
        // rebroadcast flat so the round's result matches pure MPI.
        minimpi::RankCtx& ctx = hc_->world().ctx();
        if (ctx.payload_mode == minimpi::PayloadMode::Real) {
            flat_buf_.assign(2 * bytes_padded_, std::byte{0});
        }
        if (hc_->world().rank() == root) {
            ctx.copy_bytes(write_buffer(),
                           buf_.at((epoch_ % 2) * bytes_padded_), bytes_);
        }
        run_flat(root);
    };
    round_.run(sync, bytes_, s);
    ++epoch_;
}

minimpi::CollRequest BcastChannel::start(int root, SyncPolicy sync,
                                         std::optional<const void*> fill) {
    const Comm& world = hc_->world();
    const bool fill_round = fill.has_value();
    const bool i_fill = fill_round && world.rank() == root;
    const void* src = fill_round ? *fill : nullptr;
    RoundSteps s = steps(root, sync, fill_round, i_fill);
    s.blocking = [this, root, sync, i_fill, src] {
        if (i_fill) hc_->world().ctx().copy_bytes(write_buffer(), src, bytes_);
        run(root, sync);
    };
    s.post = [this, i_fill, src] {
        if (round_.degraded_flat() && i_fill) {
            hc_->world().ctx().copy_bytes(write_buffer(), src, bytes_);
        }
    };
    s.done = [this] { ++epoch_; };
    const int root_node = hc_->node_of_rank(root);
    const int root_leader = hc_->rank_at(hc_->node_offset(root_node));
    std::byte* slot = write_buffer();
    if (i_fill) {
        // The root's staging copy rides an engine sub-clock instead of
        // serializing on the main clock before the post. Off-node, it then
        // hands the node leader a zero-byte token on the task's private
        // context — the leader's bridge body consumes it before shipping
        // the slot. On one node no token is needed: the deferred full sync
        // at wait() is what publishes the slot, and the root's own wait()
        // joins this task before it participates.
        s.side_kind = "hy_ibcast_fill";
        s.side = [this, slot, src, root_leader] {
            hc_->world().ctx().copy_bytes(slot, src, bytes_);
            if (hc_->num_nodes() > 1) {
                minimpi::detail::send_bytes(hc_->world(), nullptr, 0,
                                            root_leader, kTagFill,
                                            /*coll_ctx=*/true);
            }
        };
    }
    s.bridge = [this, whole = s.bridge, fill_round, root, root_node, slot,
                src] {
        if (fill_round && hc_->my_node() == root_node) {
            if (hc_->world().rank() == root) {
                // Leader root: fill the slot right here, ahead of the
                // bridge send — same sub-clock, no token.
                hc_->world().ctx().copy_bytes(slot, src, bytes_);
            } else {
                // The round's root is another rank of this node: absorb its
                // completion token before shipping the slot (the arrival
                // stamp carries the copy's end time into this sub-clock).
                minimpi::detail::irecv_bytes_ctx(hc_->world(), nullptr, 0,
                                                 root, kTagFill,
                                                 round_.side_ctx())
                    .wait();
            }
        }
        return whole();
    };
    return round_.start(sync, bytes_, s);
}

}  // namespace hympi
