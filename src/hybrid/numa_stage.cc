#include "hybrid/numa_stage.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "hybrid/hy_trace.h"
#include "tuning/decision.h"

namespace hympi {

std::vector<std::size_t> detail::chunk_lens(std::size_t bytes,
                                            std::size_t chunk_bytes) {
    std::vector<std::size_t> lens((bytes + chunk_bytes - 1) / chunk_bytes);
    for (std::size_t c = 0; c < lens.size(); ++c) {
        lens[c] = std::min(chunk_bytes, bytes - c * chunk_bytes);
    }
    return lens;
}

SocketStager::SocketStager(const HierComm& hc) : hc_(&hc) {
    const RobustConfig* cfg = hc.world().ctx().robust_cfg;
    // Staging regions are defined per whole node, so multi-leader slicing
    // is out of scope; the robust path keeps its pre-socket cost structure
    // so recovery traces stay comparable across socket counts.
    active_ = hc.has_socket_level() && hc.leaders_per_node() == 1 &&
              (cfg == nullptr || !cfg->enabled);
}

SocketStaging SocketStager::resolve(SocketStaging mode,
                                    std::size_t bytes) const {
    // A pipelined round stages its chunks through the socket mirror when
    // the socket model applies; everywhere else its leaf phase is flat.
    if (mode == SocketStaging::Pipelined) {
        return active_ ? SocketStaging::Staged : SocketStaging::Flat;
    }
    if (mode != SocketStaging::Auto) return mode;
    if (!active_) return SocketStaging::Flat;
    // Clamp before the tuned-table log-rounding: a 0-byte query has no
    // geometric position on the size axis (and the legacy threshold below
    // is trivially false), so it resolves like the smallest positive size
    // instead of leaning on lookup fallback behaviour.
    if (bytes == 0) bytes = 1;
    const tuning::DecisionTable* table = hc_->world().ctx().tuned;
    if (table != nullptr) {
        const auto c = table->lookup(tuning::Op::SocketStaging,
                                     tuning::Shape::Shm, hc_->shm().size(),
                                     bytes);
        if (c.has_value()) {
            return c->algo == tuning::algo::kSsStaged ? SocketStaging::Staged
                                                      : SocketStaging::Flat;
        }
    }
    // Legacy heuristic: staging pays a socket barrier and a serialized
    // mirror copy; it wins once the contended per-reader crossing
    // dominates those fixed costs.
    return (bytes >= 16 * 1024 && hc_->socket().size() >= 2)
               ? SocketStaging::Staged
               : SocketStaging::Flat;
}

PipelinePlan SocketStager::plan(SocketStaging mode, std::size_t bytes,
                                bool multi_node,
                                std::size_t chunk_override) const {
    PipelinePlan p;
    p.leaf = resolve(mode, bytes);
    // The chunked path overlaps the bridge transfer with the on-node
    // copies, so it needs a bridge (multi-node) and whole-node staging
    // slices (one leader per node); a single-node or multi-leader round
    // falls back to the whole-message modes above.
    if (bytes == 0 || !multi_node || hc_ == nullptr ||
        hc_->leaders_per_node() != 1) {
        return p;
    }
    // Rank-uniform inputs only: the largest node population of the channel
    // and a cluster-level socket gate. Keyed per node, irregular clusters
    // would let nodes disagree about whether (and in how many chunks) the
    // bridge runs pipelined, and their leaders would wait on each other
    // forever.
    int ppn = 0;
    for (int n = 0; n < hc_->num_nodes(); ++n) {
        ppn = std::max(ppn, hc_->node_size(n));
    }
    const RobustConfig* cfg = hc_->world().ctx().robust_cfg;
    const bool sockets = hc_->world().ctx().cluster->sockets_per_node() > 1 &&
                         ppn >= 2 && (cfg == nullptr || !cfg->enabled);
    const tuning::DecisionTable* table = hc_->world().ctx().tuned;
    const auto tuned = [&]() -> std::optional<tuning::Choice> {
        if (table == nullptr) return std::nullopt;
        return table->lookup(tuning::Op::ChunkSize, tuning::Shape::Shm, ppn,
                             bytes);
    };
    std::size_t chunk = chunk_override;
    if (mode == SocketStaging::Auto) {
        // Auto engages pipelining only on a tuned ChunkSize entry (and
        // only where the socket model applies — with free leaf reads the
        // chunked bridge has nothing to overlap): no table, no pipeline,
        // so untouched profiles keep their exact pre-pipeline clocks.
        const auto c = sockets ? tuned() : std::nullopt;
        if (!c.has_value() || c->algo != tuning::algo::kCsPipelined) return p;
        if (chunk == 0) chunk = c->segment_bytes;
    } else if (mode != SocketStaging::Pipelined) {
        return p;
    } else if (chunk == 0) {
        const auto c = tuned();
        if (c.has_value() && c->segment_bytes != 0) chunk = c->segment_bytes;
    }
    p.pipelined = true;
    p.chunk_bytes = detail::clamp_segment(chunk, kDefaultChunkBytes, 64, bytes);
    return p;
}

void SocketStager::distribute_chunk(std::size_t chunk_len,
                                    SocketStaging leaf) {
    if (!active_ || chunk_len == 0) return;
    if (hc_->my_socket() == hc_->home_socket()) return;
    minimpi::RankCtx& ctx = hc_->world().ctx();
    if (leaf == SocketStaging::Staged) {
        if (hc_->is_socket_leader()) {
            // One chunk-sized crossing into the socket-local mirror; the
            // per-chunk socket flag (signalled by the caller) replaces the
            // whole-message socket barrier.
            ctx.charge_xsocket_read(chunk_len, 1);
            ctx.charge_memcpy(chunk_len);
        }
    } else {
        ctx.charge_xsocket_read(chunk_len, hc_->socket().size());
    }
}

void SocketStager::consume_chunks(NodeSync& sync,
                                  std::span<const std::size_t> chunk_lens,
                                  SocketStaging leaf) {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    const std::size_t nchunks = chunk_lens.size();
    std::size_t bytes = 0;
    for (const std::size_t l : chunk_lens) bytes += l;
    const bool remote =
        active_ && hc_->my_socket() != hc_->home_socket();
    const bool staged_leaf = leaf == SocketStaging::Staged && remote;
    const int node_slot = sync.chunk_slot_node();
    TraceSpan span(ctx, hytrace::Phase::Copy, "pipeline_consume");
    span.set_algo(staged_leaf ? "staged" : "flat");
    span.set_bytes(bytes);
    span.set_chunks(nchunks);
    HYTRACE_COUNTER(ctx, chunks, nchunks);
    auto chunk_len = [&](std::size_t c) { return chunk_lens[c]; };
    if (staged_leaf && hc_->is_socket_leader()) {
        // Mirror each chunk across as it lands, then re-publish it on this
        // socket's flag: the mirror of chunk i overlaps the producer's
        // bridge transfer of chunk i+1 in virtual time.
        const int sslot = sync.chunk_slot_socket(hc_->my_socket());
        const std::uint64_t base = sync.chunk_mark(node_slot);
        for (std::size_t c = 0; c < nchunks; ++c) {
            sync.chunk_wait(node_slot, base + c + 1);
            TraceSpan mirror(ctx, hytrace::Phase::Copy, "pipeline_chunk");
            mirror.set_bytes(chunk_len(c));
            distribute_chunk(chunk_len(c), SocketStaging::Staged);
            sync.chunk_signal(sslot);
        }
        sync.chunk_skip(node_slot, nchunks);
    } else if (staged_leaf) {
        // Remote-socket peer: read each chunk from the socket-local
        // mirror as the socket leader publishes it (local reads, free).
        const int sslot = sync.chunk_slot_socket(hc_->my_socket());
        const std::uint64_t base = sync.chunk_mark(sslot);
        for (std::size_t c = 0; c < nchunks; ++c) {
            sync.chunk_wait(sslot, base + c + 1);
        }
        sync.chunk_skip(sslot, nchunks);
        sync.chunk_skip(node_slot, nchunks);
    } else {
        // Flat leaf (or home socket): follow the node-level chunk flags;
        // remote-socket readers pull each chunk across contended.
        const std::uint64_t base = sync.chunk_mark(node_slot);
        for (std::size_t c = 0; c < nchunks; ++c) {
            sync.chunk_wait(node_slot, base + c + 1);
            distribute_chunk(chunk_len(c), SocketStaging::Flat);
        }
        sync.chunk_skip(node_slot, nchunks);
    }
}

void SocketStager::distribute(std::size_t bytes, SocketStaging mode) {
    if (!active_ || bytes == 0) return;
    if (hc_->my_socket() == hc_->home_socket()) return;
    minimpi::RankCtx& ctx = hc_->world().ctx();
    mode = resolve(mode, bytes);
    TraceSpan span(ctx, hytrace::Phase::Copy, "numa_distribute");
    span.set_algo(mode == SocketStaging::Staged ? "staged" : "flat");
    span.set_bytes(bytes);
    if (mode == SocketStaging::Staged) {
        if (hc_->is_socket_leader()) {
            // One bulk crossing into the socket-local mirror region.
            ctx.charge_xsocket_read(bytes, 1);
            ctx.charge_memcpy(bytes);
        }
        // Socket-scoped publication: children read the mirror locally.
        minimpi::barrier(hc_->socket());
    } else {
        // Every reader pulls the result across, sharing the inter-socket
        // link with its socket's co-readers.
        ctx.charge_xsocket_read(bytes, hc_->socket().size());
    }
}

void SocketStager::reduce_gather(std::size_t vec_bytes, SocketStaging mode) {
    if (!active_ || vec_bytes == 0) return;
    minimpi::RankCtx& ctx = hc_->world().ctx();
    mode = resolve(mode, vec_bytes);
    const int ppn = hc_->shm().size();
    const int mine = hc_->socket().size();
    TraceSpan span(ctx, hytrace::Phase::Copy, "numa_reduce_gather");
    span.set_algo(mode == SocketStaging::Staged ? "staged" : "flat");
    span.set_bytes(vec_bytes);
    if (mode == SocketStaging::Staged) {
        // Two-level reduction: the socket partial is local; only the
        // leaders cross, each pulling the other sockets' partials once.
        if (hc_->is_socket_leader() && hc_->sockets_on_node() > 1) {
            ctx.charge_xsocket_read(
                vec_bytes *
                    static_cast<std::size_t>(hc_->sockets_on_node() - 1),
                1);
        }
    } else if (ppn > mine) {
        // Striping over all on-node inputs pulls the other sockets' share
        // of every stripe across, contended by this socket's co-workers.
        ctx.charge_xsocket_read(
            vec_bytes * static_cast<std::size_t>(ppn - mine) /
                static_cast<std::size_t>(ppn),
            mine);
    }
}

}  // namespace hympi
