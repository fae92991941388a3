#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hybrid/hier_comm.h"
#include "hybrid/sync.h"

namespace hympi {

/// How a hybrid channel's on-node phases treat the NUMA socket boundary
/// (only meaningful when the cluster models sockets_per_node > 1):
///  * Flat   — the pre-socket behaviour: every rank touches the node-shared
///    buffer directly, so ranks on a remote socket pay the contended
///    cross-socket (QPI/UPI) cost for every byte they pull across;
///  * Staged — the socket leader crosses the boundary ONCE on behalf of its
///    socket (a bulk mirror copy into a socket-local region), then its
///    socket's ranks read locally after one socket-scoped sync;
///  * Pipelined — the staged single-copy tree, but chunked: the payload
///    moves in chunks, each published down the node->socket->leaf tree by
///    its own release flag as soon as it lands, so the bridge transfer of
///    chunk i+1 overlaps the cross-socket mirror of chunk i and the leaf
///    reads of chunk i-1 (only meaningful on multi-node channels; a
///    single-node round degrades to Staged);
///  * Auto   — consult the profile's tuned decision tables (falls back to a
///    size threshold when the profile has none; Auto never picks Pipelined
///    without a tuned ChunkSize entry saying so).
enum class SocketStaging : std::uint8_t {
    Auto,
    Flat,
    Staged,
    Pipelined,
};

/// Chunk size of a pipelined round when neither an explicit override nor a
/// tuned ChunkSize entry names one.
inline constexpr std::size_t kDefaultChunkBytes = 32 * 1024;

namespace detail {

/// The one segment/chunk clamp rule shared by every segmented path
/// (PipelinePlan::plan, BridgeAlgo::Pipelined in bridge_exchange, and the
/// tuned_bridge_algo resolution): a 0 request means "use @p fallback", the
/// result is floored at max(@p floor, 1) and capped at the payload (itself
/// floored at 1, so a 0-byte round can never divide by zero). Idempotent —
/// re-clamping a clamped value with the same bounds is the identity.
constexpr std::size_t clamp_segment(std::size_t seg, std::size_t fallback,
                                    std::size_t floor, std::size_t payload) {
    if (seg == 0) seg = fallback;
    if (floor < 1) floor = 1;
    if (seg < floor) seg = floor;
    if (payload < 1) payload = 1;
    return seg < payload ? seg : payload;
}

/// Lengths of the chunks of a @p bytes payload split into @p chunk_bytes
/// pieces (the last one short).
std::vector<std::size_t> chunk_lens(std::size_t bytes, std::size_t chunk_bytes);

}  // namespace detail

/// Resolved shape of one pipelined round (see SocketStager::plan).
struct PipelinePlan {
    bool pipelined = false;       ///< run the chunked single-copy path
    std::size_t chunk_bytes = 0;  ///< resolved chunk size (0 when off)
    /// Leaf read mode of each chunk (and of the whole round when the
    /// chunked path is off): Flat or Staged, never Auto/Pipelined.
    SocketStaging leaf = SocketStaging::Flat;
};

/// Per-channel driver of the socket-staged on-node phases. Construction is
/// cheap and local; all methods are no-ops unless the hierarchy has a
/// socket level, the channel has a single leader per node (staging slices
/// are defined per whole node) and robust mode is off — so on every
/// existing configuration the channel's behaviour and virtual clocks are
/// bit-identical to the pre-socket code.
class SocketStager {
public:
    SocketStager() = default;
    explicit SocketStager(const HierComm& hc);

    /// Whether the socket model applies to this channel at all.
    bool active() const { return active_; }

    /// Resolve Auto against the tuned SocketStaging table (keyed by the
    /// on-node population and @p bytes); deterministic and uniform across
    /// the ranks of one socket. Pipelined resolves to the leaf mode it
    /// stages chunks with (Staged when the socket model applies, else
    /// Flat); plan() is the chunked-path entry point.
    SocketStaging resolve(SocketStaging mode, std::size_t bytes) const;

    /// Resolve the full pipeline shape of a round moving @p bytes.
    /// Forced Pipelined engages the chunked path on any multi-node round
    /// (@p chunk_override, then the tuned ChunkSize segment, then a 32 KiB
    /// default picks the chunk size); Auto engages it only when the tuned
    /// ChunkSize table names pipelined at this (ppn, bytes) point AND the
    /// socket model applies to the cluster — without a table Auto never
    /// pipelines, so every previously-tuned configuration keeps its exact
    /// clocks. The bridge shape (pipelined, chunk size) is rank-uniform:
    /// ppn is the channel's largest node population and the gate is
    /// cluster-level, so nodes of different sizes never disagree about the
    /// bridge op; only the leaf mode stays per node.
    PipelinePlan plan(SocketStaging mode, std::size_t bytes, bool multi_node,
                      std::size_t chunk_override) const;

    /// Charge one pipelined chunk's leaf phase: the socket leaders mirror
    /// the chunk across (Staged leaf) or every remote-socket reader pulls
    /// it (Flat leaf). Unlike distribute() there is no trailing socket
    /// barrier — per-chunk socket flags provide the ordering.
    void distribute_chunk(std::size_t chunk_len, SocketStaging leaf);

    /// Consumer side of one pipelined round of chunks of lengths
    /// @p chunk_lens: wait for each chunk's node-level release flag
    /// (published by the producing primary leader as the chunk lands), run
    /// the chunk's leaf phase, and — Staged leaf — have each remote
    /// socket's leader re-publish the chunk on its socket flag so its peers
    /// read the socket-local mirror chunk by chunk. Every rank of the node
    /// except the primary leader calls this exactly once per pipelined
    /// round (the per-slot flag mirrors stay consistent because the round
    /// shape is deterministic and uniform across the node). The producer
    /// must signal exactly chunk_lens.size() node-level flags; allgather
    /// passes ship one slice of EVERY node block, so their lengths taper.
    void consume_chunks(NodeSync& sync, std::span<const std::size_t> chunk_lens,
                        SocketStaging leaf);

    /// Charge the on-node distribution of a @p bytes result that lives in
    /// the home-socket-resident shared buffer. Flat: every remote-socket
    /// rank pulls the result across, contended by its socket's co-readers.
    /// Staged: the socket leader mirrors it across once, then a socket
    /// barrier publishes the mirror. Home-socket ranks read locally (free)
    /// either way.
    void distribute(std::size_t bytes, SocketStaging mode);

    /// Charge the input side of the cooperative on-node reduction, whose
    /// input partitions are homed on their OWNERS' sockets (first touch).
    /// Flat: every rank pulls the other sockets' share of the inputs
    /// across while striping. Staged: each socket reduces locally first and
    /// only its leader crosses, pulling the other sockets' partials once.
    void reduce_gather(std::size_t vec_bytes, SocketStaging mode);

private:
    const HierComm* hc_ = nullptr;
    bool active_ = false;
};

}  // namespace hympi
