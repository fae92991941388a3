#pragma once

#include <span>

#include "hybrid/round.h"

namespace hympi {

/// How the per-node leaders exchange node blocks (paper Sect. 4.1: "the
/// irregular allgather variant is employed... can also be replaced by other
/// regular operations (e.g., broadcast)"; the pipelined variant is the
/// large-message method of Traeff et al. '08 that the conclusion points to).
///
/// Allgatherv delegates to the vendor library's MPI_Allgatherv and pays its
/// under-tuning penalty (the Fig. 8 gap). BruckV, NeighborExchange and
/// Pipelined are hybrid-layer implementations built directly on bridge
/// point-to-point traffic — the directions of "A Locality-Aware Bruck
/// Allgather" (arXiv:2206.03564) — which is exactly what lets the tuned
/// tables close that gap.
enum class BridgeAlgo {
    Auto,        ///< consult the profile's decision table (default;
                 ///< falls back to Allgatherv when the profile has none)
    Allgatherv,  ///< MPI_Allgatherv over the bridge (the paper's default)
    Bcast,       ///< one rooted broadcast per node block
    Pipelined,   ///< segmented, pipelined ring for large node blocks
    BruckV,      ///< log-round Bruck allgatherv on bridge point-to-point
    NeighborExchange,  ///< pairwise neighbor exchange (even bridge size,
                       ///< contiguous slices; falls back to Allgatherv)
    LocBruck,    ///< locality-aware Bruck (arXiv:2206.03564): the primary
                 ///< leader ships whole aggregated node blocks — the data
                 ///< classic Bruck's first ceil(log2 ppn) rounds would move
                 ///< rank-by-rank already travelled over shared memory into
                 ///< the node block, and with L leaders per node ONE Bruck
                 ///< exchange replaces L interleaved ones (an L-fold
                 ///< inter-node message-count reduction). Non-primary
                 ///< leaders send nothing; their slices ride along.
};

/// Hy_Allgather / Hy_Allgatherv (paper Fig. 3b and Fig. 4): a reusable
/// channel holding the one-off state — the node-shared result buffer, the
/// synchronization flags, and the bridge counts/displacements — so the
/// repeated collective is exactly the paper's lines 23-39.
///
/// Usage per iteration:
///   1. each rank writes its contribution through my_block();
///   2. run();
///   3. every rank reads any rank's data through block_of(r).
///
/// The buffer is laid out node-major ("slot" order). Under SMP-style
/// placement on a node-contiguous communicator, slot == rank; otherwise
/// block_of() translates through the node-sorted rank array (Sect. 6) —
/// readers are position-independent either way.
class AllgatherChannel {
public:
    /// Regular allgather: every rank contributes @p block_bytes.
    /// Collective over hc.world().
    AllgatherChannel(const HierComm& hc, std::size_t block_bytes);

    /// Irregular allgather (Hy_Allgatherv): bytes_per_rank indexed by comm
    /// rank. Collective over hc.world().
    AllgatherChannel(const HierComm& hc,
                     std::span<const std::size_t> bytes_per_rank);

    /// Where this rank writes its contribution (its private partition of
    /// the node-shared buffer — Fig. 4 line 21).
    std::byte* my_block() const { return block_of(hc_->world().rank()); }

    /// Where rank @p comm_rank's gathered data lives after run(). After a
    /// hybrid->flat downgrade this transparently redirects into the rank's
    /// private buffer (same slot-major offsets), so readers never notice.
    std::byte* block_of(int comm_rank) const {
        return at(
            slot_offset_[static_cast<std::size_t>(hc_->slot_of(comm_rank))]);
    }
    std::size_t block_size(int comm_rank) const {
        return block_bytes_[static_cast<std::size_t>(comm_rank)];
    }

    /// Whole result buffer (node-major slot order): the node-shared segment,
    /// or the private flat copy after a downgrade.
    std::byte* data() const { return at(0); }
    std::size_t total_bytes() const { return total_bytes_; }

    /// Paper Sect. 6's datatype alternative for non-SMP placements:
    /// materialize a RANK-ordered private copy of the gathered data in
    /// @p dst (total_bytes() bytes) through a derived-datatype pack. This
    /// pays exactly the pack/unpack penalty that the node-sorted slot map
    /// (block_of) avoids — provided for interfacing with code that expects
    /// the pure-MPI allgather layout, and for the placement ablation.
    void repack_rank_order(void* dst) const;

    /// The repeated collective: on-node sync, leader bridge exchange,
    /// on-node sync (Fig. 4 lines 23-39). Single-node communicators take
    /// the one-barrier fast path (lines 29-30).
    void run(SyncPolicy sync = SyncPolicy::Barrier,
             BridgeAlgo algo = BridgeAlgo::Auto);

    /// Separate a read phase from the next write phase: callers that READ
    /// other ranks' blocks after run() and then REWRITE their own partition
    /// before the next run() must quiesce in between, or a fast writer
    /// races slow on-node readers (the result buffer is genuinely shared —
    /// the hazard the pure-MPI version's private copies never see).
    /// After a hybrid->flat downgrade every rank owns a private copy, so
    /// there is nothing to quiesce.
    void quiesce(SyncPolicy sync = SyncPolicy::Barrier) {
        if (!round_.degraded_flat()) round_.sync().full_sync(sync);
    }

    /// Resilience counters of this channel (robust mode only; all zero on
    /// the fault-free fast path).
    const RobustStats& robust_stats() const { return round_.stats(); }

    /// Rung 2 of the degradation ladder: the channel has fallen back to a
    /// flat MPI_Allgatherv over the full communicator (exhausted bridge
    /// retries or SHM allocation failure). Sticky for the channel lifetime.
    bool degraded_flat() const { return round_.degraded_flat(); }

    /// Nonblocking split-phase round implementing the overlap the paper's
    /// conclusion describes ("it is straightforward to let the on-node MPI
    /// processes overlap with the network traffic by working on their own
    /// data regions"): runs the ready sync, posts the leaders' bridge
    /// exchange as an engine task (charged to the request's sub-clock, so
    /// it overlaps caller compute on ANY rank), and defers the release sync
    /// + on-node NUMA copy to the returned request's wait(). Between start()
    /// and wait() every rank may compute on its OWN partition. The channel
    /// is the persistent descriptor: the HierComm, SHM window, SocketStager,
    /// bridge layout and the leader's engine worker are all cached across
    /// start() calls — only one round may be in flight per channel at a
    /// time (RequestError otherwise). Robust mode completes synchronously at
    /// post (the reliable frame paths are main-clock by design).
    minimpi::CollRequest start(SyncPolicy sync = SyncPolicy::Barrier,
                               BridgeAlgo algo = BridgeAlgo::Auto);

    /// Override the segment size of BridgeAlgo::Pipelined (0 = use the
    /// tuned/default heuristic). For the tuner's segment sweep and for
    /// experiments.
    void set_pipeline_segment(std::size_t bytes) {
        pipeline_segment_ = bytes;
    }

    /// How the on-node phases treat the NUMA socket boundary (only
    /// meaningful on clusters with sockets_per_node > 1; inert otherwise).
    /// Default Auto consults the tuned SocketStaging decision table.
    /// SocketStaging::Pipelined runs the chunked single-copy engine on
    /// multi-node rounds (single-node rounds degrade to Staged).
    void set_socket_staging(SocketStaging s) { staging_ = s; }
    SocketStaging socket_staging() const { return staging_; }

    /// Explicit pipeline chunk size (0 = the tuned/default size). Only
    /// meaningful for rounds the engine actually chunks.
    void set_chunk_bytes(std::size_t b) { chunk_bytes_ = b; }
    std::size_t chunk_bytes() const { return chunk_bytes_; }

    const HierComm& hier() const { return *hc_; }

private:
    void init_layout(std::span<const std::size_t> bytes_per_rank);
    /// Byte @p off of the result: the node-shared segment, or the private
    /// flat copy after a downgrade (null-safe).
    std::byte* at(std::size_t off) const {
        if (!round_.degraded_flat()) return buf_.at(off);
        return flat_buf_.empty()
                   ? nullptr
                   : const_cast<std::byte*>(flat_buf_.data()) + off;
    }
    /// The leaders' plain whole-message exchange, by algorithm.
    void bridge_exchange(BridgeAlgo algo);
    /// Resolve BridgeAlgo::Auto via the profile's decision table, keyed by
    /// (bridge size, largest node-block byte count). May set @p seg when
    /// the table tuned a pipeline segment size.
    BridgeAlgo tuned_bridge_algo(std::size_t& seg) const;
    /// A leader's whole-message leg: the tuned exchange, or in robust mode
    /// the pairwise ring of reliable (ARQ) transfers.
    bool bridge(BridgeAlgo algo);
    /// Robust pairwise ring over the given per-bridge-rank slices.
    bool reliable_ring(std::span<const std::size_t> counts,
                       std::span<const std::size_t> displs,
                       std::uint64_t gen);
    /// The chunked single-copy round: the leader's exchange runs in chunk
    /// passes (pass c ships bytes [c*chunk, (c+1)*chunk) of every node
    /// block), each pass published down the node/socket tree by its own
    /// release flag.
    bool run_pipelined(const PipelinePlan& plan);
    /// Rung 2 (the round already counted the downgrade): build the private
    /// slot-major buffer, counts per world rank and displacements keeping
    /// the slot-major offsets.
    void make_flat();
    /// Flat MPI_Allgatherv over world into the private buffer.
    void run_flat();

    const HierComm* hc_ = nullptr;
    NodeSharedBuffer buf_;
    HybridRound round_;
    SocketStaging staging_ = SocketStaging::Auto;
    std::size_t total_bytes_ = 0;
    std::vector<std::size_t> block_bytes_;  ///< per comm rank
    std::vector<std::size_t> slot_offset_;  ///< per slot, bytes into buffer
    /// Whole node blocks in node-major order (rank-uniform): the LocBruck
    /// exchange and the chunked passes ship these.
    std::vector<std::size_t> node_displs_;
    std::vector<std::size_t> node_counts_;

    /// One-off bridge parameters for my leader role (Fig. 4: "the omitted
    /// computation of ... received count and displacement ... is a one-off").
    std::vector<std::size_t> bridge_counts_;  ///< per bridge rank, bytes
    std::vector<std::size_t> bridge_displs_;  ///< per bridge rank, bytes
    std::size_t max_bridge_count_ = 0;        ///< largest bridge slice
    /// Largest whole-node block (rank-uniform, unlike max_bridge_count_,
    /// which is per leader slice) — the LocBruck table key, so every
    /// leader of a multi-leader node resolves Auto identically and the
    /// primary's whole-block writes can never overlap a divergent peer's.
    std::size_t max_node_block_ = 0;
    /// Bridge slices abut in the shared buffer (true with one leader per
    /// node: node-major order); NeighborExchange requires it.
    bool bridge_contiguous_ = true;
    std::size_t pipeline_segment_ = 0;  ///< 0 = tuned/default heuristic
    std::size_t chunk_bytes_ = 0;       ///< explicit pipeline chunk override

    /// Derived datatype mapping slot-major storage to rank order (one-off).
    minimpi::Layout rank_order_layout_;

    std::vector<std::byte> flat_buf_;       ///< private slot-major copy
    std::vector<std::size_t> flat_displs_;  ///< per world rank, bytes
};

/// Default segment size for BridgeAlgo::Pipelined, used when neither the
/// decision table nor set_pipeline_segment supplies one.
inline constexpr std::size_t kPipelineSegmentBytes = 32 * 1024;

namespace detail {

/// The rotated-doubling Bruck allgatherv core shared by BridgeAlgo::BruckV
/// (per-leader bridge slices), BridgeAlgo::LocBruck (whole node blocks) and
/// the small-collective batcher (fused per-node regions): block i of @p base
/// — @p counts[i] bytes at @p displs[i] — is owned by bridge rank i; after
/// the call every rank holds every block. ceil(log2 p) rounds of doubling
/// aggregated transfers through a rotated scratch, then one unrotation pass.
/// Zero-count blocks cost nothing and land correctly (the rotated prefix
/// sums simply collapse); null @p base (SizeOnly payload mode) is fine.
/// Tags kTagHier + @p tag_base + round.
void node_block_bruck(const minimpi::Comm& bridge, std::byte* base,
                      std::span<const std::size_t> displs,
                      std::span<const std::size_t> counts, int tag_base);

}  // namespace detail

}  // namespace hympi
