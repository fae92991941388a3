#pragma once

#include <optional>

#include "hybrid/round.h"

namespace hympi {

/// Hy_Bcast (paper Fig. 5 / Fig. 6): one node-shared segment holds the
/// broadcast payload per node; only the leaders move data across nodes; all
/// on-node processes read the shared segment through a local pointer.
///
/// Usage per iteration (root rank):
///   1. the root writes the payload through write_buffer();
///   2. every rank calls run(root);
///   3. every rank reads read_buffer().
///
/// Unlike the pure-MPI broadcast there is no intra-node message copy at all
/// — the post-exchange synchronization (Fig. 6 lines 7/10/13) is the only
/// on-node activity.
///
/// The channel is DOUBLE-BUFFERED so it can be reused every iteration with
/// just the paper's single post-exchange sync: the root of iteration e+2
/// overwrites the slot last read at iteration e, and every reader of that
/// slot has since passed the iteration-e+1 synchronization. Without the
/// second slot, the next root's store would race the previous iteration's
/// readers.
class BcastChannel {
public:
    /// Collective over hc.world(); 2 x @p bytes of shared memory per node
    /// (one-off).
    BcastChannel(const HierComm& hc, std::size_t bytes);

    /// Staging slot for the NEXT run(); only the root's writes matter.
    /// After a hybrid->flat downgrade this redirects into the rank's
    /// private double buffer.
    std::byte* write_buffer() const { return slot(epoch_ % 2); }
    /// Slot broadcast by the most recent run().
    std::byte* read_buffer() const { return slot((epoch_ + 1) % 2); }
    std::size_t size() const { return bytes_; }

    /// The repeated collective. @p root is a rank of hc.world(); only the
    /// root's buffer contents are significant on entry.
    void run(int root, SyncPolicy sync = SyncPolicy::Barrier);

    /// Nonblocking split-phase round: posts the primary leaders' bridge
    /// broadcast as an engine task and defers the release sync + on-node
    /// NUMA copy (and the epoch flip — read_buffer() switches slots only at
    /// completion) to the returned request's wait(). One round in flight per
    /// channel; robust mode completes synchronously at post. The channel is
    /// the persistent descriptor — shared slots, sync flags and the leader's
    /// engine worker are reused across start() calls.
    ///
    /// @p fill delegates the root's staging copy (fill -> write_buffer())
    /// to the progress engine so it overlaps the caller's compute instead
    /// of serializing on the main clock before the post. Engaging it is a
    /// COLLECTIVE property of the round: every rank passes an engaged
    /// optional (only the root's pointer is non-null; *fill must stay valid
    /// until wait()), because it widens the pre-post ready sync to all
    /// nodes — the edge that orders the engine-side slot writes after the
    /// previous round's on-node readers. The root hands the node leader a
    /// zero-byte completion token so the bridge never ships a stale slot;
    /// on one node no token is needed (the deferred full sync at wait()
    /// is what publishes the slot, and the root joins its fill task
    /// before participating). Disengaged (the default) is the classic
    /// contract: the root
    /// staged its payload into write_buffer() before the call, and nothing
    /// in the sync shape changes.
    minimpi::CollRequest start(int root, SyncPolicy sync = SyncPolicy::Barrier,
                               std::optional<const void*> fill = std::nullopt);

    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return round_.stats(); }
    /// The channel has fallen back to a flat MPI_Bcast over the full
    /// communicator. Sticky for the channel lifetime.
    bool degraded_flat() const { return round_.degraded_flat(); }

    /// On-node NUMA policy for the post-exchange read phase (inert on
    /// 1-socket clusters). Default Auto consults the tuned table.
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
    /// Slot @p i of the double buffer: node-shared, or the private copy
    /// after a hybrid->flat downgrade (null-safe).
    std::byte* slot(std::uint64_t i) const {
        const std::size_t off = static_cast<std::size_t>(i) * bytes_padded_;
        if (!round_.degraded_flat()) return buf_.at(off);
        return flat_buf_.empty()
                   ? nullptr
                   : const_cast<std::byte*>(flat_buf_.data()) + off;
    }
    /// The steps run() and start() share for a round rooted at @p root.
    RoundSteps steps(int root, SyncPolicy sync, bool fill, bool i_fill);
    /// One bridge broadcast of @p len bytes at @p p from @p root_node: the
    /// vendor bcast, or in robust mode a reliable linear fan-out.
    bool leg(std::byte* p, std::size_t len, int root_node, std::uint64_t gen);
    /// Flat MPI_Bcast over world out of the private write slot.
    void run_flat(int root);

    const HierComm* hc_ = nullptr;
    NodeSharedBuffer buf_;
    HybridRound round_;
    SocketStaging staging_ = SocketStaging::Auto;
    std::size_t chunk_bytes_ = 0;  ///< explicit pipeline chunk override
    std::size_t bytes_ = 0;
    std::size_t bytes_padded_ = 0;  ///< slot stride (cache-line aligned)
    std::uint64_t epoch_ = 0;       ///< completed run() count (rank-local)
    std::vector<std::byte> flat_buf_;  ///< private double buffer
};

}  // namespace hympi
