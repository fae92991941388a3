#pragma once

#include <functional>
#include <vector>

#include "hybrid/round.h"

namespace hympi {

using minimpi::Datatype;
using minimpi::Op;

/// Extensions beyond the paper's two worked examples (its conclusion calls
/// for "more experiences" in the hybrid MPI+MPI style). Each follows the
/// same template as Hy_Allgather: one-off node-shared buffers + hierarchy,
/// repeated cheap collective on the shared HybridRound skeleton with
/// explicit on-node synchronization and leader-only inter-node traffic.
/// These channels have no hybrid->flat rung: their reliable legs retry
/// within the budget and throw a typed RobustError on exhaustion (never a
/// silent hang).

/// Hybrid allreduce: on-node processes reduce their node's contributions
/// cooperatively (each rank owns a stripe of elements), the leader runs the
/// inter-node allreduce over the bridge, and the node shares ONE result
/// vector.
class AllreduceChannel {
public:
    /// Collective over hc.world(); @p count elements of @p dt.
    AllreduceChannel(const HierComm& hc, std::size_t count, Datatype dt);

    /// This rank's private input vector (count elements, node-shared slot).
    std::byte* my_input() const;
    /// The node-shared result vector (valid after run()).
    std::byte* result() const;

    void run(Op op, SyncPolicy sync = SyncPolicy::Barrier);

    /// Nonblocking split-phase round: the cooperative on-node reduction
    /// runs at post (it is the callers' own compute), the primary leaders'
    /// bridge allreduce is posted as an engine task, and the release sync +
    /// result read-back happen at the returned request's wait(). One round
    /// in flight per channel; robust mode completes synchronously at post.
    minimpi::CollRequest start(Op op, SyncPolicy sync = SyncPolicy::Barrier);

    /// On-node NUMA policy: how the striped node reduction and the result
    /// read-back treat the socket boundary (inert on 1-socket clusters).
    /// Default Auto consults the tuned SocketStaging decision table.
    /// SocketStaging::Pipelined runs the XBRC-style chunked reduction on
    /// multi-node rounds (single-node rounds degrade to Staged).
    void set_socket_staging(SocketStaging s) { staging_ = s; }
    SocketStaging socket_staging() const { return staging_; }

    /// Explicit pipeline chunk size (0 = the tuned/default size). Only
    /// meaningful for rounds the engine actually chunks.
    void set_chunk_bytes(std::size_t b) { chunk_bytes_ = b; }
    std::size_t chunk_bytes() const { return chunk_bytes_; }

    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return round_.stats(); }

private:
    /// The steps run() and start() share for a round reducing with @p op.
    RoundSteps steps(Op op);
    /// The XBRC-style chunked round: each rank reduces its stripe of chunk
    /// c directly into the node result slice and publishes it on its
    /// per-rank ready flag; the leader bridges chunk c as soon as its ppn
    /// ready flags land (overlapping the node reduction of chunk c+1) and
    /// re-publishes it on the node-level chunk flag for the leaf readers.
    bool run_pipelined(Op op, const PipelinePlan& plan);
    /// One bridge allreduce of the @p bytes at @p slice: the vendor
    /// allreduce, or in robust mode a reliable ring of the node partials
    /// folded in ascending node order. False on exhausted retries.
    bool leg(std::byte* slice, std::size_t bytes, Op op, std::uint64_t gen);

    const HierComm* hc_;
    NodeSharedBuffer buf_;
    HybridRound round_;
    SocketStaging staging_ = SocketStaging::Auto;
    std::size_t chunk_bytes_ = 0;  ///< explicit pipeline chunk override
    std::size_t count_;
    Datatype dt_;
    std::size_t vec_bytes_;
};

namespace detail {

/// The node-shared layout Hy_Gather and Hy_Scatter share: the root's node
/// holds every rank's block in slot order, every other node only its own
/// members' blocks, and the primary leaders move whole node blocks.
class RootedBlocks {
public:
    /// Where this rank writes (gather) or reads (scatter) its own block.
    std::byte* my_block() const;
    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return round_.stats(); }

protected:
    /// Vendor bridge call over per-node (counts, displs) and my count.
    using PlainLeg = std::function<void(const std::vector<std::size_t>&,
                                        const std::vector<std::size_t>&,
                                        std::size_t)>;

    RootedBlocks(const HierComm& hc, std::size_t block_bytes, int root,
                 const RoundNames& names);
    /// Block of @p comm_rank in the root node's full buffer.
    std::byte* slot_block(int comm_rank) const;
    /// One round whose primary leaders move the node blocks with @p plain
    /// (span algo @p algo), or in robust mode with a reliable linear fan-in
    /// (@p fan_in) or fan-out under op tag @p op.
    void run(SyncPolicy sync, const char* algo, bool fan_in, int op,
             const PlainLeg& plain);

    const HierComm* hc_;
    NodeSharedBuffer buf_;
    HybridRound round_;
    std::size_t bb_;
    int root_node_;
};

}  // namespace detail

/// Hybrid gather to a fixed root: children write their partitions into the
/// node-shared block; leaders forward node blocks to the root's leader; the
/// gathered vector exists ONCE, on the root's node.
class GatherChannel : public detail::RootedBlocks {
public:
    GatherChannel(const HierComm& hc, std::size_t block_bytes, int root);

    /// Gathered block of @p comm_rank — valid on the root's node after run().
    std::byte* gathered(int comm_rank) const;

    void run(SyncPolicy sync = SyncPolicy::Barrier);
};

/// Hybrid scatter from a fixed root: the root writes all blocks into its
/// node's shared buffer; leaders receive only their node's slice; children
/// read their block (my_block()) from the node-shared slice — no
/// per-process copies.
class ScatterChannel : public detail::RootedBlocks {
public:
    ScatterChannel(const HierComm& hc, std::size_t block_bytes, int root);

    /// Root only: where to write rank @p comm_rank's outgoing block.
    std::byte* outgoing(int comm_rank) const;

    void run(SyncPolicy sync = SyncPolicy::Barrier);
};

/// Hybrid reduce to a fixed root: on-node striped reduction into the node
/// result vector, bridge reduce to the root's leader; result lives once on
/// the root's node.
class ReduceChannel {
public:
    ReduceChannel(const HierComm& hc, std::size_t count, Datatype dt, int root);

    std::byte* my_input() const;
    /// Valid on the root's node after run().
    std::byte* result() const;

    void run(Op op, SyncPolicy sync = SyncPolicy::Barrier);

    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return round_.stats(); }

private:
    const HierComm* hc_;
    NodeSharedBuffer buf_;
    HybridRound round_;
    std::size_t count_;
    Datatype dt_;
    std::size_t vec_bytes_;
    int root_node_;
};

/// Hybrid all-to-all: each node keeps ONE send matrix and ONE receive
/// matrix (local members x all slots); leaders pack per-destination-node
/// slices, exchange pairwise over the bridge, and unpack — on-node traffic
/// is pure load/store.
class AlltoallChannel {
public:
    AlltoallChannel(const HierComm& hc, std::size_t block_bytes);

    /// Block this rank sends to @p dest_rank (write before run()).
    std::byte* send_block(int dest_rank) const;
    /// Block this rank received from @p src_rank (read after run()).
    std::byte* recv_block(int src_rank) const;

    void run(SyncPolicy sync = SyncPolicy::Barrier);

    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return round_.stats(); }

private:
    std::size_t row_bytes() const;

    const HierComm* hc_;
    NodeSharedBuffer buf_;
    HybridRound round_;
    std::size_t bb_;
};

}  // namespace hympi
