#pragma once

#include <span>

#include "minimpi/comm.h"

namespace minimpi {

/// Sentinel for MPI_IN_PLACE. Accepted as the send buffer of allgather,
/// allgatherv, allreduce and (at the root) gather/reduce: the contribution
/// is taken from its final position in the receive buffer.
inline const void* kInPlace = reinterpret_cast<const void*>(~std::uintptr_t{0});

/// The collectives below implement the "naive pure MPI" side of the paper:
/// what a production MPI library does. Algorithm selection follows the
/// communicator's vendor profile (ModelParams): flat algorithms (binomial,
/// recursive doubling, Bruck, ring, pairwise) plus SMP-aware hierarchical
/// dispatch when the communicator spans several nodes with multi-rank nodes
/// (leader gather -> bridge exchange -> leader broadcast; Fig. 3a).
///
/// All of them are collective over @p comm and must be called by every
/// member in the same order.

void barrier(const Comm& comm);

void bcast(const Comm& comm, void* buf, std::size_t count, Datatype dt,
           int root);

/// Gather equal-size blocks to @p root. @p recvbuf is only significant at
/// the root (size = count * comm.size() elements). Root may pass kInPlace
/// as @p sendbuf if its block already sits at recvbuf + rank*count.
void gather(const Comm& comm, const void* sendbuf, std::size_t count,
            void* recvbuf, Datatype dt, int root);

/// Scatter equal-size blocks from @p root; @p sendbuf significant at root.
void scatter(const Comm& comm, const void* sendbuf, std::size_t count,
             void* recvbuf, Datatype dt, int root);

void allgather(const Comm& comm, const void* sendbuf, std::size_t count,
               void* recvbuf, Datatype dt);

/// Irregular allgather. @p counts/@p displs are in elements, indexed by comm
/// rank; every rank must pass identical vectors (as in MPI).
void allgatherv(const Comm& comm, const void* sendbuf, std::size_t sendcount,
                void* recvbuf, std::span<const std::size_t> counts,
                std::span<const std::size_t> displs, Datatype dt);

/// Gather variable-size blocks to @p root (linear algorithm; used by the
/// hybrid library's bridge phase and by application codes).
void gatherv(const Comm& comm, const void* sendbuf, std::size_t sendcount,
             void* recvbuf, std::span<const std::size_t> counts,
             std::span<const std::size_t> displs, Datatype dt, int root);

/// Scatter variable-size blocks from @p root (linear algorithm; the
/// counterpart of gatherv).
void scatterv(const Comm& comm, const void* sendbuf,
              std::span<const std::size_t> counts,
              std::span<const std::size_t> displs, void* recvbuf,
              std::size_t recvcount, Datatype dt, int root);

void reduce(const Comm& comm, const void* sendbuf, void* recvbuf,
            std::size_t count, Datatype dt, Op op, int root);

void allreduce(const Comm& comm, const void* sendbuf, void* recvbuf,
               std::size_t count, Datatype dt, Op op);

/// Regular all-to-all personalized exchange; @p count elements per pair.
void alltoall(const Comm& comm, const void* sendbuf, std::size_t count,
              void* recvbuf, Datatype dt);

namespace detail {

/// Apply @p op elementwise: inout[i] = op(inout[i], in[i]). Charges one flop
/// per element to the rank's clock; computes only with real payloads.
void apply_op(RankCtx& ctx, Op op, Datatype dt, void* inout, const void* in,
              std::size_t count);

/// Flat (single-level) algorithm entry points, exposed for tests and for
/// ablation benchmarks that want to bypass the SMP-aware dispatch.
void barrier_dissemination(const Comm& comm);
/// Message-passing barrier: dissemination under a traced Sync span.
void barrier_auto(const Comm& comm);
/// Tuned single-node barrier (shared counters, no messages) — what vendor
/// MPI libraries actually run for on-node communicators.
void barrier_shm_tuned(const Comm& comm);
void bcast_binomial(const Comm& comm, void* buf, std::size_t bytes, int root);
/// @p segment_bytes == 0 applies the built-in heuristic (8 KiB segments,
/// at most 64 of them); a tuned table supplies an explicit segment size.
void bcast_pipelined_chain(const Comm& comm, void* buf, std::size_t bytes,
                           int root, std::size_t segment_bytes = 0);
/// Bcast with profile-driven algorithm selection (decision table, else the
/// bcast_long_threshold) — the single selection point used by the flat
/// path and by every hierarchical phase that broadcasts.
void bcast_auto(const Comm& comm, void* buf, std::size_t bytes, int root);
void allgather_recursive_doubling(const Comm& comm, const void* sendbuf,
                                  void* recvbuf, std::size_t block_bytes);
void allgather_bruck(const Comm& comm, const void* sendbuf, void* recvbuf,
                     std::size_t block_bytes);
void allgather_ring(const Comm& comm, const void* sendbuf, void* recvbuf,
                    std::size_t block_bytes);
void allgatherv_ring(const Comm& comm, const void* sendbuf,
                     std::size_t send_bytes, void* recvbuf,
                     std::span<const std::size_t> counts_bytes,
                     std::span<const std::size_t> displs_bytes);
void allgatherv_bruck(const Comm& comm, const void* sendbuf,
                      std::size_t send_bytes, void* recvbuf,
                      std::span<const std::size_t> counts_bytes,
                      std::span<const std::size_t> displs_bytes);
/// Profile-driven selection (Bruck below the allgather threshold, ring
/// above), with the vector-collective tuning penalty applied.
void allgatherv_auto(const Comm& comm, const void* sendbuf,
                     std::size_t send_bytes, void* recvbuf,
                     std::span<const std::size_t> counts_bytes,
                     std::span<const std::size_t> displs_bytes);
void gather_binomial(const Comm& comm, const void* sendbuf, void* recvbuf,
                     std::size_t block_bytes, int root);
void scatter_binomial(const Comm& comm, const void* sendbuf, void* recvbuf,
                      std::size_t block_bytes, int root);
void reduce_binomial(const Comm& comm, const void* sendbuf, void* recvbuf,
                     std::size_t count, Datatype dt, Op op, int root);
void allreduce_recursive_doubling(const Comm& comm, const void* sendbuf,
                                  void* recvbuf, std::size_t count,
                                  Datatype dt, Op op);
void allreduce_ring(const Comm& comm, const void* sendbuf, void* recvbuf,
                    std::size_t count, Datatype dt, Op op);

/// Per-rank cached view of a communicator's node hierarchy: the intra-node
/// (shared-memory) sub-communicator, the bridge communicator of per-node
/// leaders, and the node-major block layout. Built collectively on first
/// use; cached in the RankCtx.
struct HierHandles {
    Comm shm;     ///< my node's sub-communicator (ordered by comm rank)
    Comm bridge;  ///< leaders only; null for children
    bool is_leader = false;
    bool multi_node = false;       ///< comm spans more than one node
    bool single_rank_nodes = true; ///< every node hosts exactly one member
    int my_node_index = -1;        ///< index into node-major ordering
    std::vector<int> node_sizes;   ///< members per node, node-major order
    std::vector<int> node_offsets; ///< prefix sums of node_sizes (blocks)
    std::vector<int> node_leader;  ///< comm rank of each node's leader
    std::vector<int> node_index_of;///< per comm rank: its node-major index
    std::vector<int> perm;         ///< node-major position -> comm rank
    bool identity_perm = true;     ///< node-major order == comm-rank order
};

/// Get (building collectively if needed) the hierarchy of @p comm.
const HierHandles& hier(const Comm& comm);

/// Cheap, communication-free check for whether the SMP-aware hierarchical
/// path applies (multi-node communicator with at least one multi-rank
/// node). Safe to call without triggering the collective hierarchy build.
bool smp_hier_applicable(const Comm& comm);

}  // namespace detail

}  // namespace minimpi
