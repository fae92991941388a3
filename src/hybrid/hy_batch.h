#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "hybrid/hier_comm.h"
#include "hybrid/shared_buffer.h"
#include "hybrid/sync.h"
#include "minimpi/icoll.h"

namespace hympi {

/// Whether CollBatcher fuses eligible small collectives into one bridge
/// exchange or passes everything through immediately:
///  * Auto   — consult the profile's tuned BatchWindow table (legacy 1 KiB
///    threshold when the profile has none);
///  * Always — fuse every batchable op regardless of size;
///  * Never  — immediate execution only (the batcher becomes a thin shim).
enum class BatchPolicy : std::uint8_t {
    Auto,
    Always,
    Never,
};

/// Fused-window capacity: enough for dozens of sub-KiB ops without
/// approaching the sizes where fusing stops paying.
inline constexpr std::size_t kBatchCapacity = 256 * 1024;

/// Small-collective aggregation shim (the startup-dominated regime of the
/// paper's Fig. 8, pushed one step further): concurrent small allgathers,
/// bcasts and allreduces posted on the same HierComm within one window are
/// coalesced into a single fused node-block exchange — the window's
/// per-node contributions travel as ONE aggregated Bruck message per
/// bridge round (detail::node_block_bruck, the LocBruck core) instead of
/// one inter-node exchange per op, and each op is demultiplexed out of the
/// node-shared window on release. A window closes when the next op would
/// overflow kBatchCapacity, on an explicit flush(), or when any of its
/// requests is first waited; every flush syncs with node flags.
///
/// Usage discipline (collective, SPMD): every rank of hc.world() must
/// construct the batcher collectively, post the SAME ops in the SAME
/// program order, and flush / wait in the same order — window membership
/// is decided rank-locally from that shared order (capacity, policy,
/// explicit flush, first wait), so identical posting sequences produce
/// identical windows on every rank. Posted buffers must stay valid and
/// unmodified until the op's request is waited (MPI nonblocking rule);
/// every returned request must be waited before the batcher is destroyed.
///
/// Under robust mode the batcher is inert: every op executes immediately
/// through the flat reliable collectives, so the recovery ladder never
/// sees a fused frame. kInPlace send buffers are not supported.
class CollBatcher {
public:
    /// Collective over hc.shm() (allocates the node-shared window unless
    /// robust mode forces the inert path).
    explicit CollBatcher(const HierComm& hc);

    /// Batching machinery live (not robust-inert, window allocated).
    bool active() const { return active_; }

    /// Queue one allgather of @p bytes per rank: recv[r*bytes) receives
    /// comm rank r's contribution, as minimpi::allgather over hc.world().
    minimpi::CollRequest post_allgather(const void* send, std::size_t bytes,
                                        void* recv);
    /// Queue one bcast of @p bytes from comm rank @p root.
    minimpi::CollRequest post_bcast(void* buf, std::size_t bytes, int root);
    /// Queue one allreduce of @p count elements of @p dt under @p op.
    minimpi::CollRequest post_allreduce(const void* send, void* recv,
                                        std::size_t count, minimpi::Datatype dt,
                                        minimpi::Op op);

    /// Close and execute the open window (no-op when empty). Collective:
    /// every rank must flush at the same point of the shared posting order.
    /// Waiting any of the window's requests flushes implicitly.
    void flush();

    void set_policy(BatchPolicy p) { policy_ = p; }

    struct Stats {
        std::uint64_t posted = 0;     ///< ops accepted by post_*
        std::uint64_t fused = 0;      ///< ops shipped through fused windows
        std::uint64_t immediate = 0;  ///< ops executed unfused
        std::uint64_t windows = 0;    ///< non-empty windows flushed
        std::uint64_t fused_bytes = 0;  ///< total fused window payload
    };
    const Stats& stats() const { return stats_; }

private:
    enum class Kind : std::uint8_t { Allgather, Bcast, Allreduce };

    struct PendingOp {
        Kind kind;
        const void* send = nullptr;  ///< allgather/allreduce input
        void* recv = nullptr;        ///< output (bcast: the buffer)
        std::size_t bytes = 0;       ///< per-rank contribution bytes
        std::size_t count = 0;       ///< allreduce element count
        minimpi::Datatype dt = minimpi::Datatype::Byte;
        minimpi::Op rop = minimpi::Op::Sum;
        int root = 0;  ///< bcast root (comm rank)
    };

    /// Per-rank contribution of @p op for comm rank @p r.
    static std::size_t contrib(const PendingOp& op, int r);
    /// Whole-window footprint of @p op (sum of contributions).
    std::size_t op_total(const PendingOp& op) const;
    /// Fuse decision for one op's per-payload size (policy -> tuned
    /// BatchWindow table -> legacy 1 KiB).
    bool should_batch(std::size_t bytes) const;
    /// Enqueue (flushing a full window first) or execute immediately.
    minimpi::CollRequest enqueue(PendingOp op);
    void run_immediate(const PendingOp& op);
    minimpi::CollRequest make_ticket();

    const HierComm* hc_;
    NodeSharedBuffer win_;
    std::optional<NodeSync> sync_;
    bool active_ = false;
    BatchPolicy policy_ = BatchPolicy::Auto;

    std::vector<PendingOp> pending_;
    std::size_t pending_bytes_ = 0;
    /// Generation of the OPEN window; a ticket flushes only while its
    /// captured id still names it (later waits of the same window no-op).
    std::uint64_t window_id_ = 0;
    Stats stats_;
};

}  // namespace hympi
