#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "minimpi/cluster.h"
#include "minimpi/comm.h"
#include "minimpi/context.h"
#include "minimpi/netmodel.h"
#include "minimpi/transport.h"
#include "minimpi/types.h"
#include "trace/span.h"

namespace minimpi {

/// Options controlling a run.
struct RunOptions {
    /// Record virtual-time spans and counters (see src/trace); retrieve
    /// with Runtime::last_span_traces after run(). Span recording is also
    /// switched on process-wide by HYMPI_TRACE=<path> (the Chrome export
    /// path), independent of this flag.
    bool spans = false;

    /// Additionally record per-message p2p spans (HYMPI_TRACE_P2P does the
    /// same process-wide). Off by default: they dominate trace volume and
    /// the per-phase breakdown does not need them.
    bool span_p2p = false;
};

/// The simulated MPI job: runs one fiber per rank of the ClusterSpec on one
/// worker thread per CPU of the process's affinity mask (at most one per
/// rank), hands each rank a world communicator, and collects per-rank
/// virtual clocks.
///
/// A Runtime can execute several `run` calls sequentially; each run starts
/// from fresh clocks, transport and communicator state.
class Runtime {
public:
    Runtime(ClusterSpec cluster, ModelParams model,
            PayloadMode payload = PayloadMode::Real, RunOptions opts = {});

    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /// Execute @p rank_main on every rank (as `rank_main(world)`) until
    /// every rank has finished, and return the final virtual clock of each.
    /// The first exception thrown by any rank (lowest world rank wins) is
    /// rethrown once all ranks have ended; JobAborted, which only unblocks
    /// the other ranks, loses to any other error. When every live rank is
    /// parked and none can run, the run fails with StallError.
    std::vector<VTime> run(const std::function<void(Comm&)>& rank_main);

    /// Per-rank communication counters of the most recent run().
    const std::vector<CommStats>& last_stats() const { return last_stats_; }

    /// Sum of last_stats() over ranks.
    CommStats total_stats() const;

    /// Per-rank resilience counters of the most recent run() (all zero
    /// unless robustness was enabled and faults were recovered).
    const std::vector<hympi::RobustStats>& last_robust_stats() const {
        return last_robust_stats_;
    }

    /// Sum of last_robust_stats() over ranks.
    hympi::RobustStats total_robust_stats() const;

    /// Per-rank span traces/counters of the most recent run() (empty
    /// unless span tracing was on — RunOptions::spans or HYMPI_TRACE).
    const std::vector<hytrace::RankTrace>& last_span_traces() const {
        return last_span_traces_;
    }

    /// Sum of last_span_traces() counters over ranks.
    hytrace::Counters total_span_counters() const;

    const ClusterSpec& cluster() const { return cluster_; }
    const ModelParams& model() const { return model_; }
    PayloadMode payload_mode() const { return payload_; }

    /// Fresh matching-context pair for a new communicator.
    std::uint64_t alloc_ctx() { return next_ctx_.fetch_add(1); }

    /// Create and register a communicator over the given world ranks
    /// (ordered: index = comm rank). @p parent links the derivation tree
    /// revocation cascades down (null for roots: the world comm and
    /// agree_shrink's recovery comm). A child whose parent is already
    /// revoked is born revoked.
    CommState* create_comm(std::vector<int> members_world,
                           CommState* parent = nullptr);

    Transport& transport() { return *transport_; }

    /// Deterministic fault/jitter plan applied to every subsequent run()
    /// (see FaultPlan). Pass {} to disable. Not thread-safe against a run
    /// in progress.
    void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }
    const FaultPlan& fault_plan() const { return fault_plan_; }

    /// Resilience configuration for subsequent run()s. Defaults to
    /// RobustConfig::from_env() (HYMPI_ROBUST & friends); tests pin an
    /// explicit config for environment independence. Not thread-safe
    /// against a run in progress.
    void set_robust_config(hympi::RobustConfig cfg) { robust_cfg_ = cfg; }
    const hympi::RobustConfig& robust_config() const { return robust_cfg_; }

    /// Next shared-window allocation index on @p node (keys the fault
    /// plan's deterministic SHM allocation failures). Called from the
    /// window-allocation rendezvous finalizer.
    std::uint64_t next_shm_alloc_idx(int node);

    /// Revoke both matching contexts of @p st in the transport (waking
    /// every parked rank) and cascade to every registered comm derived from
    /// @p st (backs Comm::revoke).
    void revoke_comm(CommState& st);

    /// Modelled cost of a one-off collective coordination over @p nranks
    /// ranks (communicator creation, window allocation).
    VTime one_off_sync_cost(int nranks) const;

private:
    ClusterSpec cluster_;
    ModelParams model_;
    PayloadMode payload_;
    RunOptions opts_;

    std::unique_ptr<Transport> transport_;
    FaultPlan fault_plan_;
    hympi::RobustConfig robust_cfg_ = hympi::RobustConfig::from_env();
    std::atomic<std::uint64_t> next_ctx_{kFirstUserCtx};

    std::mutex registry_mu_;
    std::vector<std::unique_ptr<CommState>> comms_;
    std::vector<CommStats> last_stats_;
    std::vector<hympi::RobustStats> last_robust_stats_;
    std::vector<hytrace::RankTrace> last_span_traces_;
    std::vector<std::uint64_t> shm_alloc_seq_;  ///< per-node, guarded by registry_mu_
};

}  // namespace minimpi
