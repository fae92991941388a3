#pragma once

#include <functional>
#include <string>

#include "common.h"
#include "robust/stats.h"

/// The pass loop shared by the workloads that own their Runtime
/// (allgather_irregular, summa_lookahead). One pass is one Runtime::run of
/// an SPMD body: in-run set-up, then the measured schedule. Passes repeat
/// with the same seed, so every pass must reproduce the first one's virtual
/// times and CommStats bit for bit; the traced passes must as well.
namespace hybench {

/// What the SPMD body of a pass shares with the pass loop.
struct PassCtx {
    std::vector<Ledger> ledgers;  ///< one per world rank
    HostTrace* host = nullptr;
    int pass_span = -1;

    // Written by world rank 0 only.
    double t_ready = 0.0;
    double t_done = 0.0;
    Usage u_ready;
    Usage u_done;

    /// World rank 0 calls these right after set-up and right after the
    /// schedule (both behind a barrier, so they bracket every rank's work).
    void mark_ready();
    void mark_done();
    HostTrace* host_for(const minimpi::Comm& world) const {
        return world.rank() == 0 ? host : nullptr;
    }
};

using PassBody = std::function<void(minimpi::Comm& world, PassCtx& pc)>;

struct PassResult {
    bool threw = false;
    std::string error;
    PassOps ops;
    minimpi::CommStats total;
    hytrace::Counters counters;
    hympi::RobustStats robust;
    PhaseSplit split;  ///< traced passes only
    HostCost cost;
};

struct Series {
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    /// Host-span index range of the untraced passes (per-call host times
    /// come from untraced passes only).
    std::size_t host_first = 0;
    std::size_t host_last = 0;
    int nranks = 0;

    const PassResult* first() const {
        return untraced.empty() ? nullptr : &untraced.front();
    }
};

/// Run passes of @p body on @p cluster for opts.seconds (half untraced,
/// half traced under opts.trace), counting @p nops ops per pass in @p r and
/// checking outputs, determinism and robust counters.
Series run_passes(const Options& opts, Report& r,
                  const minimpi::ClusterSpec& cluster, std::size_t nops,
                  HostTrace& host, const PassBody& body);

/// Host costs of the untraced passes that completed.
std::vector<HostCost> untraced_costs(const Series& s);

/// Per-layer metrics every Runtime-owning workload reports from a Series:
/// CommStats per backend, the Hy phase split, trace counters, robust
/// counters, tracing overhead and the getrusage deltas.
void add_series_layer_metrics(Report& r, const Series& s);

}  // namespace hybench
