#pragma once

#include "common.h"

/// The three workloads. Each runs its fixed, seeded schedule for
/// opts.seconds (untraced; with opts.trace the second half of the time is
/// spent on span-traced passes), checks every output, and fills @p r with
/// the end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run). Host-time spans of the calls into each layer go to @p host.
namespace hybench {

void run_allgather_irregular(const Options& opts, HostTrace& host, Report& r);
void run_summa_lookahead(const Options& opts, HostTrace& host, Report& r);
void run_service_churn(const Options& opts, HostTrace& host, Report& r);

}  // namespace hybench
