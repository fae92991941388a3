#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "minimpi/minimpi.h"

/// The multi-tenant "collective service" scenario driver (ROADMAP item 3):
/// many concurrent jobs — each a tenant's comm-churn cycle of create ->
/// seeded op stream -> destroy — share one simulated cluster and interfere
/// through the existing link-contention model. Arrivals follow a seeded
/// open-loop process in VIRTUAL time, so a slow (contended) cluster does
/// not slow the offered load down: queueing shows up as completion latency,
/// exactly like production traffic. Everything here is a pure function of
/// (ServiceConfig), so throughput/latency figures are byte-stable and CI
/// can diff them at a rounding tolerance.
namespace service {

/// What one job step executes on the job's communicator.
enum class OpKind : std::uint8_t { Allgather, Allreduce, Bcast, Barrier };

const char* op_name(OpKind k);

struct OpSpec {
    OpKind kind = OpKind::Barrier;
    std::size_t bytes = 0;  ///< per-rank payload (0 for barriers)
};

/// One tenant job: create a comm over @p members, run @p ops, destroy it.
struct JobSpec {
    int tenant = 0;
    int index = 0;  ///< position in the tenant's own stream
    std::uint64_t seed = 0;  ///< payload/digest stream, pure in (cfg, tenant, index)
    minimpi::VTime arrival = 0.0;  ///< open-loop arrival (virtual us)
    std::vector<int> members;      ///< world ranks, strictly increasing
    std::vector<OpSpec> ops;
    /// Run allgather steps through the hybrid (hympi) channel instead of
    /// the flat collective — only set for jobs spanning >= 2 nodes.
    bool hybrid = false;

    std::uint64_t total_bytes() const {
        std::uint64_t b = 0;
        for (const OpSpec& op : ops) b += op.bytes;
        return b;
    }
};

struct ServiceConfig {
    int nodes = 4;
    int ppn = 4;
    minimpi::ModelParams model = minimpi::ModelParams::cray();
    minimpi::PayloadMode payload = minimpi::PayloadMode::SizeOnly;

    std::uint64_t seed = 1;
    int tenants = 4;
    int jobs_per_tenant = 8;

    /// Mean inter-arrival gap of each tenant's stream. Gaps are uniform in
    /// [0.25, 1.75) * mean — dyadic-rational multiples, deliberately not an
    /// exponential draw: no libm in the schedule keeps checked-in baselines
    /// byte-stable across platforms.
    minimpi::VTime mean_gap_us = 400.0;

    int min_ops = 2;  ///< ops per job, drawn uniform in [min_ops, max_ops]
    int max_ops = 5;
    std::size_t small_bytes = 256;        ///< per-rank payload of a small job
    std::size_t large_bytes = 16 * 1024;  ///< per-rank payload of a large job
    double large_fraction = 0.25;  ///< probability a job is large
    double hybrid_fraction = 0.5;  ///< multi-node jobs using the hympi channel

    /// Route a hybrid job's small collectives through the CollBatcher
    /// aggregation shim (hy_batch.h): ops posted back to back fuse into one
    /// bridge exchange per window and demultiplex on release. Payload bytes
    /// (and therefore digests) are unchanged — only the virtual-time cost
    /// structure moves. Off by default, so existing schedules and
    /// checked-in baselines are untouched.
    bool batch_small = false;

    /// Bridge-link arbitration policy (the QoS knob). When @p use_env is
    /// set, HYMPI_QOS=fifo|weighted overrides it at run time.
    minimpi::QosPolicy qos = minimpi::QosPolicy::Fifo;
    bool use_env = true;

    /// Per-tenant arbitration weights (empty = all 1.0; shorter lists are
    /// padded with 1.0). Only consulted under WeightedShares.
    std::vector<double> weights;

    /// Restrict the schedule to one tenant's stream (its arrivals, members
    /// and ops are unchanged — per-tenant generation is independent). The
    /// isolation oracle compares this solo run against the concurrent one.
    int only_tenant = -1;

    double weight_of(int tenant) const;
    double total_weight() const;  ///< over all cfg.tenants, solo runs included
};

/// Resolve the QoS policy from HYMPI_QOS ("fifo" | "weighted"), falling
/// back to @p fallback when unset or unrecognized (a warning is printed for
/// the latter).
minimpi::QosPolicy qos_from_env(minimpi::QosPolicy fallback);
const char* qos_name(minimpi::QosPolicy q);

/// The full job schedule of @p cfg in execution order — sorted by (arrival,
/// tenant, index), which every rank processes identically (the global order
/// makes overlapping member sets deadlock-free). Pure in @p cfg.
std::vector<JobSpec> build_schedule(const ServiceConfig& cfg);

struct JobResult {
    int tenant = 0;
    int index = 0;
    minimpi::VTime arrival = 0.0;
    minimpi::VTime finish = 0.0;  ///< max over members' completion clocks
    double latency_us = 0.0;      ///< finish - arrival (queueing included)
    int ops = 0;
    /// Digest over every member's op result bytes: per member, one
    /// robust::WordFold streamed over its result buffers in op order (it
    /// folds no bytes in SizeOnly mode), the members then combined by mix64.
    /// Contention may move clocks but never payloads, so this is identical
    /// between a tenant's solo and concurrent runs.
    std::uint64_t digest = 0;
};

struct TenantMetrics {
    int tenant = 0;
    double weight = 1.0;
    int jobs = 0;
    std::uint64_t ops = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
    std::uint64_t bridge_bytes = 0;  ///< inter-node bytes attributed to the tenant
    std::uint64_t bridge_msgs = 0;
};

struct ServiceResult {
    minimpi::QosPolicy qos = minimpi::QosPolicy::Fifo;
    std::vector<JobResult> jobs;  ///< schedule order
    std::vector<TenantMetrics> tenants;
    int total_jobs = 0;
    std::uint64_t total_ops = 0;
    double makespan_us = 0.0;  ///< first arrival -> last finish
    double ops_per_sec = 0.0;  ///< total ops / makespan
    double p50_us = 0.0;       ///< over all job latencies
    double p99_us = 0.0;

    /// Machine-readable dump for `trace_report --service <file>`: the
    /// aggregate dashboard (per-tenant ops/sec, p50/p99, bridge bytes).
    bool write_json(const std::string& path, const ServiceConfig& cfg) const;
};

/// Run the scenario: one simulated cluster, every job of build_schedule(cfg)
/// executed at its arrival by its member ranks, metrics aggregated. Virtual
/// times and digests are pure functions of @p cfg (+ HYMPI_QOS when
/// cfg.use_env).
ServiceResult run_service(const ServiceConfig& cfg);

/// Cross-job isolation oracle: run the full concurrent schedule and each
/// tenant's solo schedule in Real payload mode and require byte-identical
/// per-job digests — contention may move clocks, never payloads. Returns an
/// empty string on success, else a description of the first mismatch.
std::string verify_isolation(ServiceConfig cfg);

}  // namespace service
