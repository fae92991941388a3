#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "minimpi/clock.h"
#include "minimpi/cluster.h"
#include "minimpi/netmodel.h"
#include "minimpi/types.h"
#include "robust/config.h"
#include "robust/stats.h"

namespace tuning {
class DecisionTable;
}

namespace hytrace {
class Recorder;
}

namespace minimpi {

class Runtime;
class Transport;

namespace detail {
class Fiber;
struct IcollGate;
struct IcollState;
}  // namespace detail

/// Per-rank communication counters, maintained by the transport and cost
/// layers. The paper's central argument is about message/copy COUNTS
/// (one shared copy per node instead of per process); these counters let
/// tests and benches check that mechanism directly rather than only its
/// modelled time.
struct CommStats {
    std::uint64_t msgs_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t intra_node_msgs = 0;  ///< sends whose peer shares the node
    std::uint64_t inter_node_msgs = 0;
    std::uint64_t msgs_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t memcpy_bytes = 0;  ///< local copies charged to the clock
    /// Bytes moved across a NUMA socket boundary (messages whose endpoints
    /// share a node but not a socket, plus copies charged with the
    /// cross-socket premium). Always 0 on 1-socket clusters.
    std::uint64_t xsocket_bytes = 0;
    double flops = 0.0;

    CommStats& operator+=(const CommStats& o) {
        msgs_sent += o.msgs_sent;
        bytes_sent += o.bytes_sent;
        intra_node_msgs += o.intra_node_msgs;
        inter_node_msgs += o.inter_node_msgs;
        msgs_received += o.msgs_received;
        bytes_received += o.bytes_received;
        memcpy_bytes += o.memcpy_bytes;
        xsocket_bytes += o.xsocket_bytes;
        flops += o.flops;
        return *this;
    }
};

/// Bridge-link arbitration policy for multi-tenant runs (see TenantState).
enum class QosPolicy : std::uint8_t {
    /// Strict arrival order on each outgoing link — the single-tenant
    /// behaviour, byte-identical to runs with no tenant state installed.
    Fifo,
    /// Weighted fair shares: a send that finds the link backlogged by a
    /// DIFFERENT tenant only waits for the fraction of the backlog that the
    /// owner retains once this tenant's weighted share of the link is
    /// granted (wait * (1 - weight/total_weight)). Backlog owned by the
    /// sending tenant itself is never discounted — a tenant cannot preempt
    /// its own queue. Monotone: a larger weight never increases the wait.
    WeightedShares,
};

/// Multi-tenant arbitration + attribution state, installed on a rank by the
/// collective-service driver (src/service) and null everywhere else — the
/// default keeps every single-tenant code path and baseline byte-identical.
/// Owned and written only by the rank's own fiber.
struct TenantState {
    QosPolicy policy = QosPolicy::Fifo;
    int tenant = -1;       ///< tenant whose job this rank is currently running
    double weight = 1.0;   ///< arbitration weight of the active tenant
    double total_weight = 1.0;  ///< sum of every tenant's weight
    /// Occupancy of this rank's single NIC injection port: under a tenant
    /// run, inter-node sends serialize through the port as a whole rather
    /// than per destination. The coarser granularity is what makes tenants
    /// contend — backlog left by one tenant's burst is still draining when
    /// the rank picks up the next tenant's job, so the arbiter has a real
    /// queue to arbitrate. (Per-destination maps drain between jobs because
    /// successive jobs rarely reuse a (sender, dst) pair quickly enough.)
    VTime nic_busy = 0.0;
    /// Tenant that owns the most recent backlog on the injection port
    /// (-2: nobody yet).
    int nic_owner = -2;
    /// Per-tenant attribution of this rank's inter-node (bridge) traffic,
    /// indexed by tenant id.
    std::vector<std::uint64_t> bridge_bytes;
    std::vector<std::uint64_t> bridge_msgs;
};

/// Per-rank execution context: identity plus the rank's virtual clock.
/// Exactly one fiber (the rank's own) touches the clock; the struct is
/// created by Runtime::run and outlives the rank main.
struct RankCtx {
    int world_rank = -1;
    Runtime* runtime = nullptr;

    VClock clock;

    const ClusterSpec* cluster = nullptr;
    const ModelParams* model = nullptr;
    PayloadMode payload_mode = PayloadMode::Real;

    /// Tuned collective-selection table for the vendor profile, resolved
    /// once per Runtime::run from ModelParams::name (null when the profile
    /// has none — e.g. "test" — which keeps the legacy threshold
    /// selection). Collectives consult it through detail::tuned_choice.
    const tuning::DecisionTable* tuned = nullptr;

    int node() const { return cluster->node_of(world_rank); }

    /// Link parameters for traffic between this rank and global rank @p peer.
    /// Three-way: same socket → shm, same node but different socket → the
    /// cross-socket (QPI/UPI) link, different node → net. On 1-socket
    /// clusters every on-node pair shares socket 0, so shm is always chosen
    /// and the pre-socket cost model is reproduced exactly.
    const LinkParams& link_to(int peer_global) const {
        if (!cluster->same_node(world_rank, peer_global)) return model->net;
        return cluster->same_socket(world_rank, peer_global)
                   ? model->shm
                   : model->shm_xsocket;
    }

    /// Charge a local copy of @p bytes to this rank's clock and, when
    /// payloads are real and both pointers non-null, actually perform it.
    void copy_bytes(void* dst, const void* src, std::size_t bytes);

    /// Like copy_bytes, but one side of the copy lives on a remote NUMA
    /// domain: charges the cross-socket per-byte premium on top of the
    /// normal memcpy cost and attributes the bytes to xsocket counters.
    void copy_bytes_xsocket(void* dst, const void* src, std::size_t bytes);

    /// Charge only the cross-socket premium for @p bytes read through the
    /// QPI/UPI hop (used when a rank on a remote socket consumes data homed
    /// on the leader's socket in place, without a modelled local copy).
    /// @p concurrency scales the per-byte cost: simultaneous readers on one
    /// socket share the inter-socket link, so each is slowed by the others.
    void charge_xsocket_read(std::size_t bytes, int concurrency = 1);

    /// Charge application compute (used by reductions and the apps layer).
    void charge_flops(double flops) {
        vck().charge_flops(*model, flops);
        stats.flops += flops;
    }
    void charge_memcpy(std::size_t bytes) {
        vck().charge_memcpy(*model, bytes);
        stats.memcpy_bytes += bytes;
    }

    CommStats stats;

    /// Virtual-time span/counter recorder (src/trace); null unless span
    /// tracing is on for this run (HYMPI_TRACE or RunOptions::spans).
    /// Recording sites go through minimpi/trace_span.h, never directly.
    hytrace::Recorder* spans = nullptr;

    /// Rank-private caches keyed by communicator state (hierarchy handles,
    /// hybrid channels). Only the owning rank's fiber touches this map.
    std::unordered_map<const void*, std::shared_ptr<void>> comm_caches;

    /// Per-destination link occupancy (store-and-forward bandwidth
    /// serialization): the time until which the outgoing link to each world
    /// rank is busy. Written only by this rank's fiber — back-to-back
    /// sends to the same destination queue behind each other's wire time
    /// instead of overlapping for free.
    std::unordered_map<int, VTime> link_busy_until;

    /// Multi-tenant arbitration/attribution hook consulted by inter-node
    /// sends; null (the default) outside the collective-service driver.
    TenantState* tenant = nullptr;

    /// Per-destination message indices stamped onto outgoing messages
    /// (InMsg::fault_seq). Program order on the owning fiber, so the
    /// FaultPlan's perturbations replay deterministically.
    std::unordered_map<int, std::uint64_t> fault_seq;

    /// Resilience configuration resolved once per Runtime::run (never null
    /// while a rank main executes). Checked only on recovery paths — when
    /// !robust_cfg->enabled the fault-free fast path is byte-identical to
    /// the legacy behaviour.
    const hympi::RobustConfig* robust_cfg = nullptr;

    /// Rank-wide aggregate of every robust channel's recovery counters,
    /// collected by Runtime::run into last_robust_stats().
    hympi::RobustStats robust_stats;

    // ---- nonblocking-collective progress engine (icoll.h) --------------

    /// The clock cost-model code charges against. Normally the rank's own
    /// clock; while the progress engine advances an outstanding collective,
    /// it points at that request's sub-clock so comm time accrues there and
    /// is merged back with max() at completion (the ARQ sub-clock
    /// discipline). All modelling code must charge through vck(), never
    /// `clock` directly.
    VClock* cur_clock = &clock;
    VClock& vck() { return *cur_clock; }
    const VClock& vck() const { return *cur_clock; }

    /// Link-occupancy map sends consult. Points at link_busy_until except
    /// while an engine task runs, when it points at the request's private
    /// snapshot (merged back per destination with max() at completion) so
    /// the wall-clock order in which outstanding collectives are driven
    /// cannot leak into virtual time.
    std::unordered_map<int, VTime>* cur_busy = &link_busy_until;

    /// When non-zero, collective-context traffic (send/recv with
    /// coll_ctx == true) is stamped with this matching context instead of
    /// the communicator's ctx_coll. Each outstanding nonblocking collective
    /// owns a private context derived from its posting order, so its
    /// in-flight messages can never FIFO-cross-match a later (blocking or
    /// nonblocking) collective on the same communicator.
    std::uint64_t coll_ctx_override = 0;

    /// The rank's own fiber (set by Runtime::run). Every wait of the rank,
    /// and of its engine tasks, registers this fiber at its wait site: it
    /// is the rank's one wake token.
    detail::Fiber* fiber = nullptr;

    /// Gate of the engine task currently running on this rank's behalf;
    /// null while the rank's own program runs. Every wait on another rank
    /// (detail::block_until) switches back to the rank through it instead
    /// of parking.
    detail::IcollGate* gate = nullptr;

    /// Outstanding engine-backed requests of this rank, in posting order.
    /// wait() drives all of them (the MPI progress rule: a blocked wait
    /// must still progress every other pending operation).
    std::vector<detail::IcollState*> active_icolls;

    /// Per-communicator posting counters for nonblocking collectives,
    /// keyed by CommState address. MPI requires every member to post the
    /// same collectives in the same order, so the counter agrees across
    /// ranks and seeds the request's private matching context.
    std::unordered_map<const void*, std::uint64_t> icoll_seq;

    /// Scheduled process-failure time (FaultPlan::Kill), resolved once per
    /// Runtime::run; negative = immortal (the fault-free default). The rank
    /// dies at the first communication checkpoint at or after this virtual
    /// time — see detail::check_alive.
    VTime kill_at = -1.0;
};

namespace detail {

/// Thrown (by value) when a rank crosses its scheduled kill time. NOT an
/// MpiError — deliberately outside the std::exception hierarchy so no user
/// or library catch block between the checkpoint and the rank fiber's entry
/// can swallow a death. Runtime::run's rank fiber catches it, records the
/// death in the transport, and ends silently: a dead rank
/// is not an error, survivors observe it as ProcessFailedError.
struct RankKilled {
    int world_rank = -1;
    VTime at = 0.0;
};

/// Process-failure checkpoint: placed at the entry of every communication
/// primitive (send, recv post, collective rendezvous, flag signal/wait).
/// One double compare on fault-free runs; never touches virtual time.
inline void check_alive(RankCtx& ctx) {
    if (ctx.kill_at >= 0.0 && ctx.clock.now() >= ctx.kill_at) {
        // The rank's own (real) clock decides, not an engine sub-clock:
        // death is a property of the rank's program position.
        throw RankKilled{ctx.world_rank, ctx.clock.now()};
    }
}

/// QoS arbiter for one inter-node send (defined in p2p.cc): returns the
/// injection start time, updates the link-owner bookkeeping and attributes
/// the bytes to the active tenant. Pure in (ts, now, busy, bytes) — exposed
/// so the service tests can pin the weight-monotonicity property directly.
/// Under QosPolicy::Fifo the result is exactly max(now, busy).
VTime tenant_bridge_start(TenantState& ts, VTime now, std::size_t bytes);

/// Drive every outstanding nonblocking collective of @p ctx once, without
/// blocking (defined in icoll.cc). detail::block_until calls this before
/// the rank parks — the MPI progress rule: a rank blocked in any MPI call
/// must keep its outstanding nonblocking operations advancing, or two ranks
/// blocking on operations the other's engine still has in flight would
/// deadlock. No-op when nothing is outstanding or inside the engine.
void icoll_progress(RankCtx& ctx);

}  // namespace detail

}  // namespace minimpi
