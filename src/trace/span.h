#pragma once

#include <cstdint>
#include <vector>

/// Virtual-time tracing primitives (see DESIGN.md "Observability").
///
/// The span subsystem answers the paper's central question — WHERE does a
/// collective's time go (bridge exchange vs. on-node copy vs. barrier/flag
/// synchronization, Figs. 7-12) — instead of only reporting end-to-end
/// latencies. Every timestamp is virtual time, so a trace is a pure
/// function of (cluster, model, fault plan, program): identical runs
/// produce bit-identical traces, and CI can diff them at 0% tolerance.
///
/// This library sits BELOW minimpi in the dependency graph (like tuning):
/// minimpi, hybrid and robust all record into it, so it must not include
/// any of their headers.
namespace hytrace {

/// Virtual time in microseconds (mirrors minimpi::VTime, which this
/// library cannot include).
using VTime = double;

/// Broad cost category of a span. The per-phase breakdown in trace_report
/// partitions each collective's interval among its direct children by
/// phase — the decomposition the paper's figures argue from.
enum class Phase : std::uint8_t {
    P2P,      ///< point-to-point send/recv (recv includes the arrival wait)
    Coll,     ///< a collective operation (root span carrying coll/algo)
    Bridge,   ///< inter-node bridge exchange of a hybrid collective
    Copy,     ///< local / node-shared memory copy phase
    Sync,     ///< barrier or flag synchronization interval
    Robust,   ///< retransmit / backoff / degradation event
    Compute,  ///< application flops
    Engine,   ///< nonblocking-collective engine event (post/progress/complete)
};

/// Stable lowercase label of @p p (used in the Chrome JSON "cat"/"args").
const char* phase_name(Phase p);

/// One interval on a rank's virtual timeline. Name/coll/algo are static
/// string literals (never owned): recording a span is a vector push_back.
///
/// The communicator is identified by (comm_size, comm_rank) rather than
/// the runtime's internal context ids — context ids are allocated by a
/// wall-clock-ordered atomic, which would break trace determinism.
struct Span {
    const char* name = "";      ///< e.g. "bridge_exchange", "flag_wait"
    const char* coll = nullptr; ///< collective this span IS (roots only)
    const char* algo = nullptr; ///< algorithm chosen, when one was selected
    Phase phase = Phase::Coll;
    std::uint16_t depth = 0;    ///< nesting depth at begin (roots: 0)
    int peer = -1;              ///< world rank for p2p spans, -1 otherwise
    int comm_size = 0;
    int comm_rank = -1;
    std::uint64_t bytes = 0;    ///< payload volume attributed to the span
    std::uint64_t chunks = 0;   ///< pipeline chunks this span moved (0 = unchunked)
    VTime t_start = 0.0;
    VTime t_end = 0.0;
};

/// Per-rank counters, aggregated by Runtime::run at finalize. Each is
/// maintained exactly at the code site that performs the counted action,
/// so e.g. `retransmits` matches RobustStats::retries by construction.
struct Counters {
    std::uint64_t bridge_bytes = 0;  ///< bytes sent inside bridge-exchange spans
    std::uint64_t shm_bytes = 0;     ///< bytes moved through node-shared memory
    std::uint64_t xsocket_bytes = 0; ///< bytes crossing a NUMA socket boundary
    /// vtime spent in on-node sync waits: a flag wait counts from its
    /// start until the flag was published; a barrier counts as a wait
    /// from its start to its end.
    VTime sync_wait_us = 0.0;
    std::uint64_t retransmits = 0;   ///< robust DATA frames retransmitted
    std::uint64_t degradations = 0;  ///< ladder downgrades (Flags->Barrier, ->flat)
    std::uint64_t chunks = 0;        ///< pipeline chunks processed by this rank
    std::uint64_t failures_detected = 0;  ///< peer process deaths observed
    std::uint64_t shrinks = 0;       ///< agree+shrink recoveries completed
    std::uint64_t tenant_jobs = 0;   ///< service jobs completed on this rank

    Counters& operator+=(const Counters& o) {
        bridge_bytes += o.bridge_bytes;
        shm_bytes += o.shm_bytes;
        xsocket_bytes += o.xsocket_bytes;
        sync_wait_us += o.sync_wait_us;
        retransmits += o.retransmits;
        degradations += o.degradations;
        chunks += o.chunks;
        failures_detected += o.failures_detected;
        shrinks += o.shrinks;
        tenant_jobs += o.tenant_jobs;
        return *this;
    }

    bool operator==(const Counters&) const = default;
};

/// One rank's recorded trace of one Runtime::run.
struct RankTrace {
    int node = 0;
    std::vector<Span> spans;
    Counters counters;
};

/// One Runtime::run's traces, all ranks in world order.
struct RunTrace {
    std::vector<RankTrace> ranks;
};

}  // namespace hytrace
