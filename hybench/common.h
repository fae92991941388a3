#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "minimpi/minimpi.h"

/// Shared plumbing of the repository benchmark: options, the metric report,
/// host clocks, the benchmark's own host-time span recorder, the per-rank
/// op ledger that times every measured call from outside, and the
/// virtual-time phase split read back from the runtime's span traces.
namespace hybench {

struct Options {
    std::string workload;
    std::uint64_t seed = 20190805;  ///< printed with every result
    double seconds = 10.0;          ///< length of the measured phase
    bool trace = false;             ///< per-layer (traced) run
    bool smoke = false;             ///< tiny schedules, for the self-test
    std::string spans_out;          ///< host-span dump path ("" = none)
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run hands back to main(): op accounting, failure
/// descriptions and the metrics in print order.
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  ///< every check that failed (capped)
    std::vector<Metric> metrics;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    /// Record a failed check; any error marks the run incorrect. Callers
    /// count the ops it covers in `failed` themselves.
    void error(const std::string& what);
};

/// Print a "# progress" line (flushed) after each pass, so a supervisor
/// that has to kill a hung run knows how many ops finished and how many the
/// unfinished pass held.
void progress(const Report& r, std::uint64_t next_ops);

// ---- host clocks -----------------------------------------------------------

/// Monotonic host time in seconds.
double host_now();

/// Process-wide resource usage snapshot (getrusage(RUSAGE_SELF)).
struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    long vol_csw = 0;
    long invol_csw = 0;
    long maxrss_kb = 0;

    static Usage now();
    double cpu_s() const { return user_s + sys_s; }
};

/// Host cost of one measured pass (the timed phase of one Runtime::run).
struct HostCost {
    double setup_s = 0.0;  ///< Runtime ctor .. end of in-run set-up
    double wall_s = 0.0;   ///< measured schedule only
    double cpu_s = 0.0;
    double sys_s = 0.0;
    double vol_csw = 0.0;
    double invol_csw = 0.0;

    void measure(const Usage& a, double wall_a, const Usage& b, double wall_b);
};

// ---- the benchmark's own host-time spans -----------------------------------

/// In-memory host-time span recorder (name, start, end, parent) for calls
/// into each layer. Single writer at a time: the main thread outside
/// Runtime::run, world rank 0's thread inside it (the join orders them).
class HostTrace {
public:
    int begin(const char* name, int parent = -1);
    void end(int idx);
    /// Durations (us) of the spans named @p name among indices
    /// [@p first, @p last).
    std::vector<double> durations_us(const char* name, std::size_t first = 0,
                                     std::size_t last = SIZE_MAX) const;
    std::size_t size() const { return spans_.size(); }
    bool write_json(const std::string& path) const;

private:
    struct Span {
        const char* name;
        double t0;
        double t1;
        int parent;
    };
    std::vector<Span> spans_;
};

// ---- per-rank op ledger ----------------------------------------------------

/// Which side of the paper's comparison a measured op belongs to.
enum Kind : int { kHy = 0, kOri = 1, kHyBlocking = 2, kKinds = 3 };

/// One rank's record of every measured op of a pass: virtual entry/exit
/// clock, the span-index range the op recorded (traced passes only), a
/// wrong-output flag, and CommStats deltas accumulated per Kind.
struct Ledger {
    std::vector<double> t0, t1;
    std::vector<std::uint32_t> span_b, span_e;
    std::vector<std::uint8_t> bad;
    std::vector<std::uint8_t> kind;
    minimpi::CommStats stats[kKinds];

    void reset(std::size_t nops);
};

/// RAII timer around one measured call on one rank. World rank 0 also
/// records a host span named @p host_name in @p host (pass null elsewhere).
class OpTimer {
public:
    OpTimer(minimpi::RankCtx& ctx, Ledger& ledger, std::size_t op, Kind kind,
            HostTrace* host, const char* host_name, int host_parent);
    ~OpTimer();
    OpTimer(const OpTimer&) = delete;
    OpTimer& operator=(const OpTimer&) = delete;

private:
    minimpi::RankCtx& ctx_;
    Ledger& ledger_;
    std::size_t op_;
    Kind kind_;
    minimpi::CommStats before_;
    HostTrace* host_;
    int host_idx_ = -1;
};

/// Per-op results of one pass, reduced over ranks.
struct PassOps {
    std::vector<double> vt;          ///< max over ranks of the op's clock advance
    std::vector<std::uint8_t> bad;   ///< any rank saw a wrong output
    std::vector<std::uint8_t> kind;  ///< Kind of each op
    minimpi::CommStats kind_stats[kKinds];

    /// Sum of vt over the ops of @p k.
    double sum(Kind k) const;
};

PassOps reduce_ledgers(const std::vector<Ledger>& ledgers);

// ---- virtual-time phase split from the runtime's span traces ---------------

/// Per-phase split of the Hy root spans recorded inside measured ops, plus
/// the flat-collective root time of Ori ops. Totals are summed over ranks;
/// divide by the rank count for the per-rank mean.
struct PhaseSplit {
    double hy_root = 0.0;
    double sync = 0.0;
    double bridge = 0.0;
    double copy = 0.0;
    double self = 0.0;  ///< hy_root - (sync + bridge + copy)
    double flat_root = 0.0;
    std::uint64_t engine_events = 0;
    std::uint64_t spans = 0;
    /// Bridge exchanges inside Hy_Allgather roots, by selected algorithm:
    /// Allgatherv, Bcast, Pipelined, BruckV, NeighborExchange, LocBruck,
    /// Chunked (the pipelined engine's exchange).
    std::uint64_t bridge_algo[7] = {};
};

extern const char* const kBridgeAlgoNames[7];

PhaseSplit split_phases(const std::vector<hytrace::RankTrace>& traces,
                        const std::vector<Ledger>& ledgers);

// ---- small numerics ----------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// SplitMix64: seeded, platform-independent input generation.
std::uint64_t mix64(std::uint64_t x);

/// Exact comparison of every CommStats field (determinism check).
bool same_stats(const minimpi::CommStats& a, const minimpi::CommStats& b);

/// Canonical metric lists, in BENCHMARK.json order, with their units. The
/// untraced run prints every kEndToEnd metric, the traced run every
/// kPerLayer metric; a metric a workload does not exercise prints 0.
struct MetricSpec {
    const char* name;
    const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// Reorder @p r's metrics to @p specs, fill absent ones with 0 and check
/// units; an unknown name or unit mismatch is a benchmark bug (throws).
void normalize(Report& r, const std::vector<MetricSpec>& specs);

/// The host-side end-to-end metrics shared by every workload: medians of
/// the per-pass wall, CPU and set-up time, plus peak RSS.
void add_host_end_to_end(Report& r, const std::vector<HostCost>& passes);

/// Pass-loop policy: at least @p min_passes, then until @p seconds of host
/// time have elapsed since @p start.
bool keep_going(int passes_done, int min_passes, double start, double seconds);

/// Time an empty Runtime::run at @p cluster's rank count (Runtime ctor +
/// thread spawn + join), median of @p reps, in ms.
double spawn_ms(const minimpi::ClusterSpec& cluster, int reps);

/// Host time of one linalg::gemm_raw on a @p tile x @p tile block, median
/// of @p reps calls, in us.
double gemm_host_us(std::size_t tile, int reps);

/// Per-layer host metrics every traced run prints: getrusage deltas
/// (medians over @p passes), rank-thread spawn cost and one GEMM tile.
void add_host_layer_metrics(Report& r, const std::vector<HostCost>& passes,
                            const minimpi::ClusterSpec& cluster,
                            std::size_t gemm_tile);

/// Fault plan of the Runtime-owning workloads: a seeded wire jitter of up
/// to 0.05 us per message and nothing else — the seed's only effect on
/// their virtual time.
minimpi::FaultPlan jitter_plan(std::uint64_t seed);

}  // namespace hybench
