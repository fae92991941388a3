#pragma once

/// Differential conformance harness for the hybrid MPI+MPI collectives.
///
/// The paper's central correctness claim is that the Hy_* collectives
/// produce exactly the data a flat MPI collective would, while sharing one
/// on-node copy behind barrier or flag synchronization. This subsystem
/// checks that claim systematically instead of on a few hand-picked
/// topologies: a seeded generator draws random cluster shapes (regular and
/// irregular populations, including the paper's 42x24+1x16 shape scaled
/// down), placements, sub-communicators, payload sizes (0 bytes and up),
/// datatypes and both SyncPolicy flavors; each case runs the hybrid channel
/// and the flat reference collective in the same virtual-time runtime and
/// requires byte-identical buffers plus monotone, repeat-identical virtual
/// clocks — optionally under deterministic message jitter and delayed
/// leader progress (minimpi::FaultPlan). Failing cases are shrunk to a
/// minimal reproducer (seed + topology + size) before being reported.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hybrid/hympi.h"
#include "minimpi/minimpi.h"

namespace conformance {

/// Collectives covered by the harness — every hybrid channel the library
/// offers, each diffed against its flat pure-MPI reference.
enum class CollOp : std::uint8_t {
    Allgather,
    Allgatherv,
    Bcast,
    Allreduce,
    Reduce,
    Gather,
    Scatter,
    Alltoall,
};
inline constexpr int kNumOps = 8;

const char* op_name(CollOp op);

/// How each collective round is issued. Blocking calls the channel's run()
/// and the flat reference directly; Nonblocking drives the round through
/// the split-phase start()/wait() pair and the flat i* collectives;
/// Persistent additionally reuses a cached request (the channel's engine
/// task, minimpi's *_init) across iterations and polls the zero-cost
/// test() before waiting. Only ops with a split-phase channel (allgather,
/// allgatherv, bcast, allreduce) sample the non-blocking modes. With no
/// compute between start and wait, every mode must land on byte-identical
/// buffers — and, on 1-socket cases, bit-identical virtual clocks.
enum class ExecMode : std::uint8_t { Blocking, Nonblocking, Persistent };

const char* exec_name(ExecMode m);

/// One fully-specified randomized case. Quantities that depend on the
/// active communicator's size (sub-communicator membership, per-rank
/// allgatherv counts, the root of rooted ops) are pure functions of `seed`
/// evaluated at run time, so a spec stays valid while the shrinker mutates
/// its topology.
struct CaseSpec {
    std::uint64_t seed = 1;

    std::vector<int> procs_per_node{1};
    minimpi::Placement placement = minimpi::Placement::Smp;
    /// NUMA domains per node (>= 2 adds the socket level to the hierarchy;
    /// ppn frequently does not divide evenly, so socket slices are uneven).
    int sockets = 1;
    /// On-node socket policy forced onto the channels that support it
    /// (Pipelined engages the chunked single-copy engine on multi-node
    /// rounds and degrades to Staged/Flat elsewhere).
    hympi::SocketStaging staging = hympi::SocketStaging::Auto;
    /// Forced pipeline chunk size in bytes (0 = the tuned/whole default).
    /// Small values force many per-chunk flag rounds — the interesting
    /// regime for the flag-sequencing and robust-interop claims.
    std::size_t chunk_bytes = 0;
    bool cray_profile = true;  ///< vendor profile: cray() vs openmpi()
    bool subcomm = false;      ///< run on a seeded proper sub-communicator

    CollOp op = CollOp::Allgather;
    ExecMode exec = ExecMode::Blocking;
    hympi::SyncPolicy sync = hympi::SyncPolicy::Barrier;
    hympi::BridgeAlgo bridge = hympi::BridgeAlgo::Allgatherv;  ///< allgather*
    int leaders = 1;
    int iterations = 1;

    /// Per-rank payload bytes (regular ops); scale cap for the derived
    /// allgatherv counts; element count x datatype size for reductions.
    std::size_t block_bytes = 0;
    minimpi::Datatype dt = minimpi::Datatype::Byte;  ///< reductions only
    minimpi::Op red_op = minimpi::Op::Sum;           ///< reductions only

    minimpi::FaultPlan faults;
    /// Run with the resilience layer enabled (a pinned, env-independent
    /// RobustConfig): injected drop/corruption/duplication is scoped to the
    /// robust frames and must be recovered transparently — the hybrid
    /// result still has to match the flat reference byte for byte.
    bool robust = false;

    /// Kill-injection dimension (the ULFM recovery sweep). When
    /// `kill_rank >= 0` that ACTIVE-comm rank is killed at `kill_frac` of
    /// the case's fault-free completion time (measured by a clean twin run
    /// at case-execution time, so the kill lands mid-collective regardless
    /// of topology or payload). `kill_node` escalates to killing every rank
    /// on the victim's node, exercising the node-lost recovery path. The
    /// oracle is survivor equivalence: survivors must detect the failure,
    /// agree, shrink, rebuild the hierarchy, and then pass the normal
    /// hybrid-vs-flat diff on the shrunken communicator.
    int kill_rank = -1;
    double kill_frac = 0.5;
    bool kill_node = false;

    int total_ranks() const;
    /// One-line reproducer, stable across runs.
    std::string describe() const;

    /// The derived quantities (exposed for tests and describe()).
    std::vector<int> derive_members() const;  ///< active world ranks
    std::vector<std::size_t> derive_v_bytes(int active_size) const;
    int derive_root(int active_size) const;
};

/// Outcome of one differential execution.
struct CaseResult {
    bool ok = true;
    std::string detail;                  ///< first mismatch; empty when ok
    std::vector<minimpi::VTime> clocks;  ///< final per-rank virtual clocks
    /// Per-rank resilience counters (all zero unless spec.robust): the
    /// determinism check requires them to be run-repeatable, and the fault
    /// sweep asserts recoveries actually happened.
    std::vector<hympi::RobustStats> robust_stats;
};

/// Draw the @p index-th case of the stream anchored at @p master_seed.
/// @p with_faults gates jitter/delay injection (never corruption).
/// @p with_kills additionally samples the kill-injection dimension (the
/// extra draws happen strictly AFTER every pre-existing draw, so a given
/// (master_seed, index) produces the same base case with kills on or off).
CaseSpec generate_case(std::uint64_t master_seed, int index,
                       bool with_faults = true, bool with_kills = false);

/// Execute hybrid and flat reference paths in one virtual-time runtime and
/// compare byte-for-byte; also checks per-rank clock monotonicity across
/// the case's checkpoints.
CaseResult run_case(const CaseSpec& spec);

/// run_case twice; additionally require bit-identical clock vectors.
CaseResult run_case_checked(const CaseSpec& spec);

/// Greedily minimize a failing spec — node count, ppn, payload size,
/// iterations, leaders, sub-communicator, faults — while it keeps failing.
/// Each candidate costs one run_case_checked; bounded by @p max_runs.
CaseSpec shrink(const CaseSpec& failing, int max_runs = 160);

struct HarnessReport {
    int cases = 0;
    int failures = 0;
    std::string first_failure;  ///< shrunk reproducer + mismatch detail
};

/// Generate and check @p ncases specs. Stops at the first failure, shrinks
/// it, and formats the minimized reproducer into the report. @p on_case,
/// when set, is called with each case's index and spec before it runs.
HarnessReport run_random_cases(
    std::uint64_t master_seed, int ncases, bool with_faults = true,
    bool with_kills = false,
    const std::function<void(int, const CaseSpec&)>& on_case = {});

}  // namespace conformance
