#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

/// Tuned collective-selection tables.
///
/// Production MPI libraries do not pick collective algorithms from a couple
/// of compile-time thresholds: they ship decision tables produced by an
/// offline tuner (Open MPI's `coll_tuned` dynamic rules, Intel MPI's
/// I_MPI_ADJUST tables). This module is the equivalent for the simulator:
/// an offline autotuner (autotuner.h) sweeps every candidate algorithm over
/// a (communicator size x message size x link shape) grid in virtual time,
/// per vendor profile, and bakes the winners into per-profile
/// DecisionTables that minimpi collectives and the hybrid bridge consult
/// at runtime.
///
/// This library is deliberately free of any minimpi dependency: minimpi
/// links against it (RankCtx carries a table pointer), and the autotuner —
/// which needs the full simulator — lives in a separate target on top.
namespace tuning {

/// Operations with tuned selection.
enum class Op : std::uint8_t {
    Allgather,       ///< keyed by total receive-buffer bytes
    Allgatherv,      ///< keyed by total receive-buffer bytes
    Bcast,           ///< keyed by message bytes
    Allreduce,       ///< keyed by message bytes
    BridgeExchange,  ///< hybrid bridge allgatherv; keyed by the largest
                     ///< node-block byte count on the bridge
    SocketStaging,   ///< hybrid on-node NUMA phase (flat vs socket-staged);
                     ///< Shm shape, keyed by the distributed byte count
    ChunkSize,       ///< hybrid pipeline engine: whether a large-message
                     ///< round runs whole-message staged or chunked
                     ///< (pipelined), and at which chunk size; Shm shape,
                     ///< keyed by the distributed byte count
    LocBruck,        ///< hybrid bridge: whether the multi-leader exchange
                     ///< runs the per-leader tuned algorithms or the
                     ///< locality-aware combined Bruck (one aggregated
                     ///< node block per inter-node message); keyed by
                     ///< (node count, largest node-block byte count) —
                     ///< rank-uniform, so every leader resolves alike
    BatchWindow,     ///< small-collective aggregation shim: whether ops of
                     ///< a given size are coalesced into the fused bridge
                     ///< exchange or executed immediately; keyed by
                     ///< (node count, per-op payload bytes)
};
inline constexpr int kNumOps = 9;

/// Link class of the communicator the operation runs on. Collective call
/// sites in minimpi are link-pure: the SMP-aware dispatch sends mixed
/// communicators down the hierarchical path, whose sub-operations run on
/// all-shared-memory (Shm) or all-network (Net) communicators.
enum class Shape : std::uint8_t { Net, Shm };
inline constexpr int kNumShapes = 2;

const char* op_name(Op op);
const char* shape_name(Shape shape);

/// Per-operation algorithm identifiers (the `algo` field of a Choice).
/// The value 0 is always the pre-table default family, so ties during
/// tuning resolve toward the status quo.
namespace algo {
// Op::Allgather
inline constexpr std::uint8_t kAgRecDoubling = 0;
inline constexpr std::uint8_t kAgBruck = 1;
inline constexpr std::uint8_t kAgRing = 2;
// Op::Allgatherv
inline constexpr std::uint8_t kAgvBruck = 0;
inline constexpr std::uint8_t kAgvRing = 1;
// Op::Bcast
inline constexpr std::uint8_t kBcBinomial = 0;
inline constexpr std::uint8_t kBcPipelined = 1;
// Op::Allreduce
inline constexpr std::uint8_t kArRecDoubling = 0;
inline constexpr std::uint8_t kArRing = 1;
// Op::BridgeExchange
inline constexpr std::uint8_t kBrVendorAllgatherv = 0;
inline constexpr std::uint8_t kBrPipelined = 1;
inline constexpr std::uint8_t kBrBruckV = 2;
inline constexpr std::uint8_t kBrNeighborExchange = 3;
// Op::SocketStaging
inline constexpr std::uint8_t kSsFlat = 0;
inline constexpr std::uint8_t kSsStaged = 1;
// Op::ChunkSize
inline constexpr std::uint8_t kCsWhole = 0;
inline constexpr std::uint8_t kCsPipelined = 1;
// Op::LocBruck
inline constexpr std::uint8_t kLbPerLeader = 0;
inline constexpr std::uint8_t kLbCombined = 1;
// Op::BatchWindow
inline constexpr std::uint8_t kBwOff = 0;
inline constexpr std::uint8_t kBwFused = 1;
}  // namespace algo

/// Number of algorithm ids defined for @p op.
int algo_count(Op op);
/// Stable serialization name of algorithm @p a of @p op ("" if invalid).
const char* algo_name(Op op, std::uint8_t a);

/// One tuned decision: which algorithm, and (for segmented/pipelined
/// algorithms) which segment size. segment_bytes == 0 means "the
/// algorithm's own built-in heuristic".
struct Choice {
    std::uint8_t algo = 0;
    std::uint32_t segment_bytes = 0;

    bool operator==(const Choice&) const = default;
};

/// A per-profile decision table over the swept grid. Lookup rounds each
/// axis to the geometrically nearest grid point (nearest in log space —
/// message sizes and communicator sizes grow multiplicatively, so 196 KiB
/// is closer to 512 KiB than to 64 KiB), ties and out-of-range queries
/// clamping to the nearer end. It is total over positive sizes, exact at
/// grid points, and deterministic.
class DecisionTable {
public:
    DecisionTable() = default;
    DecisionTable(std::string profile, std::uint64_t seed)
        : profile_(std::move(profile)), seed_(seed) {}

    const std::string& profile() const { return profile_; }
    std::uint64_t seed() const { return seed_; }

    void set(Op op, Shape shape, int comm_size, std::uint64_t bytes,
             Choice choice);

    /// Tuned choice for @p op on a @p comm_size communicator of link class
    /// @p shape moving @p bytes; nullopt when the table has no entries for
    /// (op, shape) at all (callers fall back to the legacy thresholds).
    std::optional<Choice> lookup(Op op, Shape shape, int comm_size,
                                 std::uint64_t bytes) const;

    bool empty() const;
    /// Number of grid entries stored for @p op (both shapes).
    std::size_t entries(Op op) const;

    /// Stable text form (grid entries in axis order). parse() inverts it.
    std::string serialize() const;
    /// Throws std::runtime_error with a line diagnostic on malformed input.
    static DecisionTable parse(std::string_view text);

private:
    std::string profile_;
    std::uint64_t seed_ = 0;
    /// [op][shape] -> comm size -> bytes -> choice. Ordered maps keep
    /// serialization and clamping deterministic.
    std::map<int, std::map<std::uint64_t, Choice>>
        grid_[kNumOps][kNumShapes];
};

/// Registry consulted once per Runtime::run, keyed by ModelParams::name.
///
/// Resolution order: tables registered at runtime (register_table) shadow
/// the baked-in tables generated by the `tune_tables` CLI and checked in
/// under src/tuning/tables/. Setting HYMPI_TUNING_DISABLE=1 makes find_table
/// return null for every profile (pure legacy-threshold behavior).
/// Returns nullptr when no table is known for @p profile — notably the
/// "test" profile, which keeps unit tests on the legacy selection.
const DecisionTable* find_table(std::string_view profile);

/// Install (or replace) a runtime override for table.profile().
void register_table(DecisionTable table);
/// Drop a runtime override; any baked table for the profile resurfaces.
void unregister_table(std::string_view profile);

}  // namespace tuning
