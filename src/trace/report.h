#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "trace/json.h"
#include "trace/span.h"

/// Offline analysis for trace_report: per-phase breakdowns of Chrome
/// trace-event files written by this repo, and tolerance-based diffs of
/// BENCH_*.json tables (bench_util::Table::write_json output).
namespace hytrace::report {

/// Aggregated per-phase virtual time for one collective, summed over every
/// rank and run in the trace.
struct CollBreakdown {
    std::string coll;                       ///< e.g. "Hy_Allgather"
    std::map<std::string, double> phase_us; ///< phase name -> total us
    /// phase name -> total pipeline chunk count (0 for unchunked phases;
    /// the "self" pseudo-phase never carries chunks).
    std::map<std::string, double> phase_chunks;
    double total_us = 0.0;                  ///< sum of root span durations
    int root_spans = 0;                     ///< number of root spans seen
};

/// Build per-collective breakdowns from a parsed Chrome trace.
///
/// A *root* span is one whose args carry a "coll" label. Its interval is
/// partitioned among its direct children (spans on the same pid/tid whose
/// depth is exactly root.depth + 1 and which lie inside the root interval)
/// by their "phase" label; whatever the children do not cover is charged to
/// the pseudo-phase "self". Direct children — not leaves — because leaf
/// recv spans include arrival waits, and charging those to "p2p" would hide
/// exactly the sync time the hybrid collectives are designed to expose.
///
/// Throws std::runtime_error when @p trace is not a trace-event object.
std::vector<CollBreakdown> collect_breakdowns(const json::Value& trace);

/// Print @p rows as a fixed-width per-phase table, one block per
/// collective, phases sorted by descending time share.
void print_breakdowns(std::ostream& os, const std::vector<CollBreakdown>& rows);

/// Print the "otherData" counter block of @p trace, when present.
void print_counters(std::ostream& os, const json::Value& trace);

/// Print the aggregate dashboard of a SERVICE_*.json file written by
/// service::ServiceResult::write_json — run totals (jobs, ops/sec, p50/p99
/// completion latency) followed by a per-tenant table with the bridge-byte
/// attribution. Returns false (printing nothing) when @p doc has no
/// "service" object.
bool print_service(std::ostream& os, const json::Value& doc);

/// Render per-rank span traces as an ASCII Gantt chart: one row per rank,
/// @p columns characters spanning [0, latest span end]. Leaf phases draw
/// their glyph (s=send r=recv b=bridge c=copy #=compute |=sync !=robust
/// e=engine); collective root spans only frame their children, idle is
/// '.'. Spans are drawn in begin order, so a child overwrites its parent.
std::string render_timeline(const std::vector<RankTrace>& ranks,
                            int columns = 72);

/// One data-point comparison from a BENCH table diff.
struct DiffEntry {
    std::string series;
    std::string x;
    double base = 0.0;
    double cand = 0.0;
    double rel = 0.0;      ///< (cand - base) / base; 0 when base == 0
    bool regression = false;
};

struct DiffResult {
    std::vector<DiffEntry> entries;      ///< every compared point
    std::vector<std::string> mismatches; ///< structural problems (fatal)
    /// Non-fatal observations: a chunk-count change whose latency stays
    /// within tolerance is a retuned pipeline, not a broken bench.
    std::vector<std::string> infos;
    int regressions = 0;

    bool ok() const { return regressions == 0 && mismatches.empty(); }
};

/// Compare two BENCH_*.json tables point by point. A point regresses when
/// cand > base * (1 + rel_tol) — values are latencies, lower is better.
/// Metadata keys ("meta", "title", "x_label") never affect the verdict, so
/// baselines recorded before the meta header existed stay comparable.
/// Missing/extra series or rows are structural mismatches and also fail.
/// Per-row "chunks" arrays are compared only when BOTH sides carry them
/// (old baselines stay comparable); a differing chunk count is reported
/// as INFO, never a mismatch — the latency cell is the verdict.
DiffResult diff_bench_json(const json::Value& base, const json::Value& cand,
                           double rel_tol);

/// Print a human-readable diff report; lists regressions first.
void print_diff(std::ostream& os, const DiffResult& diff, double rel_tol);

}  // namespace hytrace::report
