#include "trace/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace hytrace::report {

namespace {

/// One complete ("X") event, reduced to what the breakdown needs.
struct Ev {
    double ts = 0.0;
    double dur = 0.0;
    double chunks = 0.0;  // pipeline chunk count (0 = unchunked span)
    int depth = 0;
    std::string phase;
    std::string coll;  // empty unless this is a collective root span
};

std::string fmt_us(double us) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", us);
    return buf;
}

std::string fmt_pct(double frac) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%5.1f%%", frac * 100.0);
    return buf;
}

std::string x_to_string(const json::Value& x) {
    if (x.is_string()) return x.str;
    if (x.is_number()) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.10g", x.number);
        return buf;
    }
    return "?";
}

}  // namespace

std::vector<CollBreakdown> collect_breakdowns(const json::Value& trace) {
    if (!trace.is_object()) {
        throw std::runtime_error("trace: top-level value is not an object");
    }
    const json::Value* events = trace.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
        throw std::runtime_error("trace: missing traceEvents array");
    }

    // Bucket events per (pid, tid) lane. chrome.cc writes each lane's spans
    // contiguously in begin order, so file order within a lane IS begin
    // order — no re-sorting, which keeps ties (same ts, parent first)
    // resolved the way the recorder emitted them.
    std::map<std::pair<long, long>, std::vector<Ev>> lanes;
    for (const json::Value& e : events->arr) {
        if (!e.is_object() || e.get_string("ph") != "X") continue;
        const json::Value* args = e.find("args");
        Ev ev;
        ev.ts = e.get_number("ts");
        ev.dur = e.get_number("dur");
        if (args != nullptr && args->is_object()) {
            ev.depth = static_cast<int>(args->get_number("depth"));
            ev.phase = args->get_string("phase", "?");
            ev.coll = args->get_string("coll");
            ev.chunks = args->get_number("chunks");
        }
        const auto key = std::make_pair(
            static_cast<long>(e.get_number("pid")),
            static_cast<long>(e.get_number("tid")));
        lanes[key].push_back(std::move(ev));
    }

    std::map<std::string, CollBreakdown> by_coll;
    constexpr double kEps = 1e-6;  // %.3f formatting noise
    for (const auto& [key, evs] : lanes) {
        (void)key;
        // child_us[i] = per-phase time of i's *direct* children;
        // child_chunks[i] = their per-phase pipeline chunk counts.
        std::vector<std::map<std::string, double>> child_us(evs.size());
        std::vector<std::map<std::string, double>> child_chunks(evs.size());
        // Index of the most recent span seen at each depth; since the lane
        // is in begin order, that span is the open ancestor candidate.
        std::vector<std::size_t> last_at_depth;
        for (std::size_t i = 0; i < evs.size(); ++i) {
            const Ev& ev = evs[i];
            const auto d = static_cast<std::size_t>(ev.depth);
            if (d > 0 && d <= last_at_depth.size()) {
                const std::size_t p = last_at_depth[d - 1];
                const Ev& parent = evs[p];
                if (ev.ts >= parent.ts - kEps &&
                    ev.ts + ev.dur <= parent.ts + parent.dur + kEps) {
                    child_us[p][ev.phase] += ev.dur;
                    if (ev.chunks > 0.0) {
                        child_chunks[p][ev.phase] += ev.chunks;
                    }
                }
            }
            if (d < last_at_depth.size()) {
                last_at_depth.resize(d);
            }
            last_at_depth.push_back(i);
        }
        for (std::size_t i = 0; i < evs.size(); ++i) {
            const Ev& ev = evs[i];
            if (ev.coll.empty()) continue;
            CollBreakdown& row = by_coll[ev.coll];
            row.coll = ev.coll;
            row.total_us += ev.dur;
            row.root_spans += 1;
            double covered = 0.0;
            for (const auto& [phase, us] : child_us[i]) {
                row.phase_us[phase] += us;
                covered += us;
            }
            for (const auto& [phase, n] : child_chunks[i]) {
                row.phase_chunks[phase] += n;
            }
            const double self = ev.dur - covered;
            if (self > kEps) row.phase_us["self"] += self;
        }
    }

    std::vector<CollBreakdown> rows;
    rows.reserve(by_coll.size());
    for (auto& [name, row] : by_coll) {
        (void)name;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const CollBreakdown& a, const CollBreakdown& b) {
                  return a.total_us > b.total_us;
              });
    return rows;
}

void print_breakdowns(std::ostream& os,
                      const std::vector<CollBreakdown>& rows) {
    if (rows.empty()) {
        os << "no collective root spans found (was HYMPI_TRACE set while "
              "the workload ran?)\n";
        return;
    }
    for (const CollBreakdown& row : rows) {
        os << "== " << row.coll << "  (" << row.root_spans
           << " spans, " << fmt_us(row.total_us) << " us total)\n";
        std::vector<std::pair<std::string, double>> phases(
            row.phase_us.begin(), row.phase_us.end());
        std::sort(phases.begin(), phases.end(),
                  [](const auto& a, const auto& b) {
                      return a.second > b.second;
                  });
        char line[160];
        std::snprintf(line, sizeof line, "   %-10s %14s %8s %8s\n", "phase",
                      "time_us", "share", "chunks");
        os << line;
        for (const auto& [phase, us] : phases) {
            const double share = row.total_us > 0.0 ? us / row.total_us : 0.0;
            const auto ci = row.phase_chunks.find(phase);
            char chunks[32];
            if (ci != row.phase_chunks.end() && ci->second > 0.0) {
                std::snprintf(chunks, sizeof chunks, "%.0f", ci->second);
            } else {
                std::snprintf(chunks, sizeof chunks, "-");
            }
            std::snprintf(line, sizeof line, "   %-10s %14s %8s %8s\n",
                          phase.c_str(), fmt_us(us).c_str(),
                          fmt_pct(share).c_str(), chunks);
            os << line;
        }
        os << '\n';
    }
}

void print_counters(std::ostream& os, const json::Value& trace) {
    const json::Value* other = trace.find("otherData");
    const json::Value* totals =
        other != nullptr ? other->find("totals") : nullptr;
    if (totals == nullptr || !totals->is_object()) return;
    os << "counters (all ranks, all runs):\n";
    for (const auto& [key, v] : totals->obj) {
        char line[128];
        if (v.is_number()) {
            std::snprintf(line, sizeof line, "   %-14s %18.3f\n", key.c_str(),
                          v.number);
            os << line;
        }
    }
}

bool print_service(std::ostream& os, const json::Value& doc) {
    const json::Value* svc = doc.find("service");
    if (svc == nullptr || !svc->is_object()) return false;
    char line[256];
    os << "collective service (" << svc->get_string("profile", "?")
       << " profile, qos=" << svc->get_string("qos", "?") << ", seed "
       << static_cast<long long>(svc->get_number("seed")) << ")\n";
    if (const json::Value* cl = svc->find("cluster"); cl != nullptr) {
        std::snprintf(line, sizeof line, "  cluster: %d nodes x %d ranks\n",
                      static_cast<int>(cl->get_number("nodes")),
                      static_cast<int>(cl->get_number("ppn")));
        os << line;
    }
    if (const json::Value* t = svc->find("total"); t != nullptr) {
        std::snprintf(line, sizeof line,
                      "  total: %d jobs, %d ops, makespan %.3f us\n",
                      static_cast<int>(t->get_number("jobs")),
                      static_cast<int>(t->get_number("ops")),
                      t->get_number("makespan_us"));
        os << line;
        std::snprintf(line, sizeof line,
                      "  throughput %.1f ops/s, completion p50 %.3f us, "
                      "p99 %.3f us\n",
                      t->get_number("ops_per_sec"), t->get_number("p50_us"),
                      t->get_number("p99_us"));
        os << line;
    }
    const json::Value* tenants = svc->find("tenants");
    if (tenants == nullptr || !tenants->is_array()) return true;
    std::snprintf(line, sizeof line, "  %6s %7s %5s %5s %12s %12s %12s %14s %8s\n",
                  "tenant", "weight", "jobs", "ops", "mean(us)", "p50(us)",
                  "p99(us)", "bridge_bytes", "msgs");
    os << line;
    for (const json::Value& t : tenants->arr) {
        std::snprintf(
            line, sizeof line,
            "  %6d %7.3g %5d %5d %12.3f %12.3f %12.3f %14llu %8llu\n",
            static_cast<int>(t.get_number("tenant")),
            t.get_number("weight"), static_cast<int>(t.get_number("jobs")),
            static_cast<int>(t.get_number("ops")), t.get_number("mean_us"),
            t.get_number("p50_us"), t.get_number("p99_us"),
            static_cast<unsigned long long>(t.get_number("bridge_bytes")),
            static_cast<unsigned long long>(t.get_number("bridge_msgs")));
        os << line;
    }
    return true;
}

DiffResult diff_bench_json(const json::Value& base, const json::Value& cand,
                           double rel_tol) {
    DiffResult out;
    const json::Value* bseries = base.find("series");
    const json::Value* cseries = cand.find("series");
    const json::Value* brows = base.find("rows");
    const json::Value* crows = cand.find("rows");
    if (bseries == nullptr || !bseries->is_array() || brows == nullptr ||
        !brows->is_array()) {
        out.mismatches.push_back("baseline: not a BENCH table (missing "
                                 "series/rows)");
        return out;
    }
    if (cseries == nullptr || !cseries->is_array() || crows == nullptr ||
        !crows->is_array()) {
        out.mismatches.push_back("candidate: not a BENCH table (missing "
                                 "series/rows)");
        return out;
    }
    if (bseries->arr.size() != cseries->arr.size()) {
        out.mismatches.push_back(
            "series count differs: baseline " +
            std::to_string(bseries->arr.size()) + " vs candidate " +
            std::to_string(cseries->arr.size()));
        return out;
    }
    for (std::size_t s = 0; s < bseries->arr.size(); ++s) {
        if (bseries->arr[s].str != cseries->arr[s].str) {
            out.mismatches.push_back("series " + std::to_string(s) +
                                     " differs: \"" + bseries->arr[s].str +
                                     "\" vs \"" + cseries->arr[s].str + '"');
        }
    }
    if (brows->arr.size() != crows->arr.size()) {
        out.mismatches.push_back("row count differs: baseline " +
                                 std::to_string(brows->arr.size()) +
                                 " vs candidate " +
                                 std::to_string(crows->arr.size()));
    }
    if (!out.mismatches.empty()) return out;

    const std::size_t nrows = brows->arr.size();
    for (std::size_t r = 0; r < nrows; ++r) {
        const json::Value& brow = brows->arr[r];
        const json::Value& crow = crows->arr[r];
        const json::Value* bx = brow.find("x");
        const json::Value* cx = crow.find("x");
        const std::string xs = bx != nullptr ? x_to_string(*bx) : "?";
        if (bx != nullptr && cx != nullptr &&
            x_to_string(*bx) != x_to_string(*cx)) {
            out.mismatches.push_back("row " + std::to_string(r) +
                                     ": x differs: " + x_to_string(*bx) +
                                     " vs " + x_to_string(*cx));
            continue;
        }
        const json::Value* bvals = brow.find("values");
        const json::Value* cvals = crow.find("values");
        if (bvals == nullptr || cvals == nullptr || !bvals->is_array() ||
            !cvals->is_array() ||
            bvals->arr.size() != cvals->arr.size() ||
            bvals->arr.size() != bseries->arr.size()) {
            out.mismatches.push_back("row " + std::to_string(r) + " (x=" +
                                     xs + "): values shape differs");
            continue;
        }
        for (std::size_t s = 0; s < bvals->arr.size(); ++s) {
            const json::Value& bv = bvals->arr[s];
            const json::Value& cv = cvals->arr[s];
            // Structural cases first: a null cell (no measurement) on one
            // side only, or a legitimate 0-valued baseline, must never feed
            // the relative comparison — dividing by 0 would yield inf/NaN
            // and a null read as number 0.0 would silently pass.
            if (bv.is_null() != cv.is_null()) {
                out.mismatches.push_back(
                    "row " + std::to_string(r) + " (x=" + xs + ") series \"" +
                    bseries->arr[s].str + "\": " +
                    (bv.is_null() ? "baseline has no value but candidate does"
                                  : "candidate has no value but baseline "
                                    "does"));
                continue;
            }
            if (bv.is_null()) continue;  // both absent: nothing to compare
            DiffEntry e;
            e.series = bseries->arr[s].str;
            e.x = xs;
            e.base = bv.number;
            e.cand = cv.number;
            if (e.base == 0.0) {
                // A zero-latency baseline cell cannot anchor a relative
                // tolerance; any nonzero candidate is a structural change.
                if (e.cand != 0.0) {
                    out.mismatches.push_back(
                        "row " + std::to_string(r) + " (x=" + xs +
                        ") series \"" + e.series +
                        "\": baseline is 0 but candidate is " +
                        std::to_string(e.cand) +
                        " (relative comparison undefined)");
                }
                continue;
            }
            e.rel = (e.cand - e.base) / e.base;
            // Values are latencies: only slower-than-baseline is a
            // regression. The absolute guard keeps --rel-tol 0 usable for
            // bit-identical runs without tripping on representation noise.
            e.regression = e.cand > e.base * (1.0 + rel_tol) &&
                           e.cand - e.base > 1e-9;
            if (e.regression) out.regressions += 1;
            out.entries.push_back(std::move(e));
        }
        // Optional per-series "chunks" arrays: compared only when BOTH
        // rows carry them, so baselines written before the pipeline
        // engine existed stay comparable. A differing count means the
        // engine retuned its chunk geometry; the latency cells above are
        // the verdict, so this is INFO, never a mismatch.
        const json::Value* bch = brow.find("chunks");
        const json::Value* cch = crow.find("chunks");
        if (bch != nullptr && cch != nullptr && bch->is_array() &&
            cch->is_array() && bch->arr.size() == cch->arr.size() &&
            bch->arr.size() == bseries->arr.size()) {
            for (std::size_t s = 0; s < bch->arr.size(); ++s) {
                const json::Value& bc = bch->arr[s];
                const json::Value& cc = cch->arr[s];
                if (!bc.is_number() || !cc.is_number()) continue;
                if (bc.number != cc.number) {
                    char buf[256];
                    std::snprintf(buf, sizeof buf,
                                  "%s @ x=%s: chunk count %.0f -> %.0f",
                                  bseries->arr[s].str.c_str(), xs.c_str(),
                                  bc.number, cc.number);
                    out.infos.emplace_back(buf);
                }
            }
        }
    }
    return out;
}

void print_diff(std::ostream& os, const DiffResult& diff, double rel_tol) {
    for (const std::string& m : diff.mismatches) {
        os << "MISMATCH: " << m << '\n';
    }
    double worst = 0.0;
    for (const DiffEntry& e : diff.entries) {
        if (e.regression) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "REGRESSION: %s @ x=%s: %.6g -> %.6g (%+.2f%%)\n",
                          e.series.c_str(), e.x.c_str(), e.base, e.cand,
                          e.rel * 100.0);
            os << line;
        }
        worst = std::max(worst, e.rel);
    }
    for (const std::string& i : diff.infos) {
        os << "INFO: " << i << '\n';
    }
    char tail[160];
    std::snprintf(tail, sizeof tail,
                  "%zu points compared, %d regression(s), %zu info(s), "
                  "worst delta %+.2f%% (rel-tol %.2f%%)\n",
                  diff.entries.size(), diff.regressions, diff.infos.size(),
                  worst * 100.0, rel_tol * 100.0);
    os << tail;
}

std::string render_timeline(const std::vector<RankTrace>& ranks,
                            int columns) {
    double horizon = 0.0;
    for (const RankTrace& r : ranks) {
        for (const Span& s : r.spans) horizon = std::max(horizon, s.t_end);
    }
    std::string out;
    if (horizon <= 0.0 || columns <= 0) return out;
    char line[112];
    std::snprintf(line, sizeof(line),
                  "timeline: %d columns spanning %.2f us (s=send r=recv "
                  "b=bridge c=copy #=compute |=sync)\n",
                  columns, horizon);
    out += line;
    const double scale = static_cast<double>(columns) / horizon;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        std::string row(static_cast<std::size_t>(columns), '.');
        for (const Span& s : ranks[r].spans) {
            static constexpr char kGlyph[] = {'p', '.', 'b', 'c',
                                              '|', '!', '#', 'e'};
            char g = kGlyph[static_cast<int>(s.phase)];
            if (s.phase == Phase::P2P) g = s.name[0] == 'r' ? 'r' : 's';
            if (g == '.') continue;
            const int lo = std::clamp(static_cast<int>(s.t_start * scale), 0,
                                      columns - 1);
            const int hi = std::clamp(static_cast<int>(s.t_end * scale), lo,
                                      columns - 1);
            for (int c = lo; c <= hi; ++c) row[static_cast<std::size_t>(c)] = g;
        }
        std::snprintf(line, sizeof(line), "%4zu ", r);
        out += line;
        out += row;
        out += '\n';
    }
    return out;
}

}  // namespace hytrace::report
