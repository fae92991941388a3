#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "linalg/matrix.h"
#include "trace/recorder.h"

namespace hybench {

void Report::error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
}

void progress(const Report& r, std::uint64_t next_ops) {
    std::printf("# progress attempted=%llu failed=%llu next=%llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(next_ops));
    std::fflush(stdout);
}

double host_now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Usage Usage::now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.vol_csw = ru.ru_nvcsw;
    u.invol_csw = ru.ru_nivcsw;
    u.maxrss_kb = ru.ru_maxrss;
    return u;
}

void HostCost::measure(const Usage& a, double wall_a, const Usage& b,
                       double wall_b) {
    wall_s = wall_b - wall_a;
    cpu_s = b.cpu_s() - a.cpu_s();
    sys_s = b.sys_s - a.sys_s;
    vol_csw = static_cast<double>(b.vol_csw - a.vol_csw);
    invol_csw = static_cast<double>(b.invol_csw - a.invol_csw);
}

// ---- HostTrace ---------------------------------------------------------------

int HostTrace::begin(const char* name, int parent) {
    const double t = host_now();
    spans_.push_back({name, t, t, parent});
    return static_cast<int>(spans_.size()) - 1;
}

void HostTrace::end(int idx) {
    spans_[static_cast<std::size_t>(idx)].t1 = host_now();
}

std::vector<double> HostTrace::durations_us(const char* name,
                                            std::size_t first,
                                            std::size_t last) const {
    std::vector<double> out;
    for (std::size_t i = first; i < std::min(last, spans_.size()); ++i) {
        const Span& s = spans_[i];
        if (std::strcmp(s.name, name) == 0) out.push_back((s.t1 - s.t0) * 1e6);
    }
    return out;
}

bool HostTrace::write_json(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    const double base = spans_.empty() ? 0.0 : spans_.front().t0;
    os << "[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f, \"parent\": %d}%s\n",
                      i, s.name, (s.t0 - base) * 1e6, (s.t1 - base) * 1e6,
                      s.parent, i + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
    return os.good();
}

// ---- ledger ------------------------------------------------------------------

void Ledger::reset(std::size_t nops) {
    t0.assign(nops, 0.0);
    t1.assign(nops, 0.0);
    span_b.assign(nops, 0);
    span_e.assign(nops, 0);
    bad.assign(nops, 0);
    kind.assign(nops, 0);
    for (auto& s : stats) s = minimpi::CommStats{};
}

namespace {

std::uint32_t span_count(const minimpi::RankCtx& ctx) {
    return ctx.spans != nullptr
               ? static_cast<std::uint32_t>(ctx.spans->spans().size())
               : 0;
}

void add_delta(minimpi::CommStats& acc, const minimpi::CommStats& after,
               const minimpi::CommStats& before) {
    acc.msgs_sent += after.msgs_sent - before.msgs_sent;
    acc.bytes_sent += after.bytes_sent - before.bytes_sent;
    acc.intra_node_msgs += after.intra_node_msgs - before.intra_node_msgs;
    acc.inter_node_msgs += after.inter_node_msgs - before.inter_node_msgs;
    acc.msgs_received += after.msgs_received - before.msgs_received;
    acc.bytes_received += after.bytes_received - before.bytes_received;
    acc.memcpy_bytes += after.memcpy_bytes - before.memcpy_bytes;
    acc.xsocket_bytes += after.xsocket_bytes - before.xsocket_bytes;
    acc.flops += after.flops - before.flops;
}

}  // namespace

OpTimer::OpTimer(minimpi::RankCtx& ctx, Ledger& ledger, std::size_t op,
                 Kind kind, HostTrace* host, const char* host_name,
                 int host_parent)
    : ctx_(ctx), ledger_(ledger), op_(op), kind_(kind), before_(ctx.stats),
      host_(host) {
    ledger_.kind[op_] = static_cast<std::uint8_t>(kind_);
    ledger_.span_b[op_] = span_count(ctx_);
    if (host_ != nullptr) host_idx_ = host_->begin(host_name, host_parent);
    ledger_.t0[op_] = ctx_.clock.now();
}

OpTimer::~OpTimer() {
    ledger_.t1[op_] = ctx_.clock.now();
    if (host_ != nullptr) host_->end(host_idx_);
    ledger_.span_e[op_] = span_count(ctx_);
    add_delta(ledger_.stats[kind_], ctx_.stats, before_);
}

PassOps reduce_ledgers(const std::vector<Ledger>& ledgers) {
    PassOps p;
    if (ledgers.empty()) return p;
    const std::size_t nops = ledgers.front().t0.size();
    p.vt.assign(nops, 0.0);
    p.bad.assign(nops, 0);
    p.kind = ledgers.front().kind;
    for (const Ledger& l : ledgers) {
        for (std::size_t o = 0; o < nops; ++o) {
            p.vt[o] = std::max(p.vt[o], l.t1[o] - l.t0[o]);
            p.bad[o] = static_cast<std::uint8_t>(p.bad[o] | l.bad[o]);
        }
        for (int k = 0; k < kKinds; ++k) p.kind_stats[k] += l.stats[k];
    }
    return p;
}

double PassOps::sum(Kind k) const {
    double s = 0.0;
    for (std::size_t o = 0; o < vt.size(); ++o) {
        if (kind[o] == k) s += vt[o];
    }
    return s;
}

// ---- phase split -------------------------------------------------------------

const char* const kBridgeAlgoNames[7] = {
    "Allgatherv", "Bcast", "Pipelined", "BruckV",
    "NeighborExchange", "LocBruck", "Chunked"};

namespace {

int bridge_algo_index(const char* algo) {
    static const char* const labels[7] = {
        "vendor_allgatherv", "bcast",     "pipelined_ring",    "bruck_v",
        "neighbor_exchange", "loc_bruck", "chunked_allgatherv"};
    if (algo == nullptr) return -1;
    for (int i = 0; i < 7; ++i) {
        if (std::strcmp(algo, labels[i]) == 0) return i;
    }
    return -1;
}

bool starts_with(const char* s, const char* prefix) {
    return s != nullptr && std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

PhaseSplit split_phases(const std::vector<hytrace::RankTrace>& traces,
                        const std::vector<Ledger>& ledgers) {
    PhaseSplit out;
    for (std::size_t r = 0; r < traces.size() && r < ledgers.size(); ++r) {
        const std::vector<hytrace::Span>& spans = traces[r].spans;
        const Ledger& led = ledgers[r];
        out.spans += spans.size();
        for (const hytrace::Span& s : spans) {
            if (s.phase == hytrace::Phase::Engine) ++out.engine_events;
        }
        for (std::size_t o = 0; o < led.t0.size(); ++o) {
            const std::size_t b = led.span_b[o];
            const std::size_t e = std::min<std::size_t>(led.span_e[o], spans.size());
            for (std::size_t i = b; i < e; ++i) {
                const hytrace::Span& root = spans[i];
                if (root.depth != 0 || root.coll == nullptr) continue;
                const double dur = root.t_end - root.t_start;
                const bool hy_root = starts_with(root.coll, "Hy_");
                if (led.kind[o] == kOri && !hy_root) {
                    out.flat_root += dur;
                    continue;
                }
                if (led.kind[o] != kHy || !hy_root) continue;
                out.hy_root += dur;
                // Partition the root's interval: direct children in begin
                // order, clipped to the root and to what earlier children
                // already claimed (engine-driven children run on request
                // sub-clocks and may reach outside the root). Sync, Bridge
                // and Copy children keep their phase; the rest is self.
                double covered = 0.0;
                double cursor = root.t_start;
                const bool allgather = std::strcmp(root.coll, "Hy_Allgather") == 0;
                for (std::size_t j = i + 1; j < e && spans[j].depth > root.depth;
                     ++j) {
                    const hytrace::Span& c = spans[j];
                    if (allgather && c.phase == hytrace::Phase::Bridge &&
                        std::strcmp(c.name, "bridge_exchange") == 0) {
                        const int a = bridge_algo_index(c.algo);
                        if (a >= 0) ++out.bridge_algo[a];
                    }
                    if (c.depth != root.depth + 1) continue;
                    const double lo = std::max(c.t_start, cursor);
                    const double hi = std::min(c.t_end, root.t_end);
                    if (hi <= lo) continue;
                    double* phase = nullptr;
                    switch (c.phase) {
                        case hytrace::Phase::Sync: phase = &out.sync; break;
                        case hytrace::Phase::Bridge: phase = &out.bridge; break;
                        case hytrace::Phase::Copy: phase = &out.copy; break;
                        default: break;
                    }
                    if (phase == nullptr) continue;
                    *phase += hi - lo;
                    covered += hi - lo;
                    cursor = hi;
                }
                out.self += dur - covered;
            }
        }
    }
    return out;
}

// ---- numerics ------------------------------------------------------------------

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

bool same_stats(const minimpi::CommStats& a, const minimpi::CommStats& b) {
    return a.msgs_sent == b.msgs_sent && a.bytes_sent == b.bytes_sent &&
           a.intra_node_msgs == b.intra_node_msgs &&
           a.inter_node_msgs == b.inter_node_msgs &&
           a.msgs_received == b.msgs_received &&
           a.bytes_received == b.bytes_received &&
           a.memcpy_bytes == b.memcpy_bytes &&
           a.xsocket_bytes == b.xsocket_bytes && a.flops == b.flops;
}

// ---- metric tables ---------------------------------------------------------------

const std::vector<MetricSpec> kEndToEnd = {
    {"vt_hy_us", "us"},      {"vt_ori_us", "us"},
    {"vt_job_p50_us", "us"}, {"vt_job_p99_us", "us"},
    {"vt_ops_per_s", "1/s"}, {"host_wall_s", "s"},
    {"host_cpu_s", "s"},     {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},  {"ops_ok_frac", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"minimpi.spawn_ms", "ms"},
    {"minimpi.sys_s", "s"},
    {"minimpi.vol_csw", "count"},
    {"minimpi.invol_csw", "count"},
    {"minimpi.allgather_host_us.p50", "us"},
    {"minimpi.allgather_host_us.p99", "us"},
    {"minimpi.allgather_host_us.n", "count"},
    {"minimpi.inter_node_msgs.hy", "count"},
    {"minimpi.inter_node_msgs.ori", "count"},
    {"minimpi.intra_node_msgs.hy", "count"},
    {"minimpi.intra_node_msgs.ori", "count"},
    {"minimpi.bytes_sent.hy", "B"},
    {"minimpi.bytes_sent.ori", "B"},
    {"minimpi.memcpy_bytes.hy", "B"},
    {"minimpi.memcpy_bytes.ori", "B"},
    {"minimpi.flat_coll_vus", "us"},
    {"minimpi.engine_events", "count"},
    {"hybrid.run_host_us.barrier.p50", "us"},
    {"hybrid.run_host_us.barrier.p99", "us"},
    {"hybrid.run_host_us.flags.p50", "us"},
    {"hybrid.run_host_us.flags.p99", "us"},
    {"hybrid.setup_host_ms", "ms"},
    {"hybrid.root_vus", "us"},
    {"hybrid.sync_vus", "us"},
    {"hybrid.bridge_vus", "us"},
    {"hybrid.copy_vus", "us"},
    {"hybrid.self_vus", "us"},
    {"hybrid.sync_wait_vus", "us"},
    {"hybrid.bridge_bytes", "B"},
    {"hybrid.shm_bytes", "B"},
    {"hybrid.xsocket_bytes", "B"},
    {"hybrid.chunks", "count"},
    {"hybrid.ori_over_hy", "ratio"},
    {"tuning.bridge_algo.Allgatherv", "count"},
    {"tuning.bridge_algo.Bcast", "count"},
    {"tuning.bridge_algo.Pipelined", "count"},
    {"tuning.bridge_algo.BruckV", "count"},
    {"tuning.bridge_algo.NeighborExchange", "count"},
    {"tuning.bridge_algo.LocBruck", "count"},
    {"tuning.bridge_algo.Chunked", "count"},
    {"apps.multiply_host_ms.ori.p50", "ms"},
    {"apps.multiply_host_ms.ori.p99", "ms"},
    {"apps.multiply_host_ms.hy.p50", "ms"},
    {"apps.multiply_host_ms.hy.p99", "ms"},
    {"apps.compute_vus", "us"},
    {"apps.vt_hy_blocking_us", "us"},
    {"apps.overlap_frac", "ratio"},
    {"apps.ori_over_hy", "ratio"},
    {"linalg.gemm_host_us", "us"},
    {"service.schedule_host_ms", "ms"},
    {"service.jobs", "count"},
    {"service.ops", "count"},
    {"service.makespan_vus", "us"},
    {"service.fav_p99_vus", "us"},
    {"service.bridge_msgs", "count"},
    {"service.bridge_bytes", "B"},
    {"vt_job.samples", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
    {"robust.retransmits", "count"},
    {"robust.degradations", "count"},
};

void normalize(Report& r, const std::vector<MetricSpec>& specs) {
    std::map<std::string, const Metric*> have;
    for (const Metric& m : r.metrics) have[m.name] = &m;
    std::vector<Metric> out;
    out.reserve(specs.size());
    for (const MetricSpec& s : specs) {
        const auto it = have.find(s.name);
        if (it == have.end()) {
            out.push_back({s.name, 0.0, s.unit});
            continue;
        }
        if (it->second->unit != s.unit) {
            throw std::logic_error(std::string("metric ") + s.name +
                                   " reported in " + it->second->unit +
                                   ", declared in " + s.unit);
        }
        out.push_back(*it->second);
        have.erase(it);
    }
    if (!have.empty()) {
        throw std::logic_error("undeclared metric " + have.begin()->first);
    }
    r.metrics = std::move(out);
}

void add_host_end_to_end(Report& r, const std::vector<HostCost>& passes) {
    std::vector<double> wall, cpu, setup;
    for (const HostCost& p : passes) {
        wall.push_back(p.wall_s);
        cpu.push_back(p.cpu_s);
        setup.push_back(p.setup_s);
    }
    r.add("host_wall_s", median(wall), "s");
    r.add("host_cpu_s", median(cpu), "s");
    r.add("setup_s", median(setup), "s");
    r.add("peak_rss_mb", static_cast<double>(Usage::now().maxrss_kb) / 1024.0,
          "MiB");
}

bool keep_going(int passes_done, int min_passes, double start,
                double seconds) {
    return passes_done < min_passes || host_now() - start < seconds;
}

double spawn_ms(const minimpi::ClusterSpec& cluster, int reps) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const double t0 = host_now();
        {
            minimpi::Runtime rt(cluster, minimpi::ModelParams::cray());
            rt.run([](minimpi::Comm&) {});
        }
        t.push_back((host_now() - t0) * 1e3);
    }
    return median(t);
}

double gemm_host_us(std::size_t tile, int reps) {
    std::vector<double> a(tile * tile), b(tile * tile), c(tile * tile, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<double>(i % 7) + 1.0;
        b[i] = static_cast<double>(i % 5) + 1.0;
    }
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const double t0 = host_now();
        linalg::gemm_raw(a.data(), b.data(), c.data(), tile, tile, tile);
        t.push_back((host_now() - t0) * 1e6);
    }
    if (c[0] == 0.0) throw std::logic_error("gemm probe produced nothing");
    return median(t);
}

void add_host_layer_metrics(Report& r, const std::vector<HostCost>& passes,
                            const minimpi::ClusterSpec& cluster,
                            std::size_t gemm_tile) {
    std::vector<double> sys, vcsw, icsw;
    for (const HostCost& p : passes) {
        sys.push_back(p.sys_s);
        vcsw.push_back(p.vol_csw);
        icsw.push_back(p.invol_csw);
    }
    r.add("minimpi.sys_s", median(sys), "s");
    r.add("minimpi.vol_csw", median(vcsw), "count");
    r.add("minimpi.invol_csw", median(icsw), "count");
    r.add("minimpi.spawn_ms", spawn_ms(cluster, 5), "ms");
    r.add("linalg.gemm_host_us", gemm_host_us(gemm_tile, 15), "us");
}

minimpi::FaultPlan jitter_plan(std::uint64_t seed) {
    minimpi::FaultPlan p;
    p.seed = seed;
    p.max_jitter_us = 0.05;
    return p;
}

}  // namespace hybench
