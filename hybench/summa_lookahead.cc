// summa_lookahead — paper Fig. 11: SUMMA on an 8 x 8 process grid over
// 4 nodes x 16 ranks (2 sockets per node, SMP placement, Cray profile),
// tile 128 (128 KiB broadcasts), Real payloads. Each pass multiplies with
// Ori_SUMMA (flat bcast), Hy_SUMMA (blocking BcastChannel) and
// Hy_SUMMA+lookahead (split-phase channels on the icoll progress engine).
// Host time is dominated by linalg GEMM; virtual time by how much of the
// broadcast traffic the lookahead hides behind compute.

#include <memory>

#include "apps/summa.h"
#include "passes.h"
#include "workloads.h"

namespace hybench {

namespace {

using apps::Summa;
using apps::SummaConfig;
using minimpi::Comm;

constexpr int kGrid = 8;

enum class Variant { Ori, Hy, Lookahead };

struct Setup {
    std::size_t tile = 128;
    std::vector<Variant> ops;
    /// A(i,j) = x_i y_j and B(i,j) = u_i z_j with small integer entries, so
    /// C = AB is x_i z_j (y . u) exactly in floating point.
    std::vector<double> x, y, u, z;
    double dot_yu = 0.0;
};

Setup make_setup(const Options& opts) {
    Setup s;
    s.tile = opts.smoke ? 16 : 128;
    const int reps = opts.smoke ? 1 : 2;
    for (Variant v : {Variant::Ori, Variant::Hy, Variant::Lookahead}) {
        for (int i = 0; i < reps; ++i) s.ops.push_back(v);
    }
    const std::size_t n = static_cast<std::size_t>(kGrid) * s.tile;
    auto draw = [&](std::uint64_t which, std::vector<double>& v) {
        v.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            v[i] = static_cast<double>(mix64(opts.seed ^ mix64(which * n + i)) % 8 + 1);
        }
    };
    draw(1, s.x);
    draw(2, s.y);
    draw(3, s.u);
    draw(4, s.z);
    for (std::size_t i = 0; i < n; ++i) s.dot_yu += s.y[i] * s.u[i];
    return s;
}

const char* host_name(Variant v) {
    switch (v) {
        case Variant::Ori: return "Summa::multiply.ori";
        case Variant::Hy: return "Summa::multiply.hy";
        case Variant::Lookahead: return "Summa::multiply.lookahead";
    }
    return "?";
}

Kind kind_of(Variant v) {
    switch (v) {
        case Variant::Ori: return kOri;
        case Variant::Hy: return kHyBlocking;
        case Variant::Lookahead: return kHy;
    }
    return kOri;
}

bool check_c(const Summa& s, const Setup& st) {
    const linalg::Matrix& c = s.c_tile();
    const std::size_t r0 = static_cast<std::size_t>(s.row()) * st.tile;
    const std::size_t c0 = static_cast<std::size_t>(s.col()) * st.tile;
    for (std::size_t i = 0; i < st.tile; ++i) {
        for (std::size_t j = 0; j < st.tile; ++j) {
            if (c(i, j) != st.x[r0 + i] * st.z[c0 + j] * st.dot_yu) return false;
        }
    }
    return true;
}

void spmd(Comm& world, PassCtx& pc, const Setup& st) {
    minimpi::RankCtx& ctx = world.ctx();
    Ledger& led = pc.ledgers[static_cast<std::size_t>(world.rank())];
    HostTrace* host = pc.host_for(world);

    SummaConfig cfg;
    cfg.grid = kGrid;
    cfg.block = st.tile;
    cfg.backend = apps::Backend::PureMpi;
    Summa ori(world, cfg);
    cfg.backend = apps::Backend::Hybrid;
    const int setup_span = host ? host->begin("hybrid.setup", pc.pass_span) : -1;
    Summa hy(world, cfg);
    cfg.lookahead = true;
    Summa la(world, cfg);
    if (host) host->end(setup_span);
    auto fa = [&](std::size_t i, std::size_t j) { return st.x[i] * st.y[j]; };
    auto fb = [&](std::size_t i, std::size_t j) { return st.u[i] * st.z[j]; };
    for (Summa* s : {&ori, &hy, &la}) s->init(fa, fb);

    minimpi::barrier(world);
    if (world.rank() == 0) pc.mark_ready();

    for (std::size_t op = 0; op < st.ops.size(); ++op) {
        const Variant v = st.ops[op];
        Summa& s = v == Variant::Ori ? ori : v == Variant::Hy ? hy : la;
        s.reset_c();
        {
            OpTimer t(ctx, led, op, kind_of(v), host, host_name(v), pc.pass_span);
            s.multiply();
        }
        if (!check_c(s, st)) led.bad[op] = 1;
    }

    minimpi::barrier(world);
    if (world.rank() == 0) pc.mark_done();
}

}  // namespace

void run_summa_lookahead(const Options& opts, HostTrace& host, Report& r) {
    const minimpi::ClusterSpec cluster = minimpi::ClusterSpec::regular(
        4, 16, minimpi::Placement::Smp, 2);
    const Setup st = make_setup(opts);
    const Series s = run_passes(opts, r, cluster, st.ops.size(), host,
                                [&](Comm& world, PassCtx& pc) { spmd(world, pc, st); });
    const PassResult* f = s.first();
    if (f == nullptr || f->threw) return;
    const PassOps& ops = f->ops;
    const double la = ops.sum(kHy);
    const double ori = ops.sum(kOri);
    const double blocking = ops.sum(kHyBlocking);
    double all = 0.0;
    for (double v : ops.vt) all += v;
    if (!opts.trace) {
        r.add("vt_hy_us", la, "us");
        r.add("vt_ori_us", ori, "us");
        r.add("vt_job_p50_us", percentile(ops.vt, 50.0), "us");
        r.add("vt_job_p99_us", percentile(ops.vt, 99.0), "us");
        r.add("vt_ops_per_s", static_cast<double>(ops.vt.size()) / (all * 1e-6), "1/s");
        add_host_end_to_end(r, untraced_costs(s));
        return;
    }
    add_series_layer_metrics(r, s);
    add_host_layer_metrics(r, untraced_costs(s), cluster, st.tile);
    r.add("vt_job.samples", static_cast<double>(ops.vt.size()), "count");
    // SUMMA charges compute through RankCtx::charge_flops, which records no
    // span: the per-rank compute time of the lookahead multiplies is their
    // flop count over the profile's rate.
    const double compute = ops.kind_stats[kHy].flops /
                           static_cast<double>(s.nranks) /
                           minimpi::ModelParams::cray().flops_per_us;
    r.add("apps.compute_vus", compute, "us");
    r.add("apps.vt_hy_blocking_us", blocking, "us");
    r.add("apps.overlap_frac", (blocking - la) / (blocking - compute), "ratio");
    r.add("apps.ori_over_hy", ori / la, "ratio");
    auto host_ms = [&](const char* span, double p) {
        return percentile(host.durations_us(span, s.host_first, s.host_last), p) * 1e-3;
    };
    r.add("apps.multiply_host_ms.ori.p50", host_ms("Summa::multiply.ori", 50), "ms");
    r.add("apps.multiply_host_ms.ori.p99", host_ms("Summa::multiply.ori", 99), "ms");
    r.add("apps.multiply_host_ms.hy.p50", host_ms("Summa::multiply.lookahead", 50), "ms");
    r.add("apps.multiply_host_ms.hy.p99", host_ms("Summa::multiply.lookahead", 99), "ms");
    r.add("hybrid.setup_host_ms",
          median(host.durations_us("hybrid.setup", s.host_first, s.host_last)) * 1e-3,
          "ms");
}

}  // namespace hybench
