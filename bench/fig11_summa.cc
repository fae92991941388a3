// Reproduces paper Figure 11 (a-d): SUMMA dense matrix multiplication with
// the naive pure-MPI broadcast (Ori_SUMMA) vs the hybrid broadcast
// (Hy_SUMMA), for per-core tile sizes 8x8, 64x64, 128x128 and 256x256, on
// 4..1024 cores (24-core nodes, SMP placement; 1024 = 42 nodes + 16).
//
// Expected shape: the ratio Ori/Hy is consistently above 1, largest for
// small tiles at low core counts (all processes on one node, communication-
// dominated) and shrinking as the tile grows (compute-dominated).
// Note (paper caption): the problem size grows with the core count, so the
// absolute time grows ~ sqrt(#cores).

#include <cstdio>

#include "apps/summa.h"
#include "bench_common.h"

using namespace minimpi;
using namespace apps;

namespace {

ClusterSpec cluster_for_cores(int cores, int ppn = 24) {
    std::vector<int> nodes(static_cast<std::size_t>(cores / ppn), ppn);
    if (cores % ppn != 0) nodes.push_back(cores % ppn);
    if (nodes.empty()) nodes.push_back(cores);
    return ClusterSpec::irregular(nodes);
}

double measure_summa(int cores, std::size_t block, Backend backend,
                     bool lookahead = false) {
    constexpr int kWarmup = 1;
    constexpr int kIters = 3;
    int grid = 1;
    while (grid * grid < cores) ++grid;

    Runtime rt(cluster_for_cores(cores), ModelParams::cray(),
               PayloadMode::SizeOnly);
    benchu::Collector col;
    rt.run([&](Comm& world) {
        SummaConfig cfg;
        cfg.grid = grid;
        cfg.block = block;
        cfg.backend = backend;
        cfg.lookahead = lookahead;
        Summa summa(world, cfg);
        for (int i = 0; i < kWarmup; ++i) summa.multiply();
        barrier(world);
        const VTime t0 = world.ctx().clock.now();
        for (int i = 0; i < kIters; ++i) summa.multiply();
        const VTime t1 = world.ctx().clock.now();
        col.add((t1 - t0) / kIters);
    });
    return col.max_us();
}

}  // namespace

int main() {
    std::printf("Figure 11: SUMMA, Ori vs Hy broadcast (Cray profile)\n");

    const int core_counts[] = {4, 16, 64, 256, 1024};
    const std::size_t blocks[] = {8, 64, 128, 256};

    for (std::size_t block : blocks) {
        benchu::Table table("#cores", {"Ori_SUMMA(us)", "Hy_SUMMA(us)",
                                       "Hy_SUMMA+la(us)", "Ratio"});
        for (int cores : core_counts) {
            const double ori = measure_summa(cores, block, Backend::PureMpi);
            const double hy = measure_summa(cores, block, Backend::Hybrid);
            // The split-phase lookahead multiply (nonblocking channel
            // broadcasts ride behind the GEMMs) — the paper's Fig. 11
            // contenders plus the conclusion's overlap remedy on top.
            const double la =
                measure_summa(cores, block, Backend::Hybrid, true);
            table.add_row(cores, {ori, hy, la, ori / hy});
        }
        benchcm::emit(table, "fig11", "tile" + std::to_string(block),
                      "Fig. 11 — SUMMA per-multiply time, tile " +
                          std::to_string(block) + "x" +
                          std::to_string(block),
                      "cray");
    }
    return 0;
}
