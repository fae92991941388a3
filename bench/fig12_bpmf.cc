// Reproduces paper Figure 12: BPMF (Bayesian probabilistic matrix
// factorization) total time for 20 Gibbs iterations, naive allgather
// (Ori_BPMF) vs hybrid allgather (Hy_BPMF), on 24..1024 cores of 24-core
// nodes (Cray profile), with a chembl_20-shaped synthetic input
// (15073 compounds x 346 targets, ~59k observations — DESIGN.md sect. 2).
//
// Expected shape: the ratio Ori/Hy stays above 1 and rises slowly with the
// core count (the paper reports up to ~10% total-time reduction).

#include <cstdio>

#include "apps/bpmf.h"
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

double measure_bpmf(const SparseDataset& data, int cores, Backend backend) {
    Runtime rt(cluster_for_cores(cores), ModelParams::cray(),
               PayloadMode::SizeOnly);
    benchu::Collector col;
    rt.run([&](Comm& world) {
        BpmfConfig cfg;
        cfg.num_latent = 32;
        cfg.iterations = 20;  // as in the paper's experiment
        cfg.backend = backend;
        Bpmf bpmf(world, data, cfg);
        barrier(world);
        const VTime t0 = world.ctx().clock.now();
        bpmf.run();
        const VTime t1 = world.ctx().clock.now();
        col.add(t1 - t0);
    });
    return col.max_us();
}

}  // namespace

int main() {
    std::printf("Figure 12: BPMF total time (20 iterations), Ori vs Hy\n");

    // chembl_20 shape: 15073 x 346, ~59k observations => density ~0.0113.
    const SparseDataset data =
        SparseDataset::structure_only(15073, 346, 0.0113, 20);

    const int core_counts[] = {24, 120, 240, 360, 480, 1024};
    benchu::Table table("#cores", {"Ori_BPMF-TT(us)", "Hy_BPMF-TT(us)",
                                   "Ori_BPMF-TT/Hy_BPMF-TT"});
    for (int cores : core_counts) {
        const double ori = measure_bpmf(data, cores, Backend::PureMpi);
        const double hy = measure_bpmf(data, cores, Backend::Hybrid);
        table.add_row(cores, {ori, hy, ori / hy});
    }
    benchcm::emit(table, "fig12", "cray",
                  "Fig. 12 — BPMF TotalTime of 20 iterations (us, virtual)",
                  "cray");
    return 0;
}
