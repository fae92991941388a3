// SUMMA demo (paper Sect. 5.2.1): distributed dense matrix multiplication
// on a 2-node x 8-core simulated cluster (4x4 process grid), run twice —
// with the naive pure-MPI broadcast (Ori_SUMMA) and with the hybrid
// MPI+MPI broadcast (Hy_SUMMA). Verifies both against a serial product
// (either one off by 1e-9 or more fails the program) and reports the
// modelled execution times and their ratio.

#include <cmath>
#include <cstdio>

#include "apps/summa.h"
#include "bench_util/latency.h"

using namespace minimpi;
using namespace apps;

namespace {

double elem_a(std::size_t i, std::size_t j) {
    return std::sin(0.01 * static_cast<double>(i)) +
           0.02 * static_cast<double>(j);
}
double elem_b(std::size_t i, std::size_t j) {
    return (i == j ? 1.5 : 0.0) + 0.001 * static_cast<double>(i + j);
}

}  // namespace

int main() {
    constexpr int kGrid = 4;
    constexpr std::size_t kBlock = 32;
    const std::size_t n = kGrid * kBlock;

    // Serial reference.
    linalg::Matrix a(n, n), b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = elem_a(i, j);
            b(i, j) = elem_b(i, j);
        }
    }
    const linalg::Matrix want = linalg::gemm(a, b);

    double time_us[2] = {0, 0};
    bool ok = true;
    for (Backend backend : {Backend::PureMpi, Backend::Hybrid}) {
        Runtime rt(ClusterSpec::regular(2, 8), ModelParams::cray());
        benchu::Collector col;
        rt.run([&](Comm& world) {
            SummaConfig cfg;
            cfg.grid = kGrid;
            cfg.block = kBlock;
            cfg.backend = backend;
            Summa summa(world, cfg);
            summa.init(elem_a, elem_b);
            barrier(world);
            const VTime t0 = world.ctx().clock.now();
            summa.multiply();
            const VTime t1 = world.ctx().clock.now();
            col.add(t1 - t0);

            linalg::Matrix got = summa.gather_c();
            if (world.rank() == 0) {
                const double err = got.distance(want);
                std::printf("%s: %zux%zu product, error vs serial = %.2e\n",
                            backend == Backend::PureMpi ? "Ori_SUMMA"
                                                        : "Hy_SUMMA",
                            n, n, err);
                if (!(err < 1e-9)) ok = false;
            }
            barrier(world);
        });
        time_us[backend == Backend::Hybrid] = col.max_us();
    }

    std::printf("modelled time: Ori = %.1f us, Hy = %.1f us, ratio = %.2f\n",
                time_us[0], time_us[1], time_us[0] / time_us[1]);
    return ok ? 0 : 1;
}
