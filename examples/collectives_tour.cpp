// A tour of every hybrid collective the library offers beyond the paper's
// two worked examples: allreduce, gather, scatter, reduce and alltoall —
// each with ONE node-shared buffer instead of per-process copies. Every
// rank checks the results it holds; any mismatch fails the program.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "hybrid/hympi.h"

using namespace minimpi;
using namespace hympi;

int main() {
    Runtime rt(ClusterSpec::irregular({3, 2, 3}), ModelParams::cray());
    std::atomic<bool> ok{true};
    rt.run([&ok](Comm& world) {
        const int r = world.rank();
        const int p = world.size();
        HierComm hc(world);

        // Hybrid allreduce: one shared result vector per node.
        AllreduceChannel ar(hc, 4, Datatype::Double);
        auto* in = reinterpret_cast<double*>(ar.my_input());
        for (int j = 0; j < 4; ++j) in[j] = r + 0.1 * j;
        ar.run(Op::Sum);
        const auto* sum = reinterpret_cast<const double*>(ar.result());

        // Hybrid gather to rank p-1 (result exists once, on its node).
        GatherChannel g(hc, sizeof(int), p - 1);
        *reinterpret_cast<int*>(g.my_block()) = r * r;
        g.run();

        // Hybrid scatter from rank 0.
        ScatterChannel s(hc, sizeof(int), 0);
        if (r == 0) {
            for (int i = 0; i < p; ++i) {
                *reinterpret_cast<int*>(s.outgoing(i)) = 100 + i;
            }
        }
        s.run();

        // Hybrid reduce to rank 1.
        ReduceChannel red(hc, 1, Datatype::Int64, 1);
        *reinterpret_cast<std::int64_t*>(red.my_input()) = 1 << r;
        red.run(Op::BitOr);

        // Hybrid alltoall: node-shared send/recv matrices.
        AlltoallChannel a2a(hc, sizeof(int));
        for (int d = 0; d < p; ++d) {
            *reinterpret_cast<int*>(a2a.send_block(d)) = r * 100 + d;
        }
        a2a.run();

        const double want_sum = p * (p - 1) / 2.0;
        const int got_scatter = *reinterpret_cast<const int*>(s.my_block());
        const int got_a2a =
            *reinterpret_cast<const int*>(a2a.recv_block(p - 1));
        if (sum[0] != want_sum || got_scatter != 100 + r ||
            got_a2a != (p - 1) * 100 + r) {
            ok = false;
        }
        if (r == 0 || r == p - 1) {
            std::printf("rank %d (node %d):\n", r, hc.my_node());
            std::printf("  allreduce sum[0]   = %.1f (want %.1f)\n", sum[0],
                        want_sum);
            std::printf("  scatter received   = %d (want %d)\n", got_scatter,
                        100 + r);
            std::printf("  alltoall from last = %d (want %d)\n", got_a2a,
                        (p - 1) * 100 + r);
        }
        if (r == p - 1) {
            int total = 0, want_total = 0;
            for (int i = 0; i < p; ++i) {
                total += *reinterpret_cast<const int*>(g.gathered(i));
                want_total += i * i;
            }
            std::printf("  gathered sum of squares = %d (want %d)\n", total,
                        want_total);
            if (total != want_total) ok = false;
        }
        if (r == 1) {
            const auto got = static_cast<unsigned long long>(
                *reinterpret_cast<const std::int64_t*>(red.result()));
            const unsigned long long want = (1ULL << p) - 1;
            std::printf("  rank 1 reduce BitOr = 0x%llx (want 0x%llx)\n", got,
                        want);
            if (got != want) ok = false;
        }
        barrier(world);
    });
    std::printf("collectives tour: %s\n", ok ? "all results match" : "MISMATCH");
    return ok ? 0 : 1;
}
