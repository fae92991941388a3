// Timeline visualization: run one Hy_Allgather and one naive allgather on
// a 2-node x 6-core cluster with span tracing on, and print the per-rank
// ASCII Gantt charts. The hybrid chart makes the paper's mechanism visible
// at a glance: children idle briefly at the sync bars while only the two
// leaders (rank rows 0 and 6) talk to the network; the naive chart is wall
// to wall with on-node sends and receives.

#include <cstdio>
#include <cstring>

#include "hybrid/hympi.h"
#include "trace/report.h"

using namespace minimpi;
using namespace hympi;

int main() {
    RunOptions opts;
    opts.spans = true;
    opts.span_p2p = true;
    const std::size_t elements = 2048;  // doubles per rank
    auto chart = [](const Runtime& rt) {
        return hytrace::report::render_timeline(rt.last_span_traces(), 76);
    };

    {
        Runtime rt(ClusterSpec::regular(2, 6), ModelParams::cray(),
                   PayloadMode::Real, opts);
        rt.run([&](Comm& world) {
            HierComm hc(world);
            AllgatherChannel ch(hc, elements * sizeof(double));
            std::memset(ch.my_block(), world.rank(),
                        elements * sizeof(double));
            ch.run();
        });
        std::printf("Hy_Allgather (%zu doubles/rank, 2 nodes x 6):\n%s\n",
                    elements, chart(rt).c_str());
    }
    {
        Runtime rt(ClusterSpec::regular(2, 6), ModelParams::cray(),
                   PayloadMode::Real, opts);
        rt.run([&](Comm& world) {
            std::vector<double> mine(elements, world.rank());
            std::vector<double> all(elements *
                                    static_cast<std::size_t>(world.size()));
            allgather(world, mine.data(), elements, all.data(),
                      Datatype::Double);
        });
        std::printf("naive Allgather (same workload):\n%s", chart(rt).c_str());
    }
    return 0;
}
