// Mechanism bench: not time, but COUNTS. The paper's argument is that the
// hybrid scheme removes on-node copies of replicated data; this table
// shows the per-allgather message and copy counts for both schemes, from
// the transport's own counters.

#include <cstdio>

#include "bench_common.h"

using namespace minimpi;

namespace {

CommStats measure(int nodes, int ppn, std::size_t elements, bool hybrid) {
    const std::size_t bytes = elements * sizeof(double);
    Runtime rt(ClusterSpec::regular(nodes, ppn), ModelParams::cray(),
               PayloadMode::SizeOnly);
    constexpr int kIters = 4;
    rt.run([&](Comm& world) {
        if (hybrid) {
            hympi::HierComm hc(world);
            hympi::AllgatherChannel ch(hc, bytes);
            barrier(world);  // settle one-offs
            for (int i = 0; i < kIters; ++i) ch.run();
        } else {
            barrier(world);
            for (int i = 0; i < kIters; ++i) {
                allgather(world, nullptr, elements, nullptr, Datatype::Double);
            }
        }
    });
    CommStats s = rt.total_stats();
    // Per-operation figures (one-offs included once, amortized over iters).
    s.msgs_sent /= kIters;
    s.bytes_sent /= kIters;
    s.intra_node_msgs /= kIters;
    s.inter_node_msgs /= kIters;
    s.memcpy_bytes /= kIters;
    return s;
}

}  // namespace

int main() {
    std::printf(
        "Mechanism: per-allgather message/copy counts, 8 nodes, 4096 "
        "doubles per rank\n");

    benchu::Table table("#ppn",
                        {"naive intra-msgs", "hy intra-msgs",
                         "naive inter-msgs", "hy inter-msgs",
                         "naive MB copied", "hy MB copied"});
    int rows = 0, hy_msg_rows = 0, hy_copy_rows = 0;
    int inter_fewer = 0, inter_equal = 0, inter_more = 0;
    for (int ppn = 3; ppn <= 24; ppn *= 2) {
        const CommStats n = measure(8, ppn, 4096, false);
        const CommStats h = measure(8, ppn, 4096, true);
        table.add_row(ppn,
                      {static_cast<double>(n.intra_node_msgs),
                       static_cast<double>(h.intra_node_msgs),
                       static_cast<double>(n.inter_node_msgs),
                       static_cast<double>(h.inter_node_msgs),
                       static_cast<double>(n.memcpy_bytes) / 1.0e6,
                       static_cast<double>(h.memcpy_bytes) / 1.0e6});
        ++rows;
        if (h.intra_node_msgs > 0) ++hy_msg_rows;
        if (h.memcpy_bytes > 0) ++hy_copy_rows;
        if (h.inter_node_msgs < n.inter_node_msgs) {
            ++inter_fewer;
        } else if (h.inter_node_msgs == n.inter_node_msgs) {
            ++inter_equal;
        } else {
            ++inter_more;
        }
    }
    table.print(
        "Message/copy counts per allgather (totals across all ranks)");

    // The note restates only what the rows above show.
    std::printf("\nNote: the hybrid scheme sends on-node messages on %d and "
                "copies on node on %d of %d rows.\n",
                hy_msg_rows, hy_copy_rows, rows);
    std::printf("Inter-node messages, hybrid against naive: fewer on %d, "
                "equal on %d, more on %d of %d rows.\n",
                inter_fewer, inter_equal, inter_more, rows);
    return 0;
}
