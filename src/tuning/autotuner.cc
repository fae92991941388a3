#include "tuning/autotuner.h"

#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <vector>

#include "bench_util/latency.h"
#include "hybrid/hympi.h"
#include "minimpi/coll.h"
#include "minimpi/runtime.h"

namespace tuning {

namespace {

namespace mm = ::minimpi;

bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

mm::ClusterSpec cluster_for(Shape shape, int comm_size) {
    // Link-pure topologies: every flat-algorithm call site runs over either
    // all-network or all-shared-memory links (see coll_select.cc), so one
    // node per rank / one node total reproduces the runtime cost exactly.
    return shape == Shape::Net ? mm::ClusterSpec::regular(comm_size, 1)
                               : mm::ClusterSpec::regular(1, comm_size);
}

hympi::BridgeAlgo bridge_algo_of(std::uint8_t id) {
    switch (id) {
        case algo::kBrPipelined:
            return hympi::BridgeAlgo::Pipelined;
        case algo::kBrBruckV:
            return hympi::BridgeAlgo::BruckV;
        case algo::kBrNeighborExchange:
            return hympi::BridgeAlgo::NeighborExchange;
        default:
            return hympi::BridgeAlgo::Allgatherv;
    }
}

/// The repeated operation for one minimpi candidate at one grid point
/// (direct detail:: entry points — selection must not re-enter the tables
/// being built). SizeOnly mode: null buffers carry the modelled sizes.
std::function<void()> make_op(mm::Comm& comm, Op op, std::size_t bytes,
                              const Choice& choice) {
    const auto p = static_cast<std::size_t>(comm.size());
    switch (op) {
        case Op::Allgather: {
            const std::size_t block = bytes / p;
            switch (choice.algo) {
                case algo::kAgRing:
                    return [&comm, block] {
                        mm::detail::allgather_ring(comm, nullptr, nullptr,
                                                   block);
                    };
                case algo::kAgBruck:
                    return [&comm, block] {
                        mm::detail::allgather_bruck(comm, nullptr, nullptr,
                                                    block);
                    };
                default:
                    return [&comm, block] {
                        mm::detail::allgather_recursive_doubling(
                            comm, nullptr, nullptr, block);
                    };
            }
        }
        case Op::Allgatherv: {
            const std::size_t block = bytes / p;
            auto counts = std::make_shared<std::vector<std::size_t>>(p, block);
            auto displs = std::make_shared<std::vector<std::size_t>>(p);
            for (std::size_t i = 0; i < p; ++i) (*displs)[i] = i * block;
            if (choice.algo == algo::kAgvRing) {
                return [&comm, block, counts, displs] {
                    mm::detail::allgatherv_ring(comm, nullptr, block, nullptr,
                                                *counts, *displs);
                };
            }
            return [&comm, block, counts, displs] {
                mm::detail::allgatherv_bruck(comm, nullptr, block, nullptr,
                                             *counts, *displs);
            };
        }
        case Op::Bcast:
            if (choice.algo == algo::kBcPipelined) {
                const std::size_t seg = choice.segment_bytes;
                return [&comm, bytes, seg] {
                    mm::detail::bcast_pipelined_chain(comm, nullptr, bytes, 0,
                                                      seg);
                };
            }
            return [&comm, bytes] {
                mm::detail::bcast_binomial(comm, nullptr, bytes, 0);
            };
        case Op::Allreduce:
        default:
            // Byte elements: count == bytes.
            if (choice.algo == algo::kArRing) {
                return [&comm, bytes] {
                    mm::detail::allreduce_ring(comm, nullptr, nullptr, bytes,
                                               mm::Datatype::Byte,
                                               mm::Op::Max);
                };
            }
            return [&comm, bytes] {
                mm::detail::allreduce_recursive_doubling(
                    comm, nullptr, nullptr, bytes, mm::Datatype::Byte,
                    mm::Op::Max);
            };
    }
}

/// Argmin over candidates; strict improvement required to displace an
/// earlier (lower-id) candidate, so ties keep the pre-table default.
Choice best_choice(const mm::ModelParams& profile, Op op, Shape shape,
                   int comm_size, std::size_t bytes, const TuneConfig& cfg) {
    double best_t = std::numeric_limits<double>::infinity();
    Choice best{};
    for (const Choice& c : candidates(op, comm_size, cfg)) {
        const double t = measure(profile, op, shape, comm_size, bytes, c, cfg);
        if (t + 1e-9 < best_t) {
            best_t = t;
            best = c;
        }
    }
    return best;
}

}  // namespace

TuneConfig TuneConfig::quick() {
    TuneConfig cfg;
    cfg.net_sizes = {2, 4, 8, 16};
    cfg.shm_sizes = {2, 4, 8};
    cfg.bridge_sizes = {2, 4, 8};
    cfg.block_bytes = {128, 8192};
    cfg.message_bytes = {1024, 262144};
    cfg.bridge_block_bytes = {1024, 262144};
    cfg.segment_bytes = {8192, 65536};
    cfg.warmup = 1;
    cfg.iters = 1;
    return cfg;
}

std::vector<Choice> candidates(Op op, int comm_size, const TuneConfig& cfg) {
    std::vector<Choice> out;
    auto add = [&out](std::uint8_t a, std::uint32_t seg = 0) {
        out.push_back(Choice{a, seg});
    };
    switch (op) {
        case Op::Allgather:
            if (is_pow2(comm_size)) add(algo::kAgRecDoubling);
            add(algo::kAgBruck);
            add(algo::kAgRing);
            break;
        case Op::Allgatherv:
            add(algo::kAgvBruck);
            add(algo::kAgvRing);
            break;
        case Op::Bcast:
            add(algo::kBcBinomial);
            add(algo::kBcPipelined);  // segment 0 = built-in heuristic
            for (std::uint32_t s : cfg.segment_bytes) {
                add(algo::kBcPipelined, s);
            }
            break;
        case Op::Allreduce:
            add(algo::kArRecDoubling);
            add(algo::kArRing);
            break;
        case Op::BridgeExchange:
            add(algo::kBrVendorAllgatherv);
            add(algo::kBrPipelined);  // segment 0 = built-in heuristic
            for (std::uint32_t s : cfg.segment_bytes) {
                add(algo::kBrPipelined, s);
            }
            add(algo::kBrBruckV);
            // Requires an even bridge size (and contiguous slices, which one
            // leader per node guarantees).
            if (comm_size % 2 == 0) add(algo::kBrNeighborExchange);
            break;
        case Op::SocketStaging:
            add(algo::kSsFlat);
            add(algo::kSsStaged);
            break;
        case Op::ChunkSize:
            // Whole-message staging (the tuned flat/staged selection) vs.
            // the chunked single-copy pipeline at each candidate chunk size.
            add(algo::kCsWhole);
            for (std::uint32_t s : cfg.segment_bytes) {
                add(algo::kCsPipelined, s);
            }
            break;
        case Op::LocBruck:
            add(algo::kLbPerLeader);  // status-quo per-leader slicing (Auto)
            add(algo::kLbCombined);   // force the locality-aware Bruck
            break;
        case Op::BatchWindow:
            add(algo::kBwOff);    // every op immediate
            add(algo::kBwFused);  // window fused into one bridge exchange
            break;
    }
    return out;
}

Choice legacy_choice(const mm::ModelParams& profile, Op op, int comm_size,
                     std::size_t bytes) {
    switch (op) {
        case Op::Allgather:
            if (bytes > profile.allgather_long_threshold) {
                return Choice{algo::kAgRing, 0};
            }
            return Choice{
                is_pow2(comm_size) ? algo::kAgRecDoubling : algo::kAgBruck, 0};
        case Op::Allgatherv:
            return Choice{bytes > profile.allgather_long_threshold
                              ? algo::kAgvRing
                              : algo::kAgvBruck,
                          0};
        case Op::Bcast:
            return Choice{bytes > profile.bcast_long_threshold
                              ? algo::kBcPipelined
                              : algo::kBcBinomial,
                          0};
        case Op::Allreduce:
            return Choice{bytes > profile.allreduce_long_threshold
                              ? algo::kArRing
                              : algo::kArRecDoubling,
                          0};
        case Op::ChunkSize:
            // Pre-pipeline behaviour: Auto never chunks without a table row.
            return Choice{algo::kCsWhole, 0};
        case Op::SocketStaging:
            // Mirror of SocketStager's pre-table heuristic: two sockets on a
            // comm_size-rank node give sockets of comm_size/2 ranks.
            return Choice{bytes >= 16 * 1024 && comm_size >= 4
                              ? algo::kSsStaged
                              : algo::kSsFlat,
                          0};
        case Op::LocBruck:
            // Pre-table behaviour: Auto never combines without a table row.
            return Choice{algo::kLbPerLeader, 0};
        case Op::BatchWindow:
            // Mirror of CollBatcher's legacy fuse threshold.
            return Choice{bytes <= 1024 ? algo::kBwFused : algo::kBwOff, 0};
        case Op::BridgeExchange:
        default:
            return Choice{algo::kBrVendorAllgatherv, 0};
    }
}

double measure(const mm::ModelParams& profile, Op op, Shape shape,
               int comm_size, std::size_t bytes, const Choice& choice,
               const TuneConfig& cfg) {
    // Ring allreduce needs one element per rank; below that the runtime
    // dispatch falls back to recursive doubling regardless of the table, so
    // the candidate is meaningless at this grid point.
    if (op == Op::Allreduce && choice.algo == algo::kArRing &&
        bytes < static_cast<std::size_t>(comm_size)) {
        return std::numeric_limits<double>::infinity();
    }
    if (op == Op::SocketStaging) {
        // One dual-socket node of comm_size ranks; the channel's on-node
        // distribution phase (forced flat or staged) is what differs between
        // the candidates — a broadcast carries exactly `bytes` through it.
        mm::Runtime srt(
            mm::ClusterSpec::regular(1, comm_size, mm::Placement::Smp, 2),
            profile, mm::PayloadMode::SizeOnly);
        const hympi::SocketStaging s = choice.algo == algo::kSsStaged
                                           ? hympi::SocketStaging::Staged
                                           : hympi::SocketStaging::Flat;
        return benchu::osu_latency(
            srt, cfg.warmup, cfg.iters,
            [bytes, s](mm::Comm& world) -> std::function<void()> {
                auto hc = std::make_shared<hympi::HierComm>(world, 1);
                auto ch = std::make_shared<hympi::BcastChannel>(*hc, bytes);
                ch->set_socket_staging(s);
                return [hc, ch] { ch->run(0); };
            });
    }
    if (op == Op::ChunkSize) {
        // Two dual-socket nodes at comm_size ranks each: the smallest shape
        // where the chunked engine has both a bridge transfer and a socket
        // mirror to overlap. The whole-message candidate runs the channel's
        // status-quo Auto selection (flat or staged from the registered
        // partial table); the chunked candidates force the pipeline at the
        // candidate chunk size.
        mm::Runtime prt(
            mm::ClusterSpec::regular(2, comm_size, mm::Placement::Smp, 2),
            profile, mm::PayloadMode::SizeOnly);
        const bool pipelined = choice.algo == algo::kCsPipelined;
        const std::size_t seg = choice.segment_bytes;
        return benchu::osu_latency(
            prt, cfg.warmup, cfg.iters,
            [bytes, pipelined, seg](mm::Comm& world) -> std::function<void()> {
                auto hc = std::make_shared<hympi::HierComm>(world, 1);
                auto ch = std::make_shared<hympi::BcastChannel>(*hc, bytes);
                ch->set_socket_staging(pipelined
                                           ? hympi::SocketStaging::Pipelined
                                           : hympi::SocketStaging::Auto);
                if (pipelined) ch->set_chunk_bytes(seg);
                return [hc, ch] { ch->run(0); };
            });
    }
    if (op == Op::LocBruck) {
        // comm_size nodes x 4 ranks with EVERY rank a leader — the
        // multi-leader regime where the combined algorithm's one-message-
        // per-node aggregation differs from per-leader slicing. `bytes` is
        // the whole node block (the runtime lookup key), so each rank
        // contributes a quarter. The per-leader baseline runs the channel's
        // status-quo Auto selection under the registered partial table.
        mm::Runtime lrt(mm::ClusterSpec::regular(comm_size, 4), profile,
                        mm::PayloadMode::SizeOnly);
        const hympi::BridgeAlgo a = choice.algo == algo::kLbCombined
                                        ? hympi::BridgeAlgo::LocBruck
                                        : hympi::BridgeAlgo::Auto;
        const std::size_t block = bytes / 4;
        return benchu::osu_latency(
            lrt, cfg.warmup, cfg.iters,
            [block, a](mm::Comm& world) -> std::function<void()> {
                auto hc = std::make_shared<hympi::HierComm>(world, 4);
                auto ch =
                    std::make_shared<hympi::AllgatherChannel>(*hc, block);
                return [hc, ch, a] { ch->run(hympi::SyncPolicy::Barrier, a); };
            });
    }
    if (op == Op::BatchWindow) {
        // comm_size nodes x 2 ranks; one window of 8 back-to-back
        // allgathers of `bytes` per rank. The candidates force the batcher
        // policy (fused vs immediate), so the probe never re-enters the
        // BatchWindow table being built.
        mm::Runtime brt(mm::ClusterSpec::regular(comm_size, 2), profile,
                        mm::PayloadMode::SizeOnly);
        const bool fused = choice.algo == algo::kBwFused;
        return benchu::osu_latency(
            brt, cfg.warmup, cfg.iters,
            [bytes, fused](mm::Comm& world) -> std::function<void()> {
                auto hc = std::make_shared<hympi::HierComm>(world, 1);
                auto bat = std::make_shared<hympi::CollBatcher>(*hc);
                bat->set_policy(fused ? hympi::BatchPolicy::Always
                                      : hympi::BatchPolicy::Never);
                return [hc, bat, bytes] {
                    std::vector<mm::CollRequest> reqs;
                    reqs.reserve(8);
                    for (int i = 0; i < 8; ++i) {
                        reqs.push_back(
                            bat->post_allgather(nullptr, bytes, nullptr));
                    }
                    mm::wait_all(reqs);
                };
            });
    }
    mm::Runtime rt(cluster_for(shape, comm_size), profile,
                   mm::PayloadMode::SizeOnly);
    if (op == Op::BridgeExchange) {
        // The Fig. 8 scenario: comm_size nodes at 1 process per node; each
        // node block is `bytes`. The vendor-allgatherv candidate delegates
        // to minimpi and runs under whatever table is currently registered
        // for the profile.
        const hympi::BridgeAlgo a = bridge_algo_of(choice.algo);
        const std::size_t seg = choice.segment_bytes;
        return benchu::osu_latency(
            rt, cfg.warmup, cfg.iters,
            [bytes, a, seg](mm::Comm& world) -> std::function<void()> {
                auto hc = std::make_shared<hympi::HierComm>(world, 1);
                auto ch =
                    std::make_shared<hympi::AllgatherChannel>(*hc, bytes);
                ch->set_pipeline_segment(seg);
                return [hc, ch, a] { ch->run(hympi::SyncPolicy::Barrier, a); };
            });
    }
    return benchu::osu_latency(
        rt, cfg.warmup, cfg.iters,
        [op, bytes, choice](mm::Comm& world) -> std::function<void()> {
            return make_op(world, op, bytes, choice);
        });
}

DecisionTable tune_profile(const mm::ModelParams& profile,
                           const TuneConfig& cfg, std::ostream* log) {
    DecisionTable table(profile.name, cfg.seed);
    auto sweep = [&](Op op, Shape shape, const std::vector<int>& sizes,
                     const std::vector<std::size_t>& bytes_list,
                     bool per_rank) {
        for (int s : sizes) {
            for (std::size_t b : bytes_list) {
                // Table keys are aggregate volumes for the gather ops.
                const std::size_t key =
                    per_rank ? b * static_cast<std::size_t>(s) : b;
                table.set(op, shape, s, key,
                          best_choice(profile, op, shape, s, key, cfg));
            }
        }
        if (log) {
            *log << "  " << profile.name << ": " << op_name(op) << "/"
                 << shape_name(shape) << " swept " << sizes.size() << " x "
                 << bytes_list.size() << " points\n";
        }
    };

    if (log) *log << "tuning profile '" << profile.name << "'\n";
    sweep(Op::Allgather, Shape::Net, cfg.net_sizes, cfg.block_bytes, true);
    sweep(Op::Allgather, Shape::Shm, cfg.shm_sizes, cfg.block_bytes, true);
    sweep(Op::Allgatherv, Shape::Net, cfg.net_sizes, cfg.block_bytes, true);
    sweep(Op::Allgatherv, Shape::Shm, cfg.shm_sizes, cfg.block_bytes, true);
    sweep(Op::Bcast, Shape::Net, cfg.net_sizes, cfg.message_bytes, false);
    sweep(Op::Bcast, Shape::Shm, cfg.shm_sizes, cfg.message_bytes, false);
    sweep(Op::Allreduce, Shape::Net, cfg.net_sizes, cfg.message_bytes, false);
    sweep(Op::Allreduce, Shape::Shm, cfg.shm_sizes, cfg.message_bytes, false);
    // Hybrid on-node NUMA phase, measured on one dual-socket node. The
    // candidates are forced (never Auto), so this sweep cannot re-enter the
    // table being built.
    sweep(Op::SocketStaging, Shape::Shm, cfg.shm_sizes, cfg.message_bytes,
          false);

    // Bridge exchange last, with the partial table registered so the
    // vendor-allgatherv candidate runs with tuned inner selection (an
    // override shadows any baked table of the same profile).
    register_table(table);
    sweep(Op::BridgeExchange, Shape::Net, cfg.bridge_sizes,
          cfg.bridge_block_bytes, false);

    // Pipeline chunk size, with the table still registered so the
    // whole-message baseline runs the tuned flat/staged selection. Results
    // are collected aside and merged only after the whole sweep: a
    // ChunkSize row set at an earlier grid point would otherwise be picked
    // up (via log-rounding) by a later point's Auto baseline, contaminating
    // the very comparison being measured.
    {
        std::vector<std::pair<std::pair<int, std::size_t>, Choice>> rows;
        for (int s : cfg.shm_sizes) {
            for (std::size_t b : cfg.message_bytes) {
                rows.push_back({{s, b},
                                best_choice(profile, Op::ChunkSize, Shape::Shm,
                                            s, b, cfg)});
            }
        }
        for (const auto& [key, c] : rows) {
            table.set(Op::ChunkSize, Shape::Shm, key.first, key.second, c);
        }
        if (log) {
            *log << "  " << profile.name << ": " << op_name(Op::ChunkSize)
                 << "/" << shape_name(Shape::Shm) << " swept "
                 << cfg.shm_sizes.size() << " x " << cfg.message_bytes.size()
                 << " points\n";
        }
    }
    // Re-register so the locality-aware sweep's per-leader baseline (Auto)
    // runs the tuned bridge selection just swept. LocBruck rows are
    // collected aside like ChunkSize's: tuned_bridge_algo consults them
    // FIRST, so a row set at an earlier grid point would hijack a later
    // point's Auto baseline.
    register_table(table);
    {
        std::vector<std::pair<std::pair<int, std::size_t>, Choice>> rows;
        for (int s : cfg.bridge_sizes) {
            for (std::size_t b : cfg.bridge_block_bytes) {
                rows.push_back({{s, b},
                                best_choice(profile, Op::LocBruck, Shape::Net,
                                            s, b, cfg)});
            }
        }
        for (const auto& [key, c] : rows) {
            table.set(Op::LocBruck, Shape::Net, key.first, key.second, c);
        }
        if (log) {
            *log << "  " << profile.name << ": " << op_name(Op::LocBruck)
                 << "/" << shape_name(Shape::Net) << " swept "
                 << cfg.bridge_sizes.size() << " x "
                 << cfg.bridge_block_bytes.size() << " points\n";
        }
    }
    // Batch-window fusing, keyed by (node count, per-op payload). The
    // probes force the batcher policy, so rows can land in the table
    // directly without contaminating later grid points.
    sweep(Op::BatchWindow, Shape::Net, cfg.bridge_sizes, cfg.block_bytes,
          false);
    unregister_table(profile.name);
    return table;
}

}  // namespace tuning
