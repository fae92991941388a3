// Direct tests of the individual flat collective algorithms (the detail::
// entry points), independent of the vendor-profile dispatch: every
// algorithm must produce identical data, so the selector can switch freely.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "minimpi/coll_internal.h"
#include "minimpi/minimpi.h"

using namespace minimpi;

namespace {

std::int64_t val(int rank, std::size_t i) {
    return static_cast<std::int64_t>(rank + 1) * 500009 +
           static_cast<std::int64_t>(i);
}

using AllgatherFn = void (*)(const Comm&, const void*, void*, std::size_t);

void check_allgather(AllgatherFn fn, int ppn, std::size_t block_elems) {
    Runtime rt(ClusterSpec::regular(1, ppn), ModelParams::test());
    rt.run([&](Comm& world) {
        const int p = world.size();
        const std::size_t bb = block_elems * sizeof(std::int64_t);
        std::vector<std::int64_t> mine(block_elems);
        for (std::size_t i = 0; i < block_elems; ++i) {
            mine[i] = val(world.rank(), i);
        }
        std::vector<std::int64_t> all(block_elems * static_cast<std::size_t>(p),
                                      -1);
        fn(world, mine.data(), all.data(), bb);
        for (int r = 0; r < p; ++r) {
            for (std::size_t i = 0; i < block_elems; ++i) {
                ASSERT_EQ(all[static_cast<std::size_t>(r) * block_elems + i],
                          val(r, i))
                    << "p=" << p << " block " << r;
            }
        }
    });
}

}  // namespace

TEST(CollAlgos, RecursiveDoublingPow2) {
    for (int p : {1, 2, 4, 8, 16}) {
        check_allgather(detail::allgather_recursive_doubling, p, 9);
    }
}

TEST(CollAlgos, RecursiveDoublingRejectsNonPow2) {
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        std::int64_t x = 1;
        std::vector<std::int64_t> all(3);
        detail::allgather_recursive_doubling(world, &x, all.data(),
                                             sizeof(x));
    }),
                 ArgumentError);
}

TEST(CollAlgos, BruckAnySize) {
    for (int p : {1, 2, 3, 5, 7, 12, 24}) {
        check_allgather(detail::allgather_bruck, p, 5);
    }
}

TEST(CollAlgos, RingAnySize) {
    for (int p : {1, 2, 3, 6, 13, 24}) {
        check_allgather(detail::allgather_ring, p, 33);
    }
}

TEST(CollAlgos, AllAllgatherAlgorithmsAgree) {
    Runtime rt(ClusterSpec::regular(1, 8), ModelParams::test());
    rt.run([](Comm& world) {
        const std::size_t n = 11;
        const std::size_t bb = n * sizeof(std::int64_t);
        std::vector<std::int64_t> mine(n);
        for (std::size_t i = 0; i < n; ++i) mine[i] = val(world.rank(), i);
        std::vector<std::int64_t> a(n * 8), b(n * 8), c(n * 8);
        detail::allgather_recursive_doubling(world, mine.data(), a.data(), bb);
        detail::allgather_bruck(world, mine.data(), b.data(), bb);
        detail::allgather_ring(world, mine.data(), c.data(), bb);
        EXPECT_EQ(a, b);
        EXPECT_EQ(b, c);
    });
}

TEST(CollAlgos, BcastBinomialVsPipelined) {
    for (int p : {2, 5, 8}) {
        Runtime rt(ClusterSpec::regular(1, p), ModelParams::test());
        rt.run([](Comm& world) {
            const std::size_t bytes = 100 * 1024;  // forces several segments
            std::vector<std::byte> a(bytes), b(bytes);
            if (world.rank() == 1 % world.size()) {
                for (std::size_t i = 0; i < bytes; ++i) {
                    a[i] = b[i] = static_cast<std::byte>(i * 31 & 0xFF);
                }
            }
            const int root = 1 % world.size();
            detail::bcast_binomial(world, a.data(), bytes, root);
            detail::bcast_pipelined_chain(world, b.data(), bytes, root);
            EXPECT_EQ(a, b);
            for (std::size_t i = 0; i < bytes; i += 4097) {
                EXPECT_EQ(a[i], static_cast<std::byte>(i * 31 & 0xFF));
            }
        });
    }
}

TEST(CollAlgos, AllreduceRecursiveDoublingNonPow2) {
    for (int p : {2, 3, 5, 6, 7, 12}) {
        Runtime rt(ClusterSpec::regular(1, p), ModelParams::test());
        rt.run([p](Comm& world) {
            const std::size_t n = 20;
            std::vector<std::int64_t> mine(n), out(n, -1);
            for (std::size_t i = 0; i < n; ++i) mine[i] = val(world.rank(), i);
            detail::allreduce_recursive_doubling(world, mine.data(),
                                                 out.data(), n,
                                                 Datatype::Int64, Op::Sum);
            for (std::size_t i = 0; i < n; ++i) {
                std::int64_t want = 0;
                for (int r = 0; r < p; ++r) want += val(r, i);
                ASSERT_EQ(out[i], want);
            }
        });
    }
}

TEST(CollAlgos, AllreduceRingMatchesRecursiveDoubling) {
    for (int p : {2, 3, 7, 8}) {
        Runtime rt(ClusterSpec::regular(1, p), ModelParams::test());
        rt.run([](Comm& world) {
            const std::size_t n = 57;  // not divisible by p
            std::vector<double> mine(n);
            for (std::size_t i = 0; i < n; ++i) {
                mine[i] = 0.5 * world.rank() + 0.125 * static_cast<double>(i);
            }
            std::vector<double> a(n), b(n);
            detail::allreduce_recursive_doubling(world, mine.data(), a.data(),
                                                 n, Datatype::Double, Op::Max);
            detail::allreduce_ring(world, mine.data(), b.data(), n,
                                   Datatype::Double, Op::Max);
            EXPECT_EQ(a, b);
        });
    }
}

TEST(CollAlgos, AllreduceRingFewElements) {
    // count < p exercises empty chunks.
    Runtime rt(ClusterSpec::regular(1, 8), ModelParams::test());
    rt.run([](Comm& world) {
        const std::size_t n = 3;
        std::vector<std::int64_t> mine(n), out(n);
        for (std::size_t i = 0; i < n; ++i) mine[i] = world.rank() + 1;
        detail::allreduce_ring(world, mine.data(), out.data(), n,
                               Datatype::Int64, Op::Sum);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], 36);
    });
}

TEST(CollAlgos, AllgathervBruckMatchesRing) {
    for (int p : {2, 3, 5, 11}) {
        Runtime rt(ClusterSpec::regular(1, p), ModelParams::test());
        rt.run([p](Comm& world) {
            std::vector<std::size_t> counts(static_cast<std::size_t>(p));
            std::vector<std::size_t> displs(static_cast<std::size_t>(p));
            std::size_t total = 0;
            for (int r = 0; r < p; ++r) {
                counts[static_cast<std::size_t>(r)] =
                    static_cast<std::size_t>((r * 7) % 23) * 8;
                displs[static_cast<std::size_t>(r)] = total;
                total += counts[static_cast<std::size_t>(r)];
            }
            const std::size_t mine_b =
                counts[static_cast<std::size_t>(world.rank())];
            std::vector<std::byte> mine(mine_b);
            for (std::size_t i = 0; i < mine_b; ++i) {
                mine[i] = static_cast<std::byte>((world.rank() * 37 + i) & 0xFF);
            }
            std::vector<std::byte> a(total), b(total);
            detail::allgatherv_ring(world, mine.data(), mine_b, a.data(),
                                    counts, displs);
            detail::allgatherv_bruck(world, mine.data(), mine_b, b.data(),
                                     counts, displs);
            EXPECT_EQ(a, b);
        });
    }
}

TEST(CollAlgos, ReduceBinomialProd) {
    Runtime rt(ClusterSpec::regular(1, 5), ModelParams::test());
    rt.run([](Comm& world) {
        double x = 1.0 + 0.5 * world.rank();
        double out = -1;
        detail::reduce_binomial(world, &x, world.rank() == 2 ? &out : nullptr,
                                1, Datatype::Double, Op::Prod, 2);
        if (world.rank() == 2) {
            EXPECT_DOUBLE_EQ(out, 1.0 * 1.5 * 2.0 * 2.5 * 3.0);
        }
    });
}

TEST(CollAlgos, ApplyOpBitAndLogical) {
    Runtime rt(ClusterSpec::regular(1, 1), ModelParams::test());
    rt.run([](Comm& world) {
        RankCtx& ctx = world.ctx();
        std::int32_t a[3] = {0b1100, 1, 0};
        const std::int32_t b[3] = {0b1010, 0, 1};
        detail::apply_op(ctx, Op::BitAnd, Datatype::Int32, a, b, 1);
        EXPECT_EQ(a[0], 0b1000);
        detail::apply_op(ctx, Op::LogicalOr, Datatype::Int32, a + 1, b + 1, 2);
        EXPECT_EQ(a[1], 1);
        EXPECT_EQ(a[2], 1);
        double d = 1.0;
        EXPECT_THROW(
            detail::apply_op(ctx, Op::BitAnd, Datatype::Double, &d, &d, 1),
            ArgumentError);
    });
}

TEST(CollAlgos, HierarchicalMatchesFlatAllgather) {
    // Same data through the SMP-aware dispatch and the forced-flat path.
    Runtime rt_hier(ClusterSpec::regular(3, 4), ModelParams::cray());
    ModelParams flat = ModelParams::cray();
    flat.smp_aware = false;
    Runtime rt_flat(ClusterSpec::regular(3, 4), flat);
    std::vector<std::int64_t> out_hier, out_flat;
    auto body = [](std::vector<std::int64_t>* sink) {
        return [sink](Comm& world) {
            const std::size_t n = 7;
            std::vector<std::int64_t> mine(n);
            for (std::size_t i = 0; i < n; ++i) mine[i] = val(world.rank(), i);
            std::vector<std::int64_t> all(n * 12);
            allgather(world, mine.data(), n, all.data(), Datatype::Int64);
            if (world.rank() == 5) *sink = all;
        };
    };
    rt_hier.run(body(&out_hier));
    rt_flat.run(body(&out_flat));
    EXPECT_EQ(out_hier, out_flat);
}

TEST(CollAlgos, HierarchicalAllgatherRoundRobinPlacement) {
    Runtime rt(ClusterSpec::regular(3, 4, Placement::RoundRobin),
               ModelParams::cray());
    rt.run([](Comm& world) {
        const std::size_t n = 6;
        std::vector<std::int64_t> mine(n);
        for (std::size_t i = 0; i < n; ++i) mine[i] = val(world.rank(), i);
        std::vector<std::int64_t> all(n * 12, -1);
        allgather(world, mine.data(), n, all.data(), Datatype::Int64);
        for (int r = 0; r < 12; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(all[static_cast<std::size_t>(r) * n + i], val(r, i));
            }
        }
    });
}

TEST(CollAlgos, HierarchicalMatchesFlatForAllCollectives) {
    // Same data through the SMP-aware dispatch and the forced-flat path,
    // for every collective with a hierarchical fast path.
    ModelParams hier_m = ModelParams::cray();
    ModelParams flat_m = ModelParams::cray();
    flat_m.smp_aware = false;

    struct Result {
        std::vector<std::int64_t> bcast, reduce, allreduce, allgatherv;
    };
    auto body = [](Result* sink) {
        return [sink](Comm& world) {
            const int p = world.size();
            const std::size_t n = 9;
            const int root = p - 2;
            std::vector<std::int64_t> mine(n);
            for (std::size_t i = 0; i < n; ++i) mine[i] = val(world.rank(), i);

            std::vector<std::int64_t> b(n);
            if (world.rank() == root) b = mine;
            bcast(world, b.data(), n, Datatype::Int64, root);

            std::vector<std::int64_t> r(n, -1);
            reduce(world, mine.data(),
                   world.rank() == root ? r.data() : nullptr, n,
                   Datatype::Int64, Op::Sum, root);

            std::vector<std::int64_t> ar(n);
            allreduce(world, mine.data(), ar.data(), n, Datatype::Int64,
                      Op::Min);

            std::vector<std::size_t> counts(static_cast<std::size_t>(p));
            std::vector<std::size_t> displs(static_cast<std::size_t>(p));
            std::size_t total = 0;
            for (int q = 0; q < p; ++q) {
                counts[static_cast<std::size_t>(q)] = n + static_cast<std::size_t>(q % 2);
                displs[static_cast<std::size_t>(q)] = total;
                total += counts[static_cast<std::size_t>(q)];
            }
            std::vector<std::int64_t> agv(total, -1);
            std::vector<std::int64_t> mine_v(
                counts[static_cast<std::size_t>(world.rank())]);
            for (std::size_t i = 0; i < mine_v.size(); ++i) {
                mine_v[i] = val(world.rank(), i);
            }
            allgatherv(world, mine_v.data(), mine_v.size(), agv.data(), counts,
                       displs, Datatype::Int64);

            if (world.rank() == root) {
                sink->bcast = b;
                sink->reduce = r;
                sink->allreduce = ar;
                sink->allgatherv = agv;
            }
        };
    };

    Result hier, flat;
    Runtime rt_h(ClusterSpec::irregular({4, 2, 3}), hier_m);
    rt_h.run(body(&hier));
    Runtime rt_f(ClusterSpec::irregular({4, 2, 3}), flat_m);
    rt_f.run(body(&flat));
    EXPECT_EQ(hier.bcast, flat.bcast);
    EXPECT_EQ(hier.reduce, flat.reduce);
    EXPECT_EQ(hier.allreduce, flat.allreduce);
    EXPECT_EQ(hier.allgatherv, flat.allgatherv);
}

// ---- forwarded payloads under payload corruption ------------------------------
//
// bcast_binomial, bcast_pipelined_chain and the two rings forward the payload
// a rank received instead of copying its bytes again. A corrupted delivery
// must still behave as a copy: the flipped byte reaches the corrupted
// receiver and every rank downstream of it, and no sibling.

namespace {

/// One message of a collective: WORLD ranks, the sender's per-destination
/// message index (FaultPlan keys) and where its bytes land in the result.
struct Edge {
    int src = 0, dst = 0;
    std::uint64_t seq = 0;
    std::size_t off = 0, len = 0;  ///< byte range of the result it carries
};

/// A plan that corrupts exactly one of @p edges; returns it and the index.
std::pair<FaultPlan, std::size_t> corrupt_one(const std::vector<Edge>& edges) {
    FaultPlan plan;
    plan.corrupt_every = 16;
    plan.scope = FaultScope::AllTraffic;
    for (plan.seed = 1;; ++plan.seed) {
        std::size_t hits = 0, hit = 0;
        for (std::size_t i = 0; i < edges.size(); ++i) {
            if (plan.should_corrupt(edges[i].src, edges[i].dst, edges[i].seq)) {
                ++hits;
                hit = i;
            }
        }
        if (hits == 1) return {plan, hit};
    }
}

/// An irregular communicator: the world of a {3, 1, 4, 2} cluster without
/// world rank 4, in reverse order (comm rank != world rank).
constexpr int kForwardP = 9;
int fwd_world(int comm_rank) {
    static constexpr int w[kForwardP] = {9, 8, 7, 6, 5, 3, 2, 1, 0};
    return w[comm_rank];
}

std::byte pattern(std::size_t i) { return static_cast<std::byte>(i * 13 + 5); }

/// Run @p body on the irregular comm under @p plan and check each comm
/// rank's @p total-byte result against the pattern, flipped where
/// @p corrupted(rank) says the corrupted edge's byte lands.
void run_forwarding_case(
    const FaultPlan& plan, std::size_t total,
    const std::function<void(const Comm&, std::vector<std::byte>&)>& body,
    const Edge& bad_edge, const std::function<bool(int)>& downstream) {
    Runtime rt(ClusterSpec::irregular({3, 1, 4, 2}), ModelParams::test());
    rt.set_fault_plan(plan);
    const std::size_t bad = bad_edge.off + plan.corrupt_byte(bad_edge.src,
                                                            bad_edge.dst,
                                                            bad_edge.seq,
                                                            bad_edge.len);
    std::vector<std::vector<std::byte>> got(kForwardP);
    rt.run([&](Comm& world) {
        const Comm c = world.split(world.rank() == 4 ? kUndefined : 0,
                                   -world.rank());
        if (!c.valid()) return;
        ASSERT_EQ(c.size(), kForwardP);
        ASSERT_EQ(c.to_world(), fwd_world(c.rank()));
        std::vector<std::byte> buf(total);
        body(c, buf);
        got[static_cast<std::size_t>(c.rank())] = std::move(buf);
    });
    for (int r = 0; r < kForwardP; ++r) {
        const auto& g = got[static_cast<std::size_t>(r)];
        ASSERT_EQ(g.size(), total);
        for (std::size_t i = 0; i < total; ++i) {
            const bool flip = i == bad && downstream(r);
            EXPECT_EQ(g[i], flip ? (pattern(i) ^ std::byte{0x40}) : pattern(i))
                << "rank " << r << " byte " << i << " (corrupted edge "
                << bad_edge.src << "->" << bad_edge.dst << " #" << bad_edge.seq
                << ")";
        }
    }
}

}  // namespace

TEST(CollAlgos, ForwardedBcastBinomialPropagatesCorruptionLikeACopy) {
    constexpr int p = kForwardP;
    constexpr std::size_t bytes = 77;
    for (int root : {0, 4}) {
        // vrank v's parent is v minus its lowest set bit.
        std::vector<Edge> edges;
        for (int v = 1; v < p; ++v) {
            const int parent = v - (v & -v);
            edges.push_back({fwd_world((parent + root) % p),
                             fwd_world((v + root) % p), 0, 0, bytes});
        }
        const auto [plan, hit] = corrupt_one(edges);
        const int child = static_cast<int>(hit) + 1;  // vrank of the receiver
        run_forwarding_case(
            plan, bytes,
            [&](const Comm& c, std::vector<std::byte>& buf) {
                if (c.rank() == root) {
                    for (std::size_t i = 0; i < bytes; ++i) buf[i] = pattern(i);
                }
                detail::bcast_binomial(c, buf.data(), bytes, root);
            },
            edges[hit], [&](int r) {
                // The receiver's subtree: [child, child + lowbit(child)).
                const int v = (r - root + p) % p;
                return v >= child && v < child + (child & -child);
            });
    }
}

TEST(CollAlgos, ForwardedPipelinedChainPropagatesCorruptionLikeACopy) {
    constexpr int p = kForwardP;
    constexpr std::size_t bytes = 100, seg = 16;  // 7 segments
    constexpr int root = 2;
    std::vector<Edge> edges;
    for (int v = 0; v + 1 < p; ++v) {
        for (std::size_t s = 0; s * seg < bytes; ++s) {
            edges.push_back({fwd_world((v + root) % p),
                             fwd_world((v + 1 + root) % p), s, s * seg,
                             std::min(seg, bytes - s * seg)});
        }
    }
    const auto [plan, hit] = corrupt_one(edges);
    const int receiver = static_cast<int>(hit / 7) + 1;  // its vrank
    run_forwarding_case(
        plan, bytes,
        [&](const Comm& c, std::vector<std::byte>& buf) {
            if (c.rank() == root) {
                for (std::size_t i = 0; i < bytes; ++i) buf[i] = pattern(i);
            }
            detail::bcast_pipelined_chain(c, buf.data(), bytes, root, seg);
        },
        edges[hit], [&](int r) { return (r - root + p) % p >= receiver; });
}

TEST(CollAlgos, ForwardedRingsPropagateCorruptionLikeACopy) {
    constexpr int p = kForwardP;
    // Block b's bytes; allgather uses equal blocks, allgatherv irregular
    // ones (every block nonempty, so every message carries bytes).
    for (const bool vector : {false, true}) {
        std::vector<std::size_t> counts(p), displs(p);
        std::size_t total = 0;
        for (int b = 0; b < p; ++b) {
            counts[b] = vector ? 3 + static_cast<std::size_t>(b * 5 % 11) : 24;
            displs[b] = total;
            total += counts[b];
        }
        // Step k: comm rank r sends block (r - k) to r + 1.
        std::vector<Edge> edges;
        for (int r = 0; r < p; ++r) {
            for (int k = 0; k < p - 1; ++k) {
                const int b = (r - k + p) % p;
                edges.push_back({fwd_world(r), fwd_world((r + 1) % p),
                                 static_cast<std::uint64_t>(k), displs[b],
                                 counts[b]});
            }
        }
        const auto [plan, hit] = corrupt_one(edges);
        const int sender = static_cast<int>(hit) / (p - 1);
        const int step = static_cast<int>(hit) % (p - 1);
        run_forwarding_case(
            plan, total,
            [&](const Comm& c, std::vector<std::byte>& buf) {
                const auto me = static_cast<std::size_t>(c.rank());
                std::vector<std::byte> mine(counts[me]);
                for (std::size_t i = 0; i < mine.size(); ++i) {
                    mine[i] = pattern(displs[me] + i);
                }
                if (vector) {
                    detail::allgatherv_ring(c, mine.data(), mine.size(),
                                            buf.data(), counts, displs);
                } else {
                    detail::allgather_ring(c, mine.data(), buf.data(),
                                           counts[0]);
                }
            },
            edges[hit], [&](int r) {
                // The block travels sender + 1, ..., sender + (p - 1 - step).
                const int j = (r - sender + p) % p;
                return j >= 1 && j <= p - 1 - step;
            });
    }
}
