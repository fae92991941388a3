#include "hybrid/hy_allgather.h"

#include <algorithm>
#include <numeric>

#include "hybrid/hy_trace.h"
#include "minimpi/coll_internal.h"
#include "tuning/decision.h"

namespace hympi {

namespace {

const char* bridge_algo_name(BridgeAlgo a) {
    switch (a) {
        case BridgeAlgo::Auto: return "auto";
        case BridgeAlgo::Allgatherv: return "vendor_allgatherv";
        case BridgeAlgo::Bcast: return "bcast";
        case BridgeAlgo::Pipelined: return "pipelined_ring";
        case BridgeAlgo::BruckV: return "bruck_v";
        case BridgeAlgo::NeighborExchange: return "neighbor_exchange";
        case BridgeAlgo::LocBruck: return "loc_bruck";
    }
    return "?";
}

constexpr RoundNames kNames{"hy_allgather",        "Hy_Allgather",
                            "hy_iallgather",       "hy_allgather_start",
                            "Hy_Allgather_start",  "hy_allgather_finish",
                            "Hy_Allgather_finish"};

}  // namespace

AllgatherChannel::AllgatherChannel(const HierComm& hc, std::size_t block_bytes)
    : hc_(&hc), round_(hc, kNames) {
    std::vector<std::size_t> per_rank(
        static_cast<std::size_t>(hc.world().size()), block_bytes);
    init_layout(per_rank);
}

AllgatherChannel::AllgatherChannel(const HierComm& hc,
                                   std::span<const std::size_t> bytes_per_rank)
    : hc_(&hc), round_(hc, kNames) {
    if (bytes_per_rank.size() != static_cast<std::size_t>(hc.world().size())) {
        throw minimpi::ArgumentError(
            "AllgatherChannel needs one block size per comm rank");
    }
    init_layout(bytes_per_rank);
}

void AllgatherChannel::init_layout(
    std::span<const std::size_t> bytes_per_rank) {
    const int p = hc_->world().size();
    block_bytes_.assign(bytes_per_rank.begin(), bytes_per_rank.end());

    // Slot-major (node-major) layout with a sentinel for size queries.
    slot_offset_.resize(static_cast<std::size_t>(p) + 1);
    std::size_t off = 0;
    for (int s = 0; s < p; ++s) {
        slot_offset_[static_cast<std::size_t>(s)] = off;
        off += block_bytes_[static_cast<std::size_t>(hc_->rank_at(s))];
    }
    slot_offset_[static_cast<std::size_t>(p)] = off;
    total_bytes_ = off;

    // The node-shared result buffer: ONE copy per node (collective one-off).
    buf_ = NodeSharedBuffer(*hc_, total_bytes_);

    // Derived datatype describing the gathered data in RANK order relative
    // to the slot-major buffer (one-off; see repack_rank_order).
    {
        std::vector<std::pair<std::size_t, std::size_t>> extents;
        extents.reserve(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            const auto s = static_cast<std::size_t>(hc_->slot_of(r));
            extents.emplace_back(slot_offset_[s],
                                 block_bytes_[static_cast<std::size_t>(r)]);
        }
        rank_order_layout_ = minimpi::Layout::indexed(std::move(extents));
    }

    // Whole node blocks — every rank derives them from the (uniform)
    // slot-major layout, so their largest is a safe rank-uniform tuning key.
    for (int n = 0; n < hc_->num_nodes(); ++n) {
        const auto s0 = static_cast<std::size_t>(hc_->node_offset(n));
        const auto s1 = s0 + static_cast<std::size_t>(hc_->node_size(n));
        node_displs_.push_back(slot_offset_[s0]);
        node_counts_.push_back(slot_offset_[s1] - slot_offset_[s0]);
        max_node_block_ = std::max(max_node_block_, node_counts_.back());
    }

    // One-off bridge parameters for my leader role. Bridge rank order is
    // ascending comm rank of each node's leader l (the split key), which
    // matches node-major order on bridge 0 — node-major order IS ascending
    // lowest comm rank — but for l >= 1 a round-robin placement or a gapped
    // sub-communicator can permute it: the second leader of an early node
    // may outrank a later node's. Sort the per-node slices by their
    // leader's comm rank so bridge_{counts,displs}_[i] really describes
    // bridge rank i on every bridge, not just the primary one.
    if (hc_->is_leader() && hc_->num_nodes() > 1) {
        const int l = hc_->leader_index();
        std::vector<std::pair<int, std::pair<std::size_t, std::size_t>>> by_rank;
        for (int n = 0; n < hc_->num_nodes(); ++n) {
            const auto [first, last] = hc_->leader_slice(n, l);
            if (first == last) continue;  // node has no leader l
            const int s0 = hc_->node_offset(n) + first;
            const int s1 = hc_->node_offset(n) + last;
            const int leader = hc_->rank_at(hc_->node_offset(n) + l);
            by_rank.emplace_back(
                leader,
                std::pair<std::size_t, std::size_t>{
                    slot_offset_[static_cast<std::size_t>(s0)],
                    slot_offset_[static_cast<std::size_t>(s1)] -
                        slot_offset_[static_cast<std::size_t>(s0)]});
        }
        std::sort(by_rank.begin(), by_rank.end());
        for (const auto& [leader, slice] : by_rank) {
            bridge_displs_.push_back(slice.first);
            bridge_counts_.push_back(slice.second);
        }
        if (static_cast<int>(bridge_counts_.size()) != hc_->bridge().size()) {
            throw minimpi::CommError(
                "bridge layout disagrees with bridge communicator size");
        }
        for (std::size_t i = 0; i < bridge_counts_.size(); ++i) {
            max_bridge_count_ = std::max(max_bridge_count_, bridge_counts_[i]);
            if (i > 0 && bridge_displs_[i] !=
                             bridge_displs_[i - 1] + bridge_counts_[i - 1]) {
                bridge_contiguous_ = false;
            }
        }
    }

    // Resilience one-offs (robust mode only — the fast path pays nothing).
    if (round_.boot(buf_, /*flat_rung=*/true)) make_flat();
}

void AllgatherChannel::repack_rank_order(void* dst) const {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    TraceSpan span(ctx, hytrace::Phase::Copy, "repack_rank_order");
    ShmBytesScope bytes_scope(ctx, span);
    rank_order_layout_.pack(ctx, data(), dst);
}

BridgeAlgo AllgatherChannel::tuned_bridge_algo(std::size_t& seg) const {
    const tuning::DecisionTable* table = hc_->world().ctx().tuned;
    if (table == nullptr) return BridgeAlgo::Allgatherv;  // the paper's default
    // Rank-uniform LocBruck consultation FIRST (multi-leader channels only):
    // keyed by (node count, largest WHOLE node block) — identical on every
    // leader, so either all of a node's leaders enter the combined exchange
    // or none does; a per-leader key here could let the primary's whole-
    // block writes overlap a divergently-resolved peer's slice writes. It
    // must also precede the 0-byte clamp below: max_bridge_count_ is PER
    // LEADER, and a leader whose own slices happen to be empty (e.g. an
    // allgatherv where only another leader's slices carry data) still has
    // to resolve kLbCombined together with its siblings — the primary's
    // bridge ships whole node blocks on everyone's behalf, and non-primary
    // leaders return without exchanging. The max_node_block_ > 0 guard
    // keeps the truly-empty exchange (total payload 0, rank-uniform) on
    // the default path. With one leader per node LocBruck degenerates to
    // BruckV, which the per-leader BridgeExchange row already covers.
    if (hc_->leaders_per_node() > 1 && max_node_block_ > 0) {
        const auto lc =
            table->lookup(tuning::Op::LocBruck, tuning::Shape::Net,
                          hc_->num_nodes(), max_node_block_);
        if (lc.has_value() && lc->algo == tuning::algo::kLbCombined) {
            return BridgeAlgo::LocBruck;
        }
    }
    // A 0-byte exchange has no geometric position on the size axis: log-
    // rounding would land on the smallest grid row, whose winner (possibly
    // Pipelined) is tuned for data that is not there. Nothing moves over
    // THIS bridge (max_bridge_count_ is the max over the whole bridge's
    // counts, so the clamp is uniform within the bridge comm), so take the
    // paper's default (mirrors SocketStager::resolve's 0-byte clamp).
    if (max_bridge_count_ == 0) return BridgeAlgo::Allgatherv;
    const auto c =
        table->lookup(tuning::Op::BridgeExchange, tuning::Shape::Net,
                      hc_->bridge().size(), max_bridge_count_);
    if (c.has_value()) {
        switch (c->algo) {
            case tuning::algo::kBrPipelined:
                if (seg == 0) seg = c->segment_bytes;
                seg = detail::clamp_segment(seg, kPipelineSegmentBytes,
                                            (max_bridge_count_ + 63) / 64,
                                            max_bridge_count_);
                return BridgeAlgo::Pipelined;
            case tuning::algo::kBrBruckV:
                return BridgeAlgo::BruckV;
            case tuning::algo::kBrNeighborExchange:
                return BridgeAlgo::NeighborExchange;
            case tuning::algo::kBrVendorAllgatherv:
            default:
                return BridgeAlgo::Allgatherv;
        }
    }
    return BridgeAlgo::Allgatherv;  // the paper's default
}

void AllgatherChannel::bridge_exchange(BridgeAlgo algo) {
    const Comm& bridge = hc_->bridge();
    const int bp = bridge.size();
    const int br = bridge.rank();

    // An explicit set_pipeline_segment() wins over the tuned/heuristic
    // resolution below.
    std::size_t seg = pipeline_segment_;
    if (algo == BridgeAlgo::Auto) algo = tuned_bridge_algo(seg);
    // Neighbor exchange pairs up adjacent blocks: it needs an even bridge
    // and abutting slices (one leader per node). The fallback is the
    // status-quo vendor allgatherv — a tuned table row from a nearby even
    // size may name NeighborExchange at an odd size, and any other
    // substitute could be slower than what the legacy path would have run.
    if (algo == BridgeAlgo::NeighborExchange &&
        (bp % 2 != 0 || !bridge_contiguous_)) {
        algo = BridgeAlgo::Allgatherv;
    }

    BridgeSpan span(bridge, bridge_algo_name(algo));
    switch (algo) {
        case BridgeAlgo::Auto:  // resolved above; unreachable
            return;
        case BridgeAlgo::Allgatherv: {
            // Fig. 4 line 26: MPI_Allgatherv(s_buf, ..., r_buf, bridgeComm);
            // every leader's slice is already in place in the shared buffer.
            minimpi::allgatherv(
                bridge, minimpi::kInPlace,
                bridge_counts_[static_cast<std::size_t>(br)], buf_.data(),
                bridge_counts_, bridge_displs_, minimpi::Datatype::Byte);
            return;
        }
        case BridgeAlgo::Bcast: {
            // N rooted broadcasts of the node blocks (the "regular
            // operation" alternative of Sect. 4.1).
            for (int n = 0; n < bp; ++n) {
                minimpi::bcast(bridge,
                               buf_.at(bridge_displs_[static_cast<std::size_t>(n)]),
                               bridge_counts_[static_cast<std::size_t>(n)],
                               minimpi::Datatype::Byte, n);
            }
            return;
        }
        case BridgeAlgo::Pipelined: {
            // Segmented ring (Traeff et al. '08): forward the previously
            // received block segment by segment while the next block
            // arrives, hiding the per-hop start-up cost of large blocks.
            // Tuned/explicit segment sizes still honor the bounded
            // pipeline depth, as in bcast_pipelined_chain.
            seg = detail::clamp_segment(seg, kPipelineSegmentBytes,
                                        (max_bridge_count_ + 63) / 64,
                                        max_bridge_count_);
            auto nsegs = [&](int blk) {
                return (bridge_counts_[static_cast<std::size_t>(blk)] + seg - 1) /
                       seg;
            };
            const int left = (br - 1 + bp) % bp;
            const int right = (br + 1) % bp;
            constexpr int tag = minimpi::detail::kTagHier + 0x10;
            // Round k sends, segment by segment, the block round k - 1
            // received with the same segmentation; this leader alone writes
            // that block's slice of the shared buffer, so its segments go
            // on as received.
            std::vector<minimpi::Payload> fwd, kept;
            for (int k = 0; k < bp - 1; ++k) {
                const int send_blk = (br - k + bp) % bp;
                const int recv_blk = (br - k - 1 + bp) % bp;
                const std::size_t ns = nsegs(send_blk);
                const std::size_t nr = nsegs(recv_blk);
                const std::size_t send_off =
                    bridge_displs_[static_cast<std::size_t>(send_blk)];
                const std::size_t recv_off =
                    bridge_displs_[static_cast<std::size_t>(recv_blk)];
                const std::size_t send_len =
                    bridge_counts_[static_cast<std::size_t>(send_blk)];
                const std::size_t recv_len =
                    bridge_counts_[static_cast<std::size_t>(recv_blk)];
                fwd.swap(kept);
                fwd.resize(ns);
                kept.assign(nr, nullptr);
                for (std::size_t s = 0; s < std::max(ns, nr); ++s) {
                    if (s < ns) {
                        const std::size_t o = s * seg;
                        minimpi::detail::send_payload(
                            bridge, buf_.at(send_off + o),
                            std::min(seg, send_len - o), right, tag, true,
                            fwd[s]);
                    }
                    if (s < nr) {
                        const std::size_t o = s * seg;
                        minimpi::Request rr = minimpi::detail::irecv_keep(
                            bridge, buf_.at(recv_off + o),
                            std::min(seg, recv_len - o), left, tag, true);
                        rr.wait();
                        kept[s] = rr.take_payload();
                    }
                }
            }
            return;
        }
        case BridgeAlgo::BruckV: {
            // Bruck allgatherv on bridge point-to-point traffic: ceil(log2
            // bp) rounds of doubling aggregated sends through a rotated
            // scratch, then one unrotation pass into the shared buffer.
            // Unlike BridgeAlgo::Allgatherv this never enters the vendor
            // MPI_Allgatherv, so it skips the vector-collective tuning
            // penalty — the small-message winner the tables pick for the
            // Fig. 8 regime.
            detail::node_block_bruck(bridge, buf_.data(), bridge_displs_,
                                     bridge_counts_, 0x30);
            return;
        }
        case BridgeAlgo::LocBruck: {
            // Locality-aware Bruck (arXiv:2206.03564): the flat algorithm's
            // first ceil(log2 ppn) rounds move rank-adjacent data — here
            // that data already reached the contiguous node block over
            // shared memory (the ready phase), so those rounds collapse
            // into the block itself and every inter-node message ships one
            // aggregated whole-node block. Only the PRIMARY leaders'
            // bridge carries traffic (bridge rank == node index there:
            // node-major order is ascending lowest comm rank, which is
            // exactly bridge 0's split order under ANY rank placement);
            // with L leaders per node this replaces L interleaved
            // per-slice Bruck exchanges with one — an L-fold message-count
            // reduction at identical volume. Non-primary leaders are done:
            // the release phase makes every rank wait for the primary's
            // signal, which happens-after its whole-block writes.
            if (!hc_->is_primary_leader()) return;
            detail::node_block_bruck(bridge, buf_.data(), node_displs_,
                                     node_counts_, 0x50);
            return;
        }
        case BridgeAlgo::NeighborExchange: {
            // Neighbor exchange (Chen et al. '05, Open MPI's medium-size
            // allgather): round 0 pairs adjacent ranks; each later round
            // forwards the pair of blocks received in the previous round to
            // the alternating neighbor. bp/2 rounds in total — half the
            // start-ups of the ring at the same traffic volume, and no
            // scratch copies at all.
            constexpr int tag = minimpi::detail::kTagHier + 0x40;
            const bool even = (br % 2 == 0);
            int neighbor[2], offset[2], recv_from[2];
            if (even) {
                neighbor[0] = (br + 1) % bp;
                neighbor[1] = (br - 1 + bp) % bp;
                offset[0] = 2;
                offset[1] = bp - 2;
                recv_from[0] = recv_from[1] = br;
            } else {
                neighbor[0] = (br - 1 + bp) % bp;
                neighbor[1] = (br + 1) % bp;
                offset[0] = bp - 2;
                offset[1] = 2;
                recv_from[0] = recv_from[1] = neighbor[0];
            }
            {
                minimpi::Request rr = minimpi::detail::irecv_bytes(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(
                        neighbor[0])]),
                    bridge_counts_[static_cast<std::size_t>(neighbor[0])],
                    neighbor[0], tag, true);
                minimpi::detail::send_bytes(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(br)]),
                    bridge_counts_[static_cast<std::size_t>(br)], neighbor[0],
                    tag, true);
                rr.wait();
            }
            // Pairs are named by their (even) first block; slices abut, so
            // a pair is one contiguous span of the shared buffer.
            auto pair_len = [&](int b) {
                return bridge_counts_[static_cast<std::size_t>(b)] +
                       bridge_counts_[static_cast<std::size_t>(b + 1)];
            };
            // Round 1 sends this leader's pair (its own block and round 0's)
            // from the buffer; each later round forwards the pair payload
            // received in the round before, which nothing writes meanwhile.
            int send_pair = even ? br : neighbor[0];
            minimpi::Payload fwd;
            for (int i = 1; i < bp / 2; ++i) {
                const int j = i % 2;
                recv_from[j] = (recv_from[j] + offset[j]) % bp;
                const int rp = recv_from[j];
                minimpi::Request rr = minimpi::detail::irecv_keep(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(rp)]),
                    pair_len(rp), neighbor[j], tag + i, true);
                minimpi::detail::send_payload(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(
                        send_pair)]),
                    pair_len(send_pair), neighbor[j], tag + i, true, fwd);
                rr.wait();
                fwd = rr.take_payload();
                send_pair = rp;
            }
            return;
        }
    }
}

bool AllgatherChannel::reliable_ring(std::span<const std::size_t> counts,
                                     std::span<const std::size_t> displs,
                                     std::uint64_t gen) {
    // Pairwise ring: round k sends my slice to (br+k) while receiving
    // (br-k)'s slice — each round is one full-duplex reliable transfer, so
    // dropped/corrupted frames are retried instead of hanging the ring.
    const auto me = static_cast<std::size_t>(hc_->bridge().rank());
    return round_.ring(robust::kOpAllgather, gen, [&](int, int src) {
        const auto rb = static_cast<std::size_t>(src);
        return RingLeg{buf_.at(displs[me]), counts[me], buf_.at(displs[rb]),
                       counts[rb]};
    });
}

bool AllgatherChannel::bridge(BridgeAlgo algo) {
    if (round_.robust() == nullptr) {
        bridge_exchange(algo);
        return true;
    }
    BridgeSpan span(hc_->bridge(), "pairwise_reliable",
                    "robust_bridge_exchange");
    return reliable_ring(bridge_counts_, bridge_displs_, round_.gen());
}

bool AllgatherChannel::run_pipelined(const PipelinePlan& plan) {
    const std::size_t chunk = plan.chunk_bytes;
    // Pass c ships slice [c*chunk, (c+1)*chunk) of EVERY node block at
    // once, so the bridge stays balanced (full-duplex) and each pass lands
    // as one node-level release flag. Pass lengths taper as short blocks
    // run dry; every rank derives the identical vector (with one leader per
    // node, required by plan(), the node block IS the leader's slice).
    const std::size_t nchunks = (max_node_block_ + chunk - 1) / chunk;
    std::vector<std::size_t> pass_len(nchunks, 0);
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t off = c * chunk;
        for (const std::size_t len : node_counts_) {
            if (off < len) pass_len[c] += std::min(chunk, len - off);
        }
    }
    std::vector<std::size_t> counts(bridge_counts_.size());
    std::vector<std::size_t> displs(bridge_counts_.size());
    return round_.chunked(plan, pass_len, hc_->is_leader(),
                          "chunked_allgatherv", [&](std::size_t c) {
        const std::size_t off = c * chunk;
        for (std::size_t n = 0; n < counts.size(); ++n) {
            const std::size_t len = bridge_counts_[n];
            counts[n] = off < len ? std::min(chunk, len - off) : 0;
            displs[n] = bridge_displs_[n] + std::min(off, len);
        }
        if (round_.robust() != nullptr) {
            // Each chunk's frames live under their own generation stamp so
            // a duplicated frame of chunk i can never be accepted as chunk
            // j (varying the op code instead would wrap at 256 chunks).
            return reliable_ring(counts, displs,
                                 robust::chunked_gen(round_.gen(), c));
        }
        minimpi::allgatherv(
            hc_->bridge(), minimpi::kInPlace,
            counts[static_cast<std::size_t>(hc_->bridge().rank())],
            buf_.data(), counts, displs, minimpi::Datatype::Byte);
        return true;
    });
}

void AllgatherChannel::make_flat() {
    // Displacements by world rank preserve the slot-major layout, so
    // block_of()/data() keep the exact same offsets.
    flat_displs_.resize(block_bytes_.size());
    for (std::size_t r = 0; r < block_bytes_.size(); ++r) {
        flat_displs_[r] = slot_offset_[static_cast<std::size_t>(
            hc_->slot_of(static_cast<int>(r)))];
    }
    if (hc_->world().ctx().payload_mode == minimpi::PayloadMode::Real) {
        flat_buf_.assign(total_bytes_, std::byte{0});
    }
}

void AllgatherChannel::run_flat() {
    const Comm& world = hc_->world();
    minimpi::allgatherv(
        world, minimpi::kInPlace,
        block_bytes_[static_cast<std::size_t>(world.rank())], data(),
        block_bytes_, flat_displs_, minimpi::Datatype::Byte);
}

void AllgatherChannel::run(SyncPolicy sync, BridgeAlgo algo) {
    RoundSteps s;
    s.all_leaders = true;
    s.bytes = total_bytes_;
    s.staging = staging_;
    s.chunk_bytes = chunk_bytes_;
    s.flat = [this] { run_flat(); };
    s.bridge = [this, algo] { return bridge(algo); };
    s.chunked = [this](const PipelinePlan& pp, TraceSpan&) {
        return run_pipelined(pp);
    };
    s.refill = [this] {
        // Mid-run downgrade: this generation's contributions were already
        // written into the (still valid) shared segment; salvage our own
        // block and redo the whole exchange flat so the result stays
        // byte-identical to pure MPI.
        make_flat();
        const auto me = static_cast<std::size_t>(hc_->world().rank());
        hc_->world().ctx().copy_bytes(at(flat_displs_[me]),
                                      buf_.at(flat_displs_[me]),
                                      block_bytes_[me]);
        run_flat();
    };
    round_.run(sync, total_bytes_, s);
}

minimpi::CollRequest AllgatherChannel::start(SyncPolicy sync,
                                             BridgeAlgo algo) {
    RoundSteps s;
    s.all_leaders = true;
    s.bytes = total_bytes_;
    s.flat = [this] { run_flat(); };
    s.bridge = [this, algo] { return bridge(algo); };
    s.blocking = [this, sync, algo] { run(sync, algo); };
    return round_.start(sync, total_bytes_, s);
}

namespace detail {

void node_block_bruck(const minimpi::Comm& bridge, std::byte* base,
                      std::span<const std::size_t> displs,
                      std::span<const std::size_t> counts, int tag_base) {
    const int bp = bridge.size();
    const int br = bridge.rank();
    if (bp <= 1) return;
    minimpi::RankCtx& ctx = bridge.ctx();
    // Rotated prefix sums: scratch slot i holds the block of rank (br+i)%bp,
    // so every send is one contiguous doubling prefix. Zero-count blocks
    // collapse to empty slots and unrotate as 0-byte copies.
    std::vector<std::size_t> slot_off(static_cast<std::size_t>(bp) + 1, 0);
    for (int i = 0; i < bp; ++i) {
        slot_off[static_cast<std::size_t>(i) + 1] =
            slot_off[static_cast<std::size_t>(i)] +
            counts[static_cast<std::size_t>((br + i) % bp)];
    }
    minimpi::detail::Scratch tmp_s(ctx,
                                   slot_off[static_cast<std::size_t>(bp)]);
    std::byte* tmp = tmp_s.data();
    ctx.copy_bytes(tmp,
                   minimpi::detail::at(base,
                                       displs[static_cast<std::size_t>(br)]),
                   counts[static_cast<std::size_t>(br)]);
    const int tag = minimpi::detail::kTagHier + tag_base;
    int round = 0;
    for (int mask = 1; mask < bp; mask <<= 1, ++round) {
        const int cnt = std::min(mask, bp - mask);
        const int dst = (br - mask + bp) % bp;
        const int src = (br + mask) % bp;
        const std::size_t send_len = slot_off[static_cast<std::size_t>(cnt)];
        const std::size_t recv_off = slot_off[static_cast<std::size_t>(mask)];
        const std::size_t recv_len =
            slot_off[static_cast<std::size_t>(std::min(mask + cnt, bp))] -
            recv_off;
        minimpi::Request rr = minimpi::detail::irecv_bytes(
            bridge, minimpi::detail::at(tmp, recv_off), recv_len, src,
            tag + round, true);
        minimpi::detail::send_bytes(bridge, tmp, send_len, dst, tag + round,
                                    true);
        rr.wait();
    }
    // Un-rotate into the destination; our own block (i == 0) is already in
    // place.
    for (int i = 1; i < bp; ++i) {
        const int owner = (br + i) % bp;
        ctx.copy_bytes(
            minimpi::detail::at(base, displs[static_cast<std::size_t>(owner)]),
            minimpi::detail::at(tmp, slot_off[static_cast<std::size_t>(i)]),
            counts[static_cast<std::size_t>(owner)]);
    }
}

}  // namespace detail

}  // namespace hympi
