#include "minimpi/coll.h"
#include "minimpi/coll_internal.h"
#include "minimpi/error.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"

namespace minimpi {

namespace detail {

namespace {
bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }
}  // namespace

void allgather_recursive_doubling(const Comm& comm, const void* sendbuf,
                                  void* recvbuf, std::size_t bb) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();
    if (!is_pow2(p)) {
        throw ArgumentError("recursive doubling requires power-of-two ranks");
    }

    if (sendbuf != kInPlace) {
        ctx.copy_bytes(at(recvbuf, static_cast<std::size_t>(r) * bb), sendbuf,
                       bb);
    }
    int round = 0;
    for (int mask = 1; mask < p; mask <<= 1, ++round) {
        const int partner = r ^ mask;
        const int my_start = r & ~(mask - 1);
        const int partner_start = my_start ^ mask;
        Request rr = irecv_bytes(
            comm, at(recvbuf, static_cast<std::size_t>(partner_start) * bb),
            static_cast<std::size_t>(mask) * bb, partner,
            kTagAllgather + round, true);
        send_bytes(comm, at(recvbuf, static_cast<std::size_t>(my_start) * bb),
                   static_cast<std::size_t>(mask) * bb, partner,
                   kTagAllgather + round, true);
        rr.wait();
    }
}

void allgather_bruck(const Comm& comm, const void* sendbuf, void* recvbuf,
                     std::size_t bb) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();

    // Working buffer holds blocks in "rotated" order: block (r+i) mod p at
    // position i. Start with our own block at position 0.
    Scratch tmp_s(ctx, static_cast<std::size_t>(p) * bb);
    std::byte* tmp = tmp_s.data();
    const void* own =
        resolve_in_place(sendbuf, at(recvbuf, static_cast<std::size_t>(r) * bb));
    ctx.copy_bytes(tmp, own, bb);

    int round = 0;
    for (int mask = 1; mask < p; mask <<= 1, ++round) {
        const int cnt = std::min(mask, p - mask);
        const int dst = (r - mask + p) % p;
        const int src = (r + mask) % p;
        Request rr = irecv_bytes(
            comm, at(tmp, static_cast<std::size_t>(mask) * bb),
            static_cast<std::size_t>(cnt) * bb, src, kTagAllgather + round,
            true);
        send_bytes(comm, tmp, static_cast<std::size_t>(cnt) * bb, dst,
                   kTagAllgather + round, true);
        rr.wait();
    }

    // Un-rotate into rank order: tmp[i] is block (r+i) mod p.
    const std::size_t head = static_cast<std::size_t>(p - r) * bb;
    ctx.copy_bytes(at(recvbuf, static_cast<std::size_t>(r) * bb), tmp, head);
    ctx.copy_bytes(recvbuf, at(tmp, head), static_cast<std::size_t>(r) * bb);
}

void allgather_ring(const Comm& comm, const void* sendbuf, void* recvbuf,
                    std::size_t bb) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();

    if (sendbuf != kInPlace) {
        ctx.copy_bytes(at(recvbuf, static_cast<std::size_t>(r) * bb), sendbuf,
                       bb);
    }
    const int left = (r - 1 + p) % p;
    const int right = (r + 1) % p;
    // The block received in step k is the block sent in step k + 1, and
    // nothing writes it in between: forward its payload.
    Payload fwd;
    for (int k = 0; k < p - 1; ++k) {
        const int send_idx = (r - k + p) % p;
        const int recv_idx = (r - k - 1 + p) % p;
        Request rr = irecv_keep(
            comm, at(recvbuf, static_cast<std::size_t>(recv_idx) * bb), bb,
            left, kTagAllgather, true);
        send_payload(comm,
                     at(recvbuf, static_cast<std::size_t>(send_idx) * bb), bb,
                     right, kTagAllgather, true, fwd);
        rr.wait();
        fwd = rr.take_payload();
    }
}

void allgatherv_ring(const Comm& comm, const void* sendbuf,
                     std::size_t send_bytes_n, void* recvbuf,
                     std::span<const std::size_t> counts_bytes,
                     std::span<const std::size_t> displs_bytes) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();

    if (send_bytes_n != counts_bytes[static_cast<std::size_t>(r)]) {
        throw ArgumentError("allgatherv send size disagrees with counts[rank]");
    }
    if (sendbuf != kInPlace) {
        ctx.copy_bytes(at(recvbuf, displs_bytes[static_cast<std::size_t>(r)]),
                       sendbuf, send_bytes_n);
    }
    const int left = (r - 1 + p) % p;
    const int right = (r + 1) % p;
    const LinkParams& l = ctx.link_to(comm.to_world(right));
    // Production MPI_Allgatherv implementations are consistently less tuned
    // than MPI_Allgather (Traeff '09; paper Sect. 5.1.1 observes the gap in
    // Fig. 8). Model that as extra per-round software overhead.
    const VTime vec_penalty =
        (ctx.model->vector_coll_alpha_factor - 1.0) * l.alpha_us;

    // As in allgather_ring: step k + 1 forwards the block step k received.
    Payload fwd;
    for (int k = 0; k < p - 1; ++k) {
        const int send_idx = (r - k + p) % p;
        const int recv_idx = (r - k - 1 + p) % p;
        ctx.vck().advance(vec_penalty);
        Request rr = irecv_keep(
            comm, at(recvbuf, displs_bytes[static_cast<std::size_t>(recv_idx)]),
            counts_bytes[static_cast<std::size_t>(recv_idx)], left,
            kTagAllgatherv, true);
        send_payload(
            comm, at(recvbuf, displs_bytes[static_cast<std::size_t>(send_idx)]),
            counts_bytes[static_cast<std::size_t>(send_idx)], right,
            kTagAllgatherv, true, fwd);
        rr.wait();
        fwd = rr.take_payload();
    }
}

void allgatherv_bruck(const Comm& comm, const void* sendbuf,
                      std::size_t send_bytes_n, void* recvbuf,
                      std::span<const std::size_t> counts_bytes,
                      std::span<const std::size_t> displs_bytes) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();

    if (send_bytes_n != counts_bytes[static_cast<std::size_t>(r)]) {
        throw ArgumentError("allgatherv send size disagrees with counts[rank]");
    }

    // Rotated slot layout: slot i holds rank (r+i) mod p's block. All
    // counts are known at every rank (MPI requires it), so the slot
    // offsets are locally computable.
    std::vector<std::size_t> slot_off(static_cast<std::size_t>(p) + 1, 0);
    for (int i = 0; i < p; ++i) {
        slot_off[static_cast<std::size_t>(i) + 1] =
            slot_off[static_cast<std::size_t>(i)] +
            counts_bytes[static_cast<std::size_t>((r + i) % p)];
    }
    const std::size_t total = slot_off[static_cast<std::size_t>(p)];

    Scratch tmp_s(ctx, total);
    std::byte* tmp = tmp_s.data();
    const void* own = resolve_in_place(
        sendbuf, at(recvbuf, displs_bytes[static_cast<std::size_t>(r)]));
    ctx.copy_bytes(tmp, own, send_bytes_n);

    int round = 0;
    for (int mask = 1; mask < p; mask <<= 1, ++round) {
        const int cnt = std::min(mask, p - mask);
        const int dst = (r - mask + p) % p;
        const int src = (r + mask) % p;
        // The vector-collective tuning penalty, once per round.
        const VTime vec_penalty =
            (ctx.model->vector_coll_alpha_factor - 1.0) *
            ctx.link_to(comm.to_world(dst)).alpha_us;
        // I send my first `cnt` slots; the receiver appends them after its
        // first `mask` slots (its slot m+i is my slot i shifted by mask).
        const std::size_t send_len = slot_off[static_cast<std::size_t>(cnt)];
        const std::size_t recv_off = slot_off[static_cast<std::size_t>(mask)];
        const std::size_t recv_len =
            slot_off[static_cast<std::size_t>(std::min(mask + cnt, p))] -
            recv_off;
        ctx.vck().advance(vec_penalty);
        Request rr = irecv_bytes(comm, at(tmp, recv_off), recv_len, src,
                                 kTagAllgatherv + round, true);
        send_bytes(comm, tmp, send_len, dst, kTagAllgatherv + round, true);
        rr.wait();
    }

    // Un-rotate: slot i -> recvbuf + displs[(r+i) mod p].
    for (int i = 0; i < p; ++i) {
        const int owner = (r + i) % p;
        ctx.copy_bytes(
            at(recvbuf, displs_bytes[static_cast<std::size_t>(owner)]),
            at(tmp, slot_off[static_cast<std::size_t>(i)]),
            counts_bytes[static_cast<std::size_t>(owner)]);
    }
}

void allgatherv_auto(const Comm& comm, const void* sendbuf,
                     std::size_t send_bytes_n, void* recvbuf,
                     std::span<const std::size_t> counts_bytes,
                     std::span<const std::size_t> displs_bytes) {
    std::size_t total = 0;
    for (std::size_t c : counts_bytes) total += c;
    // Same selection path as allgather: the profile's decision table keyed
    // by total volume, falling back to the allgather threshold.
    bool ring = total > comm.ctx().model->allgather_long_threshold;
    if (auto c = tuned_choice(comm, tuning::Op::Allgatherv, total)) {
        ring = (c->algo == tuning::algo::kAgvRing);
    }
    TraceSpan span(comm.ctx(), hytrace::Phase::Coll, "allgatherv");
    span.set_coll("Allgatherv");
    span.set_algo(ring ? "ring" : "bruck");
    span.set_bytes(total);
    span.set_comm(comm.size(), comm.rank());
    if (ring) {
        allgatherv_ring(comm, sendbuf, send_bytes_n, recvbuf, counts_bytes,
                        displs_bytes);
    } else {
        allgatherv_bruck(comm, sendbuf, send_bytes_n, recvbuf, counts_bytes,
                         displs_bytes);
    }
}

namespace {

/// Flat allgather with the vendor profile's algorithm selection (decision
/// table, else the allgather_long_threshold).
void allgather_flat(const Comm& comm, const void* sendbuf, void* recvbuf,
                    std::size_t bb) {
    const int p = comm.size();
    RankCtx& ctx = comm.ctx();
    const std::size_t total = static_cast<std::size_t>(p) * bb;
    TraceSpan span(ctx, hytrace::Phase::Coll, "allgather_flat");
    span.set_coll("Allgather");
    span.set_bytes(total);
    span.set_comm(comm.size(), comm.rank());
    if (auto c = tuned_choice(comm, tuning::Op::Allgather, total)) {
        switch (c->algo) {
            case tuning::algo::kAgRing:
                span.set_algo("ring");
                allgather_ring(comm, sendbuf, recvbuf, bb);
                return;
            case tuning::algo::kAgBruck:
                span.set_algo("bruck");
                allgather_bruck(comm, sendbuf, recvbuf, bb);
                return;
            case tuning::algo::kAgRecDoubling:
            default:
                // Tables are swept at power-of-two and non-power-of-two
                // sizes, but lookup clamps between grid points: guard the
                // pow2-only algorithm with its nearest equivalent.
                if (is_pow2(p)) {
                    span.set_algo("recursive_doubling");
                    allgather_recursive_doubling(comm, sendbuf, recvbuf, bb);
                } else {
                    span.set_algo("bruck");
                    allgather_bruck(comm, sendbuf, recvbuf, bb);
                }
                return;
        }
    }
    if (total <= ctx.model->allgather_long_threshold) {
        if (is_pow2(p)) {
            span.set_algo("recursive_doubling");
            allgather_recursive_doubling(comm, sendbuf, recvbuf, bb);
        } else {
            span.set_algo("bruck");
            allgather_bruck(comm, sendbuf, recvbuf, bb);
        }
    } else {
        span.set_algo("ring");
        allgather_ring(comm, sendbuf, recvbuf, bb);
    }
}

}  // namespace

}  // namespace detail

void allgather(const Comm& comm, const void* sendbuf, std::size_t count,
               void* recvbuf, Datatype dt) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();
    const std::size_t bb = count * datatype_size(dt);

    if (p == 1) {
        if (sendbuf != kInPlace) ctx.copy_bytes(recvbuf, sendbuf, bb);
        return;
    }

    if (!(ctx.model->smp_aware && detail::smp_hier_applicable(comm))) {
        detail::allgather_flat(comm, sendbuf, recvbuf, bb);
        return;
    }

    // SMP-aware hierarchical allgather (paper Fig. 3a): aggregate each
    // node's blocks at its leader, exchange node blocks between leaders,
    // broadcast the full vector within each node. Node-major block order
    // equals comm-rank order only for "node-contiguous" communicators; the
    // general case ends with a local permutation pass (the datatype
    // pack/unpack cost of paper Sect. 6).
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "allgather");
    root_span.set_coll("Allgather");
    root_span.set_algo("smp_hierarchical");
    root_span.set_bytes(static_cast<std::uint64_t>(p) * bb);
    root_span.set_comm(p, r);
    const detail::HierHandles& h = detail::hier(comm);

    detail::Scratch full_s(
        ctx, h.identity_perm ? 0 : static_cast<std::size_t>(p) * bb);
    std::byte* full = h.identity_perm ? static_cast<std::byte*>(recvbuf)
                                      : full_s.data();

    const std::size_t node_off =
        static_cast<std::size_t>(
            h.node_offsets[static_cast<std::size_t>(h.my_node_index)]) *
        bb;

    // Phase 1: gather this node's blocks at the leader.
    const void* contrib = sendbuf;
    if (sendbuf == kInPlace) {
        contrib = detail::at(recvbuf, static_cast<std::size_t>(r) * bb);
    }
    {
        TraceSpan s(ctx, hytrace::Phase::Coll, "node_gather");
        // The gather lands node-local blocks at full + node_off (leader only).
        if (h.is_leader) {
            // In-place trick: our own block must end up at shm-rank offset
            // within the node block.
            detail::gather_binomial(h.shm, contrib, detail::at(full, node_off),
                                    bb, 0);
        } else {
            detail::gather_binomial(h.shm, contrib, nullptr, bb, 0);
        }
    }

    // Phase 2: leaders exchange node blocks (irregular: nodes may host
    // different member counts).
    if (h.is_leader) {
        TraceSpan s(ctx, hytrace::Phase::Bridge, "bridge_exchange");
        const int nnodes = static_cast<int>(h.node_sizes.size());
        std::vector<std::size_t> counts_b(static_cast<std::size_t>(nnodes));
        std::vector<std::size_t> displs_b(static_cast<std::size_t>(nnodes));
        for (int i = 0; i < nnodes; ++i) {
            counts_b[static_cast<std::size_t>(i)] =
                static_cast<std::size_t>(h.node_sizes[static_cast<std::size_t>(i)]) * bb;
            displs_b[static_cast<std::size_t>(i)] =
                static_cast<std::size_t>(h.node_offsets[static_cast<std::size_t>(i)]) * bb;
        }
        detail::allgatherv_auto(h.bridge, kInPlace,
                                counts_b[static_cast<std::size_t>(h.my_node_index)],
                                full, counts_b, displs_b);
    }

    // Phase 3: leader broadcasts the complete vector within the node.
    const std::size_t total = static_cast<std::size_t>(p) * bb;
    detail::bcast_auto(h.shm, full, total, 0);

    // Phase 4: permute node-major blocks into rank order if needed.
    if (!h.identity_perm) {
        TraceSpan s(ctx, hytrace::Phase::Copy, "repack_rank_order");
        s.set_bytes(static_cast<std::uint64_t>(p) * bb);
        for (int i = 0; i < p; ++i) {
            ctx.copy_bytes(
                detail::at(recvbuf,
                           static_cast<std::size_t>(h.perm[static_cast<std::size_t>(i)]) * bb),
                detail::at(full, static_cast<std::size_t>(i) * bb), bb);
        }
    }
}

void allgatherv(const Comm& comm, const void* sendbuf, std::size_t sendcount,
                void* recvbuf, std::span<const std::size_t> counts,
                std::span<const std::size_t> displs, Datatype dt) {
    const int p = comm.size();
    if (counts.size() != static_cast<std::size_t>(p) ||
        displs.size() != static_cast<std::size_t>(p)) {
        throw ArgumentError(
            "allgatherv counts/displs must have comm-size entries");
    }
    RankCtx& ctx = comm.ctx();
    const std::size_t ds = datatype_size(dt);
    if (p == 1) {
        if (sendbuf != kInPlace) {
            ctx.copy_bytes(detail::at(recvbuf, displs[0] * ds), sendbuf,
                           sendcount * ds);
        }
        return;
    }
    std::vector<std::size_t> counts_b(counts.size());
    std::vector<std::size_t> displs_b(displs.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        counts_b[i] = counts[i] * ds;
        displs_b[i] = displs[i] * ds;
    }

    if (!(ctx.model->smp_aware && detail::smp_hier_applicable(comm))) {
        // Flat allgatherv (Bruck for small totals, ring for large), less
        // tuned than allgather (vector penalty) — the weakness the paper's
        // hybrid approach sidesteps by only running it over the (small)
        // bridge communicator.
        detail::allgatherv_auto(comm, sendbuf, sendcount * ds, recvbuf,
                                counts_b, displs_b);
        return;
    }

    // SMP-aware hierarchical allgatherv (gatherv at the node leader, bridge
    // allgatherv of node blocks, on-node broadcast), still paying the
    // vector penalty on the bridge exchange.
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "allgatherv");
    root_span.set_coll("Allgatherv");
    root_span.set_algo("smp_hierarchical");
    root_span.set_comm(p, comm.rank());
    const detail::HierHandles& h = detail::hier(comm);
    const int nnodes = static_cast<int>(h.node_sizes.size());

    // Node-major slot layout.
    std::vector<std::size_t> slot_off(static_cast<std::size_t>(p) + 1, 0);
    for (int s = 0; s < p; ++s) {
        slot_off[static_cast<std::size_t>(s) + 1] =
            slot_off[static_cast<std::size_t>(s)] +
            counts_b[static_cast<std::size_t>(h.perm[static_cast<std::size_t>(s)])];
    }
    const std::size_t total = slot_off[static_cast<std::size_t>(p)];
    root_span.set_bytes(total);

    // Fast path: the user's displacements already equal the node-major
    // layout (the common prefix-sum displs under SMP placement).
    bool direct = h.identity_perm;
    if (direct) {
        for (int i = 0; i < p; ++i) {
            if (displs_b[static_cast<std::size_t>(i)] !=
                slot_off[static_cast<std::size_t>(i)]) {
                direct = false;
                break;
            }
        }
    }
    detail::Scratch full_s(ctx, direct ? 0 : total);
    std::byte* full =
        direct ? static_cast<std::byte*>(recvbuf) : full_s.data();

    const int r = comm.rank();
    const void* contrib = sendbuf;
    if (sendbuf == kInPlace) {
        contrib =
            detail::at(recvbuf, displs_b[static_cast<std::size_t>(r)]);
    }

    // Phase 1: gatherv this node's blocks at its leader.
    {
        const int shm_p = h.shm.size();
        const std::size_t node_base = slot_off[static_cast<std::size_t>(
            h.node_offsets[static_cast<std::size_t>(h.my_node_index)])];
        std::vector<std::size_t> c_shm(static_cast<std::size_t>(shm_p));
        std::vector<std::size_t> d_shm(static_cast<std::size_t>(shm_p));
        for (int i = 0; i < shm_p; ++i) {
            const int slot =
                h.node_offsets[static_cast<std::size_t>(h.my_node_index)] + i;
            c_shm[static_cast<std::size_t>(i)] =
                counts_b[static_cast<std::size_t>(
                    h.perm[static_cast<std::size_t>(slot)])];
            d_shm[static_cast<std::size_t>(i)] =
                slot_off[static_cast<std::size_t>(slot)] - node_base;
        }
        gatherv(h.shm, contrib, counts_b[static_cast<std::size_t>(r)],
                h.is_leader ? detail::at(full, node_base) : nullptr, c_shm,
                d_shm, Datatype::Byte, 0);
    }

    // Phase 2: leaders exchange node blocks (with the vector penalty).
    if (h.is_leader) {
        std::vector<std::size_t> c_node(static_cast<std::size_t>(nnodes));
        std::vector<std::size_t> d_node(static_cast<std::size_t>(nnodes));
        for (int n = 0; n < nnodes; ++n) {
            const std::size_t b0 = slot_off[static_cast<std::size_t>(
                h.node_offsets[static_cast<std::size_t>(n)])];
            const std::size_t b1 = slot_off[static_cast<std::size_t>(
                h.node_offsets[static_cast<std::size_t>(n)] +
                h.node_sizes[static_cast<std::size_t>(n)])];
            c_node[static_cast<std::size_t>(n)] = b1 - b0;
            d_node[static_cast<std::size_t>(n)] = b0;
        }
        detail::allgatherv_auto(
            h.bridge, kInPlace,
            c_node[static_cast<std::size_t>(h.my_node_index)], full, c_node,
            d_node);
    }

    // Phase 3: leader broadcasts the complete vector within the node.
    detail::bcast_auto(h.shm, full, total, 0);

    // Phase 4: place blocks at the user's displacements if they differ.
    if (!direct) {
        for (int s = 0; s < p; ++s) {
            const int owner = h.perm[static_cast<std::size_t>(s)];
            ctx.copy_bytes(
                detail::at(recvbuf, displs_b[static_cast<std::size_t>(owner)]),
                detail::at(full, slot_off[static_cast<std::size_t>(s)]),
                counts_b[static_cast<std::size_t>(owner)]);
        }
    }
}

}  // namespace minimpi
