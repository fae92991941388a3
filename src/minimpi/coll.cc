#include "minimpi/coll.h"

#include <cmath>
#include <cstring>

#include "minimpi/coll_internal.h"
#include "minimpi/error.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"

namespace minimpi {

namespace detail {

namespace {

/// Element i of a T array that may start at any byte offset: CollBatcher's
/// fused window packs operands back to back, so `in` need not be aligned.
template <typename T>
class UnalignedArray {
public:
    explicit UnalignedArray(const void* p)
        : p_(static_cast<const unsigned char*>(p)) {}
    T operator[](std::size_t i) const {
        T v;
        std::memcpy(&v, p_ + i * sizeof(T), sizeof(T));
        return v;
    }

private:
    const unsigned char* p_;
};

template <typename T>
void apply_arith(Op op, void* inout, const void* in, std::size_t count) {
    T* a = static_cast<T*>(inout);
    const UnalignedArray<T> b(in);
    switch (op) {
        case Op::Sum:
            for (std::size_t i = 0; i < count; ++i) a[i] = a[i] + b[i];
            return;
        case Op::Prod:
            for (std::size_t i = 0; i < count; ++i) a[i] = a[i] * b[i];
            return;
        case Op::Max:
            for (std::size_t i = 0; i < count; ++i) a[i] = std::max(a[i], b[i]);
            return;
        case Op::Min:
            for (std::size_t i = 0; i < count; ++i) a[i] = std::min(a[i], b[i]);
            return;
        default:
            break;
    }
    if constexpr (std::is_integral_v<T>) {
        switch (op) {
            case Op::LogicalAnd:
                for (std::size_t i = 0; i < count; ++i) a[i] = (a[i] && b[i]);
                return;
            case Op::LogicalOr:
                for (std::size_t i = 0; i < count; ++i) a[i] = (a[i] || b[i]);
                return;
            case Op::BitAnd:
                for (std::size_t i = 0; i < count; ++i) a[i] = a[i] & b[i];
                return;
            case Op::BitOr:
                for (std::size_t i = 0; i < count; ++i) a[i] = a[i] | b[i];
                return;
            default:
                break;
        }
    }
    throw ArgumentError("reduction op not defined for this datatype");
}

}  // namespace

void apply_op(RankCtx& ctx, Op op, Datatype dt, void* inout, const void* in,
              std::size_t count) {
    if (count == 0) return;
    ctx.charge_flops(static_cast<double>(count));
    if (ctx.payload_mode != PayloadMode::Real || inout == nullptr ||
        in == nullptr) {
        return;
    }
    switch (dt) {
        case Datatype::Byte:
            apply_arith<unsigned char>(op, inout, in, count);
            return;
        case Datatype::Char:
            apply_arith<char>(op, inout, in, count);
            return;
        case Datatype::Int32:
            apply_arith<std::int32_t>(op, inout, in, count);
            return;
        case Datatype::Int64:
            apply_arith<std::int64_t>(op, inout, in, count);
            return;
        case Datatype::UInt64:
            apply_arith<std::uint64_t>(op, inout, in, count);
            return;
        case Datatype::Float: {
            if (op == Op::LogicalAnd || op == Op::LogicalOr ||
                op == Op::BitAnd || op == Op::BitOr) {
                throw ArgumentError("bit/logical op on floating-point data");
            }
            apply_arith<float>(op, inout, in, count);
            return;
        }
        case Datatype::Double: {
            if (op == Op::LogicalAnd || op == Op::LogicalOr ||
                op == Op::BitAnd || op == Op::BitOr) {
                throw ArgumentError("bit/logical op on floating-point data");
            }
            apply_arith<double>(op, inout, in, count);
            return;
        }
    }
}

void barrier_dissemination(const Comm& comm) {
    const int p = comm.size();
    int round = 0;
    for (int mask = 1; mask < p; mask <<= 1, ++round) {
        const int dst = (comm.rank() + mask) % p;
        const int src = (comm.rank() - mask % p + p) % p;
        Request rr =
            irecv_bytes(comm, nullptr, 0, src, kTagBarrier + round, true);
        send_bytes(comm, nullptr, 0, dst, kTagBarrier + round, true);
        rr.wait();
    }
}

void barrier_shm_tuned(const Comm& comm) {
    const int p = comm.size();
    RankCtx& ctx = comm.ctx();
    TraceSpan span(ctx, hytrace::Phase::Sync, "barrier");
    span.set_coll("Barrier");
    span.set_algo("shm_counter");
    span.set_comm(p, comm.rank());
    if (p == 1) {
        ctx.vck().advance(ctx.model->shm_barrier_base_us);
        return;
    }
    const VTime cost =
        ctx.model->shm_barrier_base_us +
        ctx.model->shm_barrier_hop_us * std::log2(static_cast<double>(p));
    // A counter barrier is a clock-max rendezvous plus the flag round cost.
    struct Empty {};
    rendezvous<Empty>(comm.state(), ctx, comm.rank(), cost, [](Empty&) {},
                      [](Empty&) {});
}

void bcast_binomial(const Comm& comm, void* buf, std::size_t bytes, int root) {
    const int p = comm.size();
    if (p == 1) return;
    const int vrank = (comm.rank() - root + p) % p;

    // Every child gets one payload: the one this rank received, or the
    // root's single copy of buf. Nothing writes buf between the receive and
    // the sends, so it holds exactly those bytes.
    Payload payload;
    int mask = 1;
    while (mask < p) {
        if (vrank & mask) {
            const int src = (vrank - mask + root) % p;
            Request rr = irecv_keep(comm, buf, bytes, src, kTagBcast, true);
            rr.wait();
            payload = rr.take_payload();
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (vrank + mask < p) {
            const int dst = (vrank + mask + root) % p;
            send_payload(comm, buf, bytes, dst, kTagBcast, true, payload);
        }
        mask >>= 1;
    }
}

void bcast_pipelined_chain(const Comm& comm, void* buf, std::size_t bytes,
                           int root, std::size_t segment_bytes) {
    // Default: 8 KiB segments, but never more than 64 of them: past that
    // depth the pipeline is saturated and extra segments only add
    // per-message cost. A tuned segment size still honors the depth cap.
    constexpr std::size_t kSegmentMin = 8 * 1024;
    constexpr std::size_t kMaxSegments = 64;
    const std::size_t depth_floor = (bytes + kMaxSegments - 1) / kMaxSegments;
    const std::size_t kSegment =
        segment_bytes > 0 ? std::max(segment_bytes, depth_floor)
                          : std::max(kSegmentMin, depth_floor);
    const int p = comm.size();
    if (p == 1) return;
    const int vrank = (comm.rank() - root + p) % p;
    const int prev = (vrank == 0) ? kProcNull : (vrank - 1 + root) % p;
    const int next = (vrank == p - 1) ? kProcNull : (vrank + 1 + root) % p;

    const std::size_t nseg = (bytes + kSegment - 1) / kSegment;
    for (std::size_t s = 0; s < std::max<std::size_t>(nseg, 1); ++s) {
        const std::size_t off = s * kSegment;
        const std::size_t len = std::min(kSegment, bytes - off);
        // A middle rank forwards the segment it just received: nothing
        // writes it in between.
        Payload seg;
        if (prev != kProcNull) {
            Request rr =
                irecv_keep(comm, at(buf, off), len, prev, kTagBcast, true);
            rr.wait();
            seg = rr.take_payload();
        }
        if (next != kProcNull) {
            send_payload(comm, at(buf, off), len, next, kTagBcast, true, seg);
        }
    }
}

void gather_binomial(const Comm& comm, const void* sendbuf, void* recvbuf,
                     std::size_t bb, int root) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();

    if (p == 1) {
        if (sendbuf != kInPlace) ctx.copy_bytes(recvbuf, sendbuf, bb);
        return;
    }
    const int vrank = (r - root + p) % p;

    // Span (in blocks) of the subtree this rank aggregates before sending
    // (the whole communicator for the root).
    int send_mask = 1;
    while (send_mask < p && !(vrank & send_mask)) send_mask <<= 1;
    const int span = (vrank == 0)
                         ? p
                         : std::min(send_mask, p - vrank);

    // Aggregation buffer: vrank-major blocks [vrank, vrank+span).
    // Root 0 aggregates straight into recvbuf (vrank order == rank order).
    Scratch scratch(ctx, (vrank == 0 && root == 0) || span == 1
                             ? 0
                             : static_cast<std::size_t>(span) * bb);
    std::byte* agg = nullptr;
    if (vrank == 0 && root == 0) {
        agg = static_cast<std::byte*>(recvbuf);
    } else if (span > 1) {
        agg = scratch.data();
    }

    const void* own =
        resolve_in_place(sendbuf, at(recvbuf, static_cast<std::size_t>(r) * bb));
    if (agg != nullptr || ctx.payload_mode == PayloadMode::SizeOnly) {
        if (span > 1 || vrank == 0) {
            // Place own block at the front of the aggregation buffer.
            std::byte* own_dst = at(agg, (vrank == 0 && root == 0)
                                             ? static_cast<std::size_t>(r) * bb
                                             : 0);
            if (!(vrank == 0 && root == 0 && sendbuf == kInPlace)) {
                ctx.copy_bytes(own_dst, own, bb);
            }
        }
    }

    int mask = 1;
    while (mask < p) {
        if (vrank & mask) {
            const int dst = (vrank - mask + root) % p;
            const void* src_ptr = (span == 1) ? own : agg;
            send_bytes(comm, src_ptr, static_cast<std::size_t>(span) * bb, dst,
                       kTagGather, true);
            break;
        }
        const int src_v = vrank + mask;
        if (src_v < p) {
            const int cnt = std::min(mask, p - src_v);
            std::size_t off = static_cast<std::size_t>(src_v - vrank) * bb;
            if (vrank == 0 && root == 0) {
                off = static_cast<std::size_t>(src_v) * bb;  // == rank offset
            }
            const int src = (src_v + root) % p;
            recv_bytes(comm, at(agg, off), static_cast<std::size_t>(cnt) * bb,
                       src, kTagGather, true);
        }
        mask <<= 1;
    }

    if (vrank == 0 && root != 0) {
        // Un-rotate vrank-major blocks into rank order: two contiguous chunks.
        const std::size_t head = static_cast<std::size_t>(p - root) * bb;
        ctx.copy_bytes(at(recvbuf, static_cast<std::size_t>(root) * bb), agg,
                       head);
        ctx.copy_bytes(recvbuf, at(agg, head),
                       static_cast<std::size_t>(root) * bb);
    }
}

void scatter_binomial(const Comm& comm, const void* sendbuf, void* recvbuf,
                      std::size_t bb, int root) {
    const int p = comm.size();
    const int r = comm.rank();
    RankCtx& ctx = comm.ctx();

    if (p == 1) {
        ctx.copy_bytes(recvbuf, sendbuf, bb);
        return;
    }
    const int vrank = (r - root + p) % p;

    int span;          // blocks this rank handles (own + descendants)
    int mask;          // first mask of the send loop
    std::byte* buf;    // vrank-major staging buffer, own block at offset 0
    Scratch scratch(ctx, 0);

    if (vrank == 0) {
        span = p;
        mask = 1;
        while (mask < p) mask <<= 1;
        mask >>= 1;
        if (root == 0) {
            // vrank order == rank order: stage directly from sendbuf.
            buf = const_cast<std::byte*>(static_cast<const std::byte*>(sendbuf));
        } else {
            scratch = Scratch(ctx, static_cast<std::size_t>(p) * bb);
            buf = scratch.data();
            // Rotate rank-major sendbuf into vrank order (two chunks).
            const std::size_t head = static_cast<std::size_t>(p - root) * bb;
            ctx.copy_bytes(buf, at(sendbuf, static_cast<std::size_t>(root) * bb),
                           head);
            ctx.copy_bytes(at(buf, head), sendbuf,
                           static_cast<std::size_t>(root) * bb);
        }
    } else {
        int lowbit = 1;
        while (!(vrank & lowbit)) lowbit <<= 1;
        span = std::min(lowbit, p - vrank);
        const int parent = (vrank - lowbit + root) % p;
        if (span == 1) {
            buf = static_cast<std::byte*>(recvbuf);
        } else {
            scratch = Scratch(ctx, static_cast<std::size_t>(span) * bb);
            buf = scratch.data();
        }
        recv_bytes(comm, buf, static_cast<std::size_t>(span) * bb, parent,
                   kTagScatter, true);
        mask = lowbit >> 1;
    }

    while (mask > 0) {
        const int child_v = vrank + mask;
        if (child_v < p) {
            const int cnt = std::min(mask, p - child_v);
            send_bytes(comm, at(buf, static_cast<std::size_t>(mask) * bb),
                       static_cast<std::size_t>(cnt) * bb,
                       (child_v + root) % p, kTagScatter, true);
        }
        mask >>= 1;
    }

    if (span > 1 || vrank == 0) {
        const std::size_t own_off =
            (vrank == 0 && root == 0) ? static_cast<std::size_t>(r) * bb : 0;
        ctx.copy_bytes(recvbuf, at(buf, own_off), bb);
    }
}

}  // namespace detail

namespace {

/// True when every member of @p comm lives on one node.
bool single_node_comm(const Comm& comm) {
    const int node0 = comm.node_of(0);
    for (int r = 1; r < comm.size(); ++r) {
        if (comm.node_of(r) != node0) return false;
    }
    return true;
}

}  // namespace

void barrier(const Comm& comm) {
    RankCtx& ctx = comm.ctx();
    if (ctx.model->smp_aware && single_node_comm(comm)) {
        detail::barrier_shm_tuned(comm);
        return;
    }
    if (!(ctx.model->smp_aware && detail::smp_hier_applicable(comm))) {
        detail::barrier_auto(comm);
        return;
    }
    const detail::HierHandles* h = &detail::hier(comm);
    // On-node check-in, leaders synchronize across nodes, on-node release.
    detail::barrier_shm_tuned(h->shm);
    if (h->is_leader) detail::barrier_auto(h->bridge);
    detail::barrier_shm_tuned(h->shm);
}

void gather(const Comm& comm, const void* sendbuf, std::size_t count,
            void* recvbuf, Datatype dt, int root) {
    if (root < 0 || root >= comm.size()) {
        throw ArgumentError("gather root out of range");
    }
    detail::gather_binomial(comm, sendbuf, recvbuf, count * datatype_size(dt),
                            root);
}

void scatter(const Comm& comm, const void* sendbuf, std::size_t count,
             void* recvbuf, Datatype dt, int root) {
    if (root < 0 || root >= comm.size()) {
        throw ArgumentError("scatter root out of range");
    }
    detail::scatter_binomial(comm, sendbuf, recvbuf, count * datatype_size(dt),
                             root);
}

void gatherv(const Comm& comm, const void* sendbuf, std::size_t sendcount,
             void* recvbuf, std::span<const std::size_t> counts,
             std::span<const std::size_t> displs, Datatype dt, int root) {
    const int p = comm.size();
    if (root < 0 || root >= p) throw ArgumentError("gatherv root out of range");
    if (counts.size() != static_cast<std::size_t>(p) ||
        displs.size() != static_cast<std::size_t>(p)) {
        throw ArgumentError("gatherv counts/displs must have comm-size entries");
    }
    RankCtx& ctx = comm.ctx();
    const std::size_t ds = datatype_size(dt);

    if (comm.rank() == root) {
        std::vector<Request> reqs;
        reqs.reserve(static_cast<std::size_t>(p) - 1);
        for (int i = 0; i < p; ++i) {
            if (i == root) continue;
            reqs.push_back(detail::irecv_bytes(
                comm, detail::at(recvbuf, displs[static_cast<std::size_t>(i)] * ds),
                counts[static_cast<std::size_t>(i)] * ds, i, detail::kTagGatherv,
                true));
        }
        if (sendbuf != kInPlace) {
            ctx.copy_bytes(
                detail::at(recvbuf, displs[static_cast<std::size_t>(root)] * ds),
                sendbuf, sendcount * ds);
        }
        wait_all(reqs);
    } else {
        detail::send_bytes(comm, sendbuf, sendcount * ds, root,
                           detail::kTagGatherv, true);
    }
}

void scatterv(const Comm& comm, const void* sendbuf,
              std::span<const std::size_t> counts,
              std::span<const std::size_t> displs, void* recvbuf,
              std::size_t recvcount, Datatype dt, int root) {
    const int p = comm.size();
    if (root < 0 || root >= p) throw ArgumentError("scatterv root out of range");
    RankCtx& ctx = comm.ctx();
    const std::size_t ds = datatype_size(dt);
    if (comm.rank() == root) {
        if (counts.size() != static_cast<std::size_t>(p) ||
            displs.size() != static_cast<std::size_t>(p)) {
            throw ArgumentError(
                "scatterv counts/displs must have comm-size entries");
        }
        for (int i = 0; i < p; ++i) {
            if (i == root) continue;
            detail::send_bytes(
                comm, detail::at(sendbuf, displs[static_cast<std::size_t>(i)] * ds),
                counts[static_cast<std::size_t>(i)] * ds, i, detail::kTagScatter,
                true);
        }
        if (recvbuf != nullptr || ctx.payload_mode == PayloadMode::SizeOnly) {
            ctx.copy_bytes(
                recvbuf,
                detail::at(sendbuf, displs[static_cast<std::size_t>(root)] * ds),
                counts[static_cast<std::size_t>(root)] * ds);
        }
    } else {
        detail::recv_bytes(comm, recvbuf, recvcount * ds, root,
                           detail::kTagScatter, true);
    }
}

void bcast(const Comm& comm, void* buf, std::size_t count, Datatype dt,
           int root) {
    const int p = comm.size();
    if (root < 0 || root >= p) throw ArgumentError("bcast root out of range");
    const std::size_t bytes = count * datatype_size(dt);
    RankCtx& ctx = comm.ctx();

    const detail::HierHandles* h = nullptr;
    if (ctx.model->smp_aware && detail::smp_hier_applicable(comm)) {
        h = &detail::hier(comm);
    }

    if (h == nullptr) {
        detail::bcast_auto(comm, buf, bytes, root);
        return;
    }

    // SMP-aware: root hands off to its node leader, leaders broadcast over
    // the bridge, each leader broadcasts within its node.
    const int root_node = h->node_index_of[static_cast<std::size_t>(root)];
    const int root_leader = h->node_leader[static_cast<std::size_t>(root_node)];
    if (root != root_leader) {
        if (comm.rank() == root) {
            detail::send_bytes(comm, buf, bytes, root_leader,
                               detail::kTagHier, true);
        } else if (comm.rank() == root_leader) {
            detail::recv_bytes(comm, buf, bytes, root, detail::kTagHier, true);
        }
    }
    if (h->is_leader) {
        detail::bcast_auto(h->bridge, buf, bytes, root_node);
    }
    detail::bcast_auto(h->shm, buf, bytes, 0);
}

}  // namespace minimpi
