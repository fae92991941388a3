#include "minimpi/p2p.h"

#include <algorithm>

#include "minimpi/error.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"

namespace minimpi {

namespace {

void validate_rank(const Comm& comm, int rank, bool allow_wildcards,
                   const char* what) {
    if (rank == kProcNull) return;
    if (allow_wildcards && rank == kAnySource) return;
    if (rank < 0 || rank >= comm.size()) {
        throw ArgumentError(std::string(what) + " rank " +
                            std::to_string(rank) + " out of range for size " +
                            std::to_string(comm.size()));
    }
}

void validate_tag(int tag, bool allow_any) {
    if (allow_any && tag == kAnyTag) return;
    if (tag < 0 || tag >= kTagUpperBound) {
        throw ArgumentError("tag " + std::to_string(tag) + " out of range");
    }
}

void validate_buffer(const Comm& comm, const void* buf, std::size_t bytes) {
    if (bytes > 0 && buf == nullptr &&
        comm.ctx().payload_mode == PayloadMode::Real) {
        throw ArgumentError("null buffer with nonzero count in Real payload mode");
    }
}

/// Kill checkpoint + ULFM entry check of every user send and receive.
/// Using a revoked comm fails immediately; a dead MEMBER does not block
/// point-to-point between live peers (matching ULFM: only operations
/// involving the failed process raise an error). Both checks are single
/// relaxed/acquire loads on fault-free runs.
void check_open(const Comm& comm, const char* op) {
    detail::check_alive(comm.ctx());
    if (comm.state().revoked.load(std::memory_order_acquire)) {
        throw CommRevokedError();
    }
    if (comm.state().freed.load(std::memory_order_acquire)) {
        throw CommError(std::string(op) + " on a freed communicator");
    }
}

/// Matching context of user (p2p) or collective traffic on @p comm; an
/// engine task's private context overrides the collective one.
std::uint64_t match_ctx(const Comm& comm, bool coll_ctx) {
    if (!coll_ctx) return comm.state().ctx_p2p;
    const std::uint64_t over = comm.ctx().coll_ctx_override;
    return over != 0 ? over : comm.state().ctx_coll;
}

/// The one send core: every point-to-point message is stamped, counted and
/// delivered here. The caller fills the envelope (@p msg's ctx, tag, bytes
/// and robust_frame fields); this pays the send overhead, records the
/// optional p2p span (named @p span), updates CommStats,
/// queues the bytes on the link and hands the message to the transport.
///
/// The payload is a copy of the @p bytes at @p buf, unless @p fwd is given:
/// a set *@p fwd is sent as it is (it holds those bytes, see
/// detail::send_payload), and an empty one receives the copy made here so
/// the caller's next send of the same bytes can reuse it. No charge depends
/// on which way the bytes came.
///
/// Clock invariant: all traffic charges vck() and queues on cur_busy.
/// Frames (detail::send_frame) are only ever sent in owner context — robust
/// rounds complete at post (HybridRound::start), so no frame is sent under
/// an engine task — where vck() is ctx.clock and cur_busy points at
/// ctx.link_busy_until, the objects the frame protocol reads directly.
void post_send(RankCtx& ctx, int dst_world, const void* buf, InMsg msg,
               const char* span, Payload* fwd = nullptr) {
    const LinkParams& link = ctx.link_to(dst_world);
    const bool same_node = ctx.cluster->same_node(ctx.world_rank, dst_world);
    const std::size_t bytes = msg.bytes;

    const VTime t_send0 = ctx.vck().now();
    ctx.vck().advance(link.overhead_us);
    if (trace_p2p(ctx)) {
        hytrace::Span* s =
            trace_complete(ctx, hytrace::Phase::P2P, span, t_send0);
        s->peer = dst_world;
        s->bytes = bytes;
    }
    ctx.stats.msgs_sent += 1;
    ctx.stats.bytes_sent += bytes;
    if (same_node) {
        ctx.stats.intra_node_msgs += 1;
        if (!ctx.cluster->same_socket(ctx.world_rank, dst_world)) {
            ctx.stats.xsocket_bytes += bytes;
            HYTRACE_COUNTER(ctx, xsocket_bytes, bytes);
        }
    } else {
        ctx.stats.inter_node_msgs += 1;
    }

    // Bandwidth serialization: this message's bytes occupy the link after
    // any still-draining earlier message to the same destination.
    const VTime transfer = static_cast<VTime>(bytes) * link.beta_us_per_byte;
    const bool side_band = msg.ctx < kFirstUserCtx;
    VTime start = ctx.vck().now();
    if (side_band) {
        // Reserved contexts model a dedicated control side band: they
        // neither queue behind nor occupy the data link. Sharing the link
        // with data frames would couple the two directions of the robust
        // serve loop through a wall-clock-ordered max, breaking clock
        // determinism when a transfer's ctrl peer and data peer are the
        // same rank.
    } else if (ctx.tenant != nullptr && !same_node && !msg.robust_frame) {
        // Multi-tenant run (ctx.tenant installed by src/service): inter-node
        // traffic serializes through the rank's single NIC injection port
        // via the QoS arbiter, which may discount queueing behind another
        // tenant's backlog and attributes the bytes per tenant. max(): a
        // weighted-QoS send may inject while the port still drains another
        // tenant's backlog, but it must never ERASE that backlog — total
        // occupancy always grows by the full transfer time.
        start = detail::tenant_bridge_start(*ctx.tenant, start, bytes);
        ctx.tenant->nic_busy = std::max(ctx.tenant->nic_busy, start) + transfer;
    } else {
        VTime& busy = (*ctx.cur_busy)[dst_world];
        start = std::max(start, busy);
        busy = start + transfer;
    }

    msg.src_global = ctx.world_rank;
    if (fwd != nullptr && *fwd) {
        msg.payload = *fwd;
    } else {
        msg.payload = ctx.runtime->transport().make_payload(buf, bytes);
        if (fwd != nullptr) *fwd = msg.payload;
    }
    msg.arrival = start + transfer + link.alpha_us;
    msg.recv_overhead = link.overhead_us;
    // The side band is fault-exempt and must not consume from the
    // per-destination faultable stream either: ctrl frames are emitted
    // from the full-duplex serve loop, whose order relative to data
    // retransmissions to the SAME peer is a wall-clock race. Letting them
    // advance the counter would make the data frames' fault_seq — and so
    // the injected fault pattern — nondeterministic.
    msg.fault_seq = side_band ? 0 : ctx.fault_seq[dst_world]++;
    ctx.runtime->transport().deliver(dst_world, std::move(msg));
}

/// The one receive charge of a completed receive: adopt the modelled
/// arrival, pay the receive overhead, record the optional p2p span and
/// count the message. Callers handle the outcome (truncation, drop).
void charge_recv(RankCtx& ctx, const PostedRecv& pr, const char* span) {
    const VTime t_recv0 = ctx.vck().now();
    ctx.vck().sync_to(pr.arrival);
    ctx.vck().advance(pr.recv_overhead);
    if (trace_p2p(ctx)) {
        hytrace::Span* s =
            trace_complete(ctx, hytrace::Phase::P2P, span, t_recv0);
        s->peer = pr.matched_src;
        s->bytes = pr.msg_bytes;
    }
    ctx.stats.msgs_received += 1;
    ctx.stats.bytes_received += pr.msg_bytes;
}

/// send_bytes and send_payload: a send on @p comm's user or collective
/// context, after the open-comm checks.
void send_checked(const Comm& comm, const void* buf, std::size_t bytes,
                  int dest, int tag, bool coll_ctx, Payload* fwd) {
    if (dest == kProcNull) return;
    check_open(comm, "send");
    InMsg msg;
    msg.ctx = match_ctx(comm, coll_ctx);
    msg.tag = tag;
    msg.bytes = bytes;
    post_send(comm.ctx(), comm.to_world(dest), buf, std::move(msg), "send",
              fwd);
}

}  // namespace

namespace detail {

VTime tenant_bridge_start(TenantState& ts, VTime now, std::size_t bytes) {
    if (ts.tenant >= 0 &&
        static_cast<std::size_t>(ts.tenant) < ts.bridge_bytes.size()) {
        ts.bridge_bytes[static_cast<std::size_t>(ts.tenant)] += bytes;
        ts.bridge_msgs[static_cast<std::size_t>(ts.tenant)] += 1;
    }
    VTime wait = ts.nic_busy - now;
    if (wait <= 0.0) {
        // Idle port: nothing to arbitrate; this tenant becomes the backlog
        // owner for whoever queues behind this message.
        ts.nic_owner = ts.tenant;
        return now;
    }
    if (ts.policy == QosPolicy::WeightedShares && ts.nic_owner != ts.tenant &&
        ts.total_weight > 0.0) {
        // Weighted shares: grant this tenant its share of the port while
        // the other tenant's backlog drains, so only the remaining fraction
        // of the queueing delay is observed. Self-owned backlog keeps the
        // full FIFO wait — a tenant cannot preempt its own queue.
        wait *= 1.0 - ts.weight / ts.total_weight;
    }
    ts.nic_owner = ts.tenant;
    return now + wait;
}

void send_bytes(const Comm& comm, const void* buf, std::size_t bytes, int dest,
                int tag, bool coll_ctx) {
    send_checked(comm, buf, bytes, dest, tag, coll_ctx, nullptr);
}

void send_payload(const Comm& comm, const void* buf, std::size_t bytes,
                  int dest, int tag, bool coll_ctx, Payload& payload) {
    send_checked(comm, buf, bytes, dest, tag, coll_ctx, &payload);
}

Request irecv_bytes(const Comm& comm, void* buf, std::size_t bytes, int source,
                    int tag, bool coll_ctx) {
    check_open(comm, "receive");
    return irecv_bytes_ctx(comm, buf, bytes, source, tag,
                           match_ctx(comm, coll_ctx));
}

Request irecv_keep(const Comm& comm, void* buf, std::size_t bytes, int source,
                   int tag, bool coll_ctx) {
    check_open(comm, "receive");
    return irecv_bytes_ctx(comm, buf, bytes, source, tag,
                           match_ctx(comm, coll_ctx), true);
}

Request irecv_bytes_ctx(const Comm& comm, void* buf, std::size_t bytes,
                        int source, int tag, std::uint64_t ctx_id, bool keep) {
    auto posted = std::make_unique<PostedRecv>();
    post_frame_recv(comm, posted.get(), buf, bytes, source, tag, ctx_id, keep);
    return Request::make_recv(comm, std::move(posted));
}

Status recv_bytes(const Comm& comm, void* buf, std::size_t bytes, int source,
                  int tag, bool coll_ctx) {
    if (source == kProcNull) return Status{kProcNull, tag, 0};
    return irecv_bytes(comm, buf, bytes, source, tag, coll_ctx).wait();
}

Request isend_bytes(const Comm& comm, const void* buf, std::size_t bytes,
                    int dest, int tag, bool coll_ctx) {
    send_bytes(comm, buf, bytes, dest, tag, coll_ctx);
    return Request::make_send(comm);
}

void send_frame(const Comm& comm, const void* buf, std::size_t bytes, int dest,
                int tag, std::uint64_t ctx_id, bool robust_frame) {
    if (dest == kProcNull) return;
    // Kill checkpoint only — no revoked-comm check: frames carry the robust
    // ARQ, including the recovery confirmation leg, which must keep flowing
    // on comms adjacent to a revocation.
    check_alive(comm.ctx());
    InMsg msg;
    msg.ctx = ctx_id;
    msg.tag = tag;
    msg.bytes = bytes;
    msg.robust_frame = robust_frame;
    post_send(comm.ctx(), comm.to_world(dest), buf, std::move(msg),
              "send_frame");
}

void post_frame_recv(const Comm& comm, PostedRecv* pr, void* buf,
                     std::size_t bytes, int source, int tag,
                     std::uint64_t ctx_id, bool keep) {
    RankCtx& ctx = comm.ctx();
    check_alive(ctx);
    *pr = PostedRecv{};
    pr->ctx = ctx_id;
    pr->src_global =
        (source == kAnySource) ? kAnySource : comm.to_world(source);
    pr->tag = tag;
    pr->buf = buf;
    pr->capacity = bytes;
    pr->keep = keep;
    ctx.runtime->transport().post_recv(ctx.world_rank, pr);
}

FrameRecvResult finish_frame_recv(const Comm& comm, PostedRecv& pr) {
    charge_recv(comm.ctx(), pr, "recv_frame");
    FrameRecvResult res;
    res.bytes = pr.msg_bytes;
    res.src = comm.from_world(pr.matched_src);
    res.tag = pr.matched_tag;
    res.dropped = pr.dropped;
    return res;
}

}  // namespace detail

void send(const Comm& comm, const void* buf, std::size_t count, Datatype dt,
          int dest, int tag) {
    validate_rank(comm, dest, false, "destination");
    validate_tag(tag, false);
    const std::size_t bytes = count * datatype_size(dt);
    validate_buffer(comm, buf, bytes);
    detail::send_bytes(comm, buf, bytes, dest, tag, false);
}

Status recv(const Comm& comm, void* buf, std::size_t count, Datatype dt,
            int source, int tag) {
    validate_rank(comm, source, true, "source");
    validate_tag(tag, true);
    const std::size_t bytes = count * datatype_size(dt);
    validate_buffer(comm, buf, bytes);
    return detail::recv_bytes(comm, buf, bytes, source, tag, false);
}

Request isend(const Comm& comm, const void* buf, std::size_t count,
              Datatype dt, int dest, int tag) {
    validate_rank(comm, dest, false, "destination");
    validate_tag(tag, false);
    const std::size_t bytes = count * datatype_size(dt);
    validate_buffer(comm, buf, bytes);
    if (dest == kProcNull) return Request::make_send(comm);
    return detail::isend_bytes(comm, buf, bytes, dest, tag, false);
}

Request irecv(const Comm& comm, void* buf, std::size_t count, Datatype dt,
              int source, int tag) {
    validate_rank(comm, source, true, "source");
    validate_tag(tag, true);
    const std::size_t bytes = count * datatype_size(dt);
    validate_buffer(comm, buf, bytes);
    return detail::irecv_bytes(comm, buf, bytes, source, tag, false);
}

bool iprobe(const Comm& comm, int source, int tag, Status* out) {
    validate_rank(comm, source, true, "source");
    validate_tag(tag, true);
    RankCtx& ctx = comm.ctx();
    const int src_world =
        (source == kAnySource) ? kAnySource : comm.to_world(source);
    Status st;
    const bool found = ctx.runtime->transport().iprobe(
        ctx.world_rank, comm.state().ctx_p2p, src_world, tag, &st);
    if (found && out) {
        st.source = comm.from_world(st.source);
        *out = st;
    }
    if (!found) detail::yield_fiber();  // a polling loop must let peers run
    return found;
}

void probe(const Comm& comm, int source, int tag, Status* out) {
    validate_rank(comm, source, true, "source");
    validate_tag(tag, true);
    RankCtx& ctx = comm.ctx();
    const int src_world =
        (source == kAnySource) ? kAnySource : comm.to_world(source);
    Status st;
    ctx.runtime->transport().probe(ctx.world_rank, comm.state().ctx_p2p,
                                   src_world, tag, &st, &ctx);
    st.source = comm.from_world(st.source);
    if (out) *out = st;
}

// ---- Request ----

Request::~Request() { release(); }

Request& Request::operator=(Request&& other) noexcept {
    if (this != &other) {
        release();
        ctx_ = other.ctx_;
        state_ = other.state_;
        recv_ = std::move(other.recv_);
        kept_ = std::move(other.kept_);
        done_ = other.done_;
        done_status_ = other.done_status_;
        other.ctx_ = nullptr;
        other.state_ = nullptr;
        other.done_ = false;
    }
    return *this;
}

void Request::release() {
    if (recv_ && ctx_ != nullptr && !recv_->completed) {
        ctx_->runtime->transport().cancel_recv(ctx_->world_rank, recv_.get());
    }
    recv_.reset();
    ctx_ = nullptr;
    state_ = nullptr;
}

Request Request::make_send(const Comm& comm) {
    Request r;
    r.ctx_ = &comm.ctx();
    r.state_ = &comm.state();
    return r;
}

Request Request::make_recv(const Comm& comm, std::unique_ptr<PostedRecv> pr) {
    Request r;
    r.ctx_ = &comm.ctx();
    r.state_ = &comm.state();
    r.recv_ = std::move(pr);
    return r;
}

Status Request::finish_recv() {
    PostedRecv& pr = *recv_;
    charge_recv(*ctx_, pr, "recv");
    if (pr.truncated) {
        const auto msg_bytes = pr.msg_bytes;
        const auto cap = pr.capacity;
        release();
        throw TruncationError(msg_bytes, cap);
    }
    if (pr.dropped) {
        // The matched message was lost in transit (FaultPlan tombstone).
        // Plain receives surface the loss as a typed timeout; the robust
        // frame path (detail::finish_frame_recv) tolerates it and retries.
        const int src = state_->from_world(pr.matched_src);
        const int tag = pr.matched_tag;
        release();
        throw TimeoutError(src, tag);
    }
    Status st;
    st.source = state_->from_world(pr.matched_src);
    st.tag = pr.matched_tag;
    st.bytes = pr.msg_bytes;
    done_ = true;
    done_status_ = st;
    kept_ = std::move(pr.kept);
    release();
    return st;
}

Status Request::wait() {
    if (!valid()) {
        // Double-wait / wait-after-test-success: no-op returning the
        // status cached at completion (default Status if never completed).
        return done_ ? done_status_ : Status{};
    }
    if (!recv_) {  // send requests are already complete
        Status st;
        done_ = true;
        done_status_ = st;
        release();
        return st;
    }
    // detail::block_until: yields under an engine task, otherwise drives
    // outstanding requests and parks.
    PostedRecv* const one[] = {recv_.get()};
    ctx_->runtime->transport().wait(ctx_->world_rank, one, ctx_);
    return finish_recv();
}

bool Request::test(Status* out) {
    if (!valid()) {
        if (out != nullptr && done_) *out = done_status_;
        return true;
    }
    if (!recv_) {
        done_ = true;
        done_status_ = Status{};
        release();
        return true;
    }
    if (!ctx_->runtime->transport().test_recv(ctx_->world_rank, recv_.get())) {
        detail::yield_fiber();  // a polling loop must let peers run
        return false;
    }
    Status st = finish_recv();
    if (out) *out = st;
    return true;
}

void wait_all(std::span<Request> reqs) {
    for (Request& r : reqs) {
        r.wait();
    }
}

PersistentRequest PersistentRequest::send_init(const Comm& comm,
                                               const void* buf,
                                               std::size_t count, Datatype dt,
                                               int dest, int tag) {
    validate_rank(comm, dest, false, "destination");
    validate_tag(tag, false);
    PersistentRequest p;
    p.kind_ = Kind::Send;
    p.comm_ = comm;
    p.buf_ = const_cast<void*>(buf);
    p.count_ = count;
    p.dt_ = dt;
    p.peer_ = dest;
    p.tag_ = tag;
    return p;
}

PersistentRequest PersistentRequest::recv_init(const Comm& comm, void* buf,
                                               std::size_t count, Datatype dt,
                                               int source, int tag) {
    validate_rank(comm, source, true, "source");
    validate_tag(tag, true);
    PersistentRequest p;
    p.kind_ = Kind::Recv;
    p.comm_ = comm;
    p.buf_ = buf;
    p.count_ = count;
    p.dt_ = dt;
    p.peer_ = source;
    p.tag_ = tag;
    return p;
}

void PersistentRequest::start() {
    if (!valid()) throw ArgumentError("start on an uninitialized request");
    if (active()) throw ArgumentError("start on an already-active request");
    if (kind_ == Kind::Send) {
        inner_ = isend(comm_, buf_, count_, dt_, peer_, tag_);
    } else {
        inner_ = irecv(comm_, buf_, count_, dt_, peer_, tag_);
    }
}

Status PersistentRequest::wait() {
    if (!active()) throw ArgumentError("wait on an inactive persistent request");
    return inner_.wait();
}

}  // namespace minimpi
