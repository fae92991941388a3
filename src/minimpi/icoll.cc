#include "minimpi/icoll.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "minimpi/error.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"

namespace minimpi {

namespace detail {

namespace {

/// Body of a request's task fiber. Runs the armed body (which switches back
/// to the owner at every would-block point), publishes completion, and
/// switches back; persistent requests re-arm and resume the same fiber for
/// the next cycle. Ends on shutdown; a shutdown arriving mid-body surfaces
/// as IcollCancelled inside yield() and unwinds the body's stack first.
void task_main(IcollState& st) {
    IcollGate& g = st.gate;
    for (;;) {
        try {
            st.body();
        } catch (const IcollCancelled&) {
            // Teardown mid-flight: the stack has unwound; end below.
        } catch (...) {
            g.err = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lk(g.mu);
            g.done = true;
            g.site.notify_all();
        }
        if (g.shutdown) return;
        g.task->suspend();
        if (g.shutdown) return;
    }
}

void deregister(IcollState& st) {
    if (!st.registered || st.ctx == nullptr) return;
    auto& v = st.ctx->active_icolls;
    v.erase(std::remove(v.begin(), v.end(), &st), v.end());
    st.registered = false;
}

}  // namespace

IcollState::~IcollState() {
    if (gate.task != nullptr) {
        gate.shutdown = true;
        while (!gate.task->finished()) gate.task->resume();
        gate.task.reset();
    }
    deregister(*this);
}

void icoll_progress(RankCtx& ctx) {
    if (ctx.gate != nullptr) return;  // task context: the engine is us
    // Snapshot: drive_icoll never mutates the list (only post/merge on the
    // owner do, and neither runs inside a drive).
    for (IcollState* st : ctx.active_icolls) drive_icoll(*st);
}

bool drive_icoll(IcollState& st) {
    IcollGate& g = st.gate;
    {
        std::lock_guard<std::mutex> lk(g.mu);
        if (g.done || g.err != nullptr) return true;
    }
    RankCtx& ctx = *st.ctx;
    // Swap the cost-model hooks for the task's run. The owner is suspended
    // until the task switches back, so the task is the only code touching
    // ctx meanwhile.
    ctx.cur_clock = &st.sub;
    ctx.cur_busy = &st.busy;
    ctx.coll_ctx_override = g.rdv_ctx;
    ctx.gate = &g;
    if (g.task == nullptr) {
        g.task = std::make_unique<Fiber>([&st] { task_main(st); });
    }
    g.task->resume();
    ctx.cur_clock = &ctx.clock;
    ctx.cur_busy = &ctx.link_busy_until;
    ctx.coll_ctx_override = 0;
    ctx.gate = nullptr;
    std::lock_guard<std::mutex> lk(g.mu);
    return g.done || g.err != nullptr;
}

void merge_icoll(IcollState& st) {
    RankCtx& ctx = *st.ctx;
    st.merged = true;
    deregister(st);
    ctx.clock.sync_to(st.sub.now());
    for (const auto& [dst, t] : st.busy) {
        VTime& cur = ctx.link_busy_until[dst];
        if (t > cur) cur = t;
    }
    trace_instant(ctx, hytrace::Phase::Engine, "icoll_complete");
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lk(st.gate.mu);
        err = st.gate.err;
        st.gate.err = nullptr;
    }
    if (err != nullptr) {
        // A failed body forfeits its finish hook and its persistent cycle.
        st.waited = true;
        st.cycle_active = false;
        std::rethrow_exception(err);
    }
}

void wait_icoll_done(IcollState& target) {
    // The target is registered, so this is an owner-context wait with a
    // request outstanding: every pause drives all of them (the MPI progress
    // rule — two ranks waiting on different operations in opposite orders
    // must not deadlock) and then parks until a site one of them waits at,
    // or this gate, is notified.
    IcollGate& g = target.gate;
    const WaitDesc at = WaitDesc::icoll(target.kind);
    block_until(waiter_of(*target.ctx), g.mu, g.site, at,
                [&] { return g.done || g.err != nullptr; });
}

void arm_icoll(IcollState& st) {
    RankCtx& ctx = *st.ctx;
    // The sub-clock starts where the program is now: with zero interleaved
    // compute the request's charging replays the blocking call exactly.
    st.sub.set(ctx.clock.now());
    st.busy = ctx.link_busy_until;
    st.merged = false;
    st.waited = false;
    st.cycle_active = true;
    {
        std::lock_guard<std::mutex> lk(st.gate.mu);
        st.gate.done = false;
        st.gate.err = nullptr;
        // rdv_seq is NOT reset: a member of round N+1 may reach a rendezvous
        // while a round-N straggler is still parked in the old slot (arrived
        // but not yet left), so reusing round-N keys could join a stale slot.
        // Every member performs the same rendezvous count per round, so the
        // monotonic counter still agrees across ranks.
    }
    if (!st.registered) {
        ctx.active_icolls.push_back(&st);
        st.registered = true;
    }
    trace_instant(ctx, hytrace::Phase::Engine, "icoll_post");
}

std::shared_ptr<IcollState> create_icoll(const Comm& comm, const char* kind,
                                         std::function<void()> body,
                                         std::function<void()> on_wait,
                                         std::optional<std::uint64_t> match_seq) {
    if (!comm.valid()) {
        throw CommError("nonblocking collective on a null communicator");
    }
    if (comm.state().freed.load(std::memory_order_acquire)) {
        throw CommError("nonblocking collective on a freed communicator");
    }
    RankCtx& ctx = comm.ctx();
    if (ctx.gate != nullptr) {
        throw ArgumentError(
            "nonblocking collectives cannot be posted from inside the "
            "progress engine");
    }
    // Warm the hierarchy cache now — a collective build over epoch-keyed
    // rendezvous — so the task never constructs communicators under the
    // gate. Charged to the main clock exactly like a first blocking call.
    // Skipped for explicit-sequence requests: those mark NON-collective
    // posting patterns (not every rank posts), so a collective build here
    // would hang the ranks that did post against the ones that never call
    // create_icoll. Such bodies do raw p2p and never need the hierarchy.
    if (!match_seq && smp_hier_applicable(comm)) hier(comm);

    auto st = std::make_shared<IcollState>();
    st->ctx = &ctx;
    st->comm_state = &comm.state();
    st->kind = kind;
    st->body = std::move(body);
    st->on_wait = std::move(on_wait);
    // Private matching context: bit 63 namespaces it away from real context
    // ids; ctx_coll identifies the communicator; the per-comm posting
    // counter identifies the operation (MPI requires identical posting
    // order, so every member derives the same value). Explicit sequences
    // live under bit 62 so non-collective posters (see the header) can
    // never cross-match a counter-derived context.
    const std::uint64_t seq =
        match_seq ? *match_seq : ctx.icoll_seq[&comm.state()]++;
    st->gate.rdv_ctx = (std::uint64_t{1} << 63) |
                       (match_seq ? (std::uint64_t{1} << 62) : 0) |
                       (comm.state().ctx_coll << 20) | (seq & 0xFFFFFu);
    return st;
}

std::shared_ptr<IcollState> post_icoll(const Comm& comm, const char* kind,
                                       std::function<void()> body,
                                       std::function<void()> on_wait,
                                       std::optional<std::uint64_t> match_seq) {
    auto st = create_icoll(comm, kind, std::move(body), std::move(on_wait),
                           match_seq);
    arm_icoll(*st);
    // One initial drive flushes the body's first sends (eager transport),
    // so peers can match them while this rank computes.
    drive_icoll(*st);
    return st;
}

std::shared_ptr<IcollState> make_complete_icoll(const Comm& comm,
                                                const char* kind,
                                                std::function<void()> on_wait) {
    auto st = std::make_shared<IcollState>();
    st->ctx = &comm.ctx();
    st->kind = kind;
    st->on_wait = std::move(on_wait);
    st->gate.done = true;
    st->merged = true;  // nothing was in flight; only the hook remains
    return st;
}

}  // namespace detail

// ---- CollRequest ----

CollRequest& CollRequest::operator=(CollRequest&& other) {
    if (this != &other) {
        destroy();
        st_ = std::move(other.st_);
    }
    return *this;
}

CollRequest::~CollRequest() noexcept(false) { destroy(); }

void CollRequest::destroy() {
    if (!st_) return;
    auto st = std::move(st_);
    const bool quiet = std::uncaught_exceptions() > 0 ||
                       st->ctx->runtime->transport().poisoned();
    if (!st->merged) {
        bool body_done;
        {
            std::lock_guard<std::mutex> lk(st->gate.mu);
            body_done = st->gate.done;
        }
        if (!body_done) {
            // In flight: tear the task down (unwinding its stack cancels
            // the posted receives) and surface the misuse — unless we are
            // already unwinding another exception or the job is aborting.
            st.reset();
            if (!quiet) {
                throw RequestError(
                    "nonblocking collective request destroyed while still "
                    "in flight; complete it with wait()");
            }
            return;
        }
        if (quiet) return;        // aborting: drop without touching clocks
        detail::merge_icoll(*st);  // implicit wait; rethrows a body error
    }
    if (!st->waited) {
        st->waited = true;
        st->cycle_active = false;  // channel-cached states become restartable
        if (st->on_wait && std::uncaught_exceptions() == 0) st->on_wait();
    }
}

bool CollRequest::test() {
    if (!st_) return true;
    detail::IcollState& st = *st_;
    if (st.ctx->gate != nullptr) {
        throw ArgumentError("CollRequest::test from inside the progress engine");
    }
    if (!st.merged) {
        const bool done = detail::drive_icoll(st);
        // A test is a progress call for every outstanding operation.
        detail::icoll_progress(*st.ctx);
        if (!done) {
            detail::yield_fiber();  // a polling loop must let peers run
            return false;
        }
        detail::merge_icoll(st);
    }
    return true;
}

void CollRequest::wait() {
    if (!st_) return;  // double-wait / wait-after-test: no-op
    auto st = st_;
    if (st->ctx->gate != nullptr) {
        throw ArgumentError("CollRequest::wait from inside the progress engine");
    }
    if (!st->merged) {
        detail::wait_icoll_done(*st);
        detail::merge_icoll(*st);
    }
    if (!st->waited) {
        st->waited = true;
        st->cycle_active = false;
        if (st->on_wait) st->on_wait();
    }
    st_.reset();
}

void wait_all(std::span<CollRequest> reqs) {
    for (CollRequest& r : reqs) r.wait();
}

// ---- nonblocking collectives ----

CollRequest ibarrier(const Comm& comm) {
    return CollRequest(
        detail::post_icoll(comm, "ibarrier", [comm] { barrier(comm); }));
}

CollRequest ibcast(const Comm& comm, void* buf, std::size_t count, Datatype dt,
                   int root) {
    return CollRequest(detail::post_icoll(
        comm, "ibcast",
        [comm, buf, count, dt, root] { bcast(comm, buf, count, dt, root); }));
}

CollRequest iallgather(const Comm& comm, const void* sendbuf,
                       std::size_t count, void* recvbuf, Datatype dt) {
    return CollRequest(
        detail::post_icoll(comm, "iallgather", [comm, sendbuf, count, recvbuf,
                                                dt] {
            allgather(comm, sendbuf, count, recvbuf, dt);
        }));
}

CollRequest iallgatherv(const Comm& comm, const void* sendbuf,
                        std::size_t sendcount, void* recvbuf,
                        std::span<const std::size_t> counts,
                        std::span<const std::size_t> displs, Datatype dt) {
    // The spans die with the caller's statement: the body owns copies.
    std::vector<std::size_t> c(counts.begin(), counts.end());
    std::vector<std::size_t> d(displs.begin(), displs.end());
    return CollRequest(detail::post_icoll(
        comm, "iallgatherv",
        [comm, sendbuf, sendcount, recvbuf, c = std::move(c), d = std::move(d),
         dt] { allgatherv(comm, sendbuf, sendcount, recvbuf, c, d, dt); }));
}

CollRequest iallreduce(const Comm& comm, const void* sendbuf, void* recvbuf,
                       std::size_t count, Datatype dt, Op op) {
    return CollRequest(detail::post_icoll(
        comm, "iallreduce", [comm, sendbuf, recvbuf, count, dt, op] {
            allreduce(comm, sendbuf, recvbuf, count, dt, op);
        }));
}

// ---- PersistentColl ----

PersistentColl& PersistentColl::operator=(PersistentColl&& other) {
    if (this != &other) {
        destroy();
        st_ = std::move(other.st_);
    }
    return *this;
}

PersistentColl::~PersistentColl() noexcept(false) { destroy(); }

void PersistentColl::destroy() {
    if (!st_) return;
    auto st = std::move(st_);
    const bool quiet = std::uncaught_exceptions() > 0 ||
                       st->ctx == nullptr ||
                       st->ctx->runtime->transport().poisoned();
    if (st->cycle_active && !st->merged) {
        bool body_done;
        {
            std::lock_guard<std::mutex> lk(st->gate.mu);
            body_done = st->gate.done;
        }
        if (!body_done) {
            st.reset();
            if (!quiet) {
                throw RequestError(
                    "persistent collective destroyed while a started "
                    "operation is still in flight; complete it with wait()");
            }
            return;
        }
        if (quiet) return;
        detail::merge_icoll(*st);  // implicit wait; rethrows a body error
    }
    if (st->cycle_active && !st->waited) {
        st->waited = true;
        if (st->on_wait && std::uncaught_exceptions() == 0) st->on_wait();
    }
}

void PersistentColl::start() {
    if (!valid()) {
        throw ArgumentError("start on an uninitialized persistent collective");
    }
    if (st_->cycle_active) {
        throw RequestError("start on an already-active persistent collective");
    }
    if (st_->ctx->gate != nullptr) {
        throw ArgumentError(
            "PersistentColl::start from inside the progress engine");
    }
    detail::arm_icoll(*st_);
    detail::drive_icoll(*st_);
}

bool PersistentColl::test() {
    if (!valid()) {
        throw ArgumentError("test on an uninitialized persistent collective");
    }
    detail::IcollState& st = *st_;
    if (!st.cycle_active) return true;  // inactive request: MPI reports true
    if (st.ctx->gate != nullptr) {
        throw ArgumentError(
            "PersistentColl::test from inside the progress engine");
    }
    if (!st.merged) {
        const bool done = detail::drive_icoll(st);
        detail::icoll_progress(*st.ctx);
        if (!done) {
            detail::yield_fiber();  // a polling loop must let peers run
            return false;
        }
        detail::merge_icoll(st);
    }
    if (!st.on_wait) {
        // No wait-side finish work: a successful test completes the cycle
        // (MPI semantics — the request becomes inactive and restartable).
        st.waited = true;
        st.cycle_active = false;
    }
    return true;
}

void PersistentColl::wait() {
    if (!valid()) {
        throw ArgumentError("wait on an uninitialized persistent collective");
    }
    detail::IcollState& st = *st_;
    if (!st.cycle_active) return;  // inactive: MPI wait is a no-op
    if (st.ctx->gate != nullptr) {
        throw ArgumentError(
            "PersistentColl::wait from inside the progress engine");
    }
    if (!st.merged) {
        detail::wait_icoll_done(st);
        detail::merge_icoll(st);
    }
    st.cycle_active = false;
    if (!st.waited) {
        st.waited = true;
        if (st.on_wait) st.on_wait();
    }
}

PersistentColl PersistentColl::barrier_init(const Comm& comm) {
    return PersistentColl(
        detail::create_icoll(comm, "barrier_init", [comm] { barrier(comm); }));
}

PersistentColl PersistentColl::bcast_init(const Comm& comm, void* buf,
                                          std::size_t count, Datatype dt,
                                          int root) {
    return PersistentColl(detail::create_icoll(
        comm, "bcast_init",
        [comm, buf, count, dt, root] { bcast(comm, buf, count, dt, root); }));
}

PersistentColl PersistentColl::allgather_init(const Comm& comm,
                                              const void* sendbuf,
                                              std::size_t count, void* recvbuf,
                                              Datatype dt) {
    return PersistentColl(detail::create_icoll(
        comm, "allgather_init", [comm, sendbuf, count, recvbuf, dt] {
            allgather(comm, sendbuf, count, recvbuf, dt);
        }));
}

PersistentColl PersistentColl::allgatherv_init(
    const Comm& comm, const void* sendbuf, std::size_t sendcount,
    void* recvbuf, std::span<const std::size_t> counts,
    std::span<const std::size_t> displs, Datatype dt) {
    std::vector<std::size_t> c(counts.begin(), counts.end());
    std::vector<std::size_t> d(displs.begin(), displs.end());
    return PersistentColl(detail::create_icoll(
        comm, "allgatherv_init",
        [comm, sendbuf, sendcount, recvbuf, c = std::move(c), d = std::move(d),
         dt] { allgatherv(comm, sendbuf, sendcount, recvbuf, c, d, dt); }));
}

PersistentColl PersistentColl::allreduce_init(const Comm& comm,
                                              const void* sendbuf,
                                              void* recvbuf, std::size_t count,
                                              Datatype dt, Op op) {
    return PersistentColl(detail::create_icoll(
        comm, "allreduce_init", [comm, sendbuf, recvbuf, count, dt, op] {
            allreduce(comm, sendbuf, recvbuf, count, dt, op);
        }));
}

}  // namespace minimpi
