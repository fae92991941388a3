#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "minimpi/clock.h"
#include "minimpi/coll.h"
#include "minimpi/comm.h"
#include "minimpi/icoll_gate.h"

/// Nonblocking and persistent collectives on a virtual-time progress engine.
///
/// Each outstanding collective is advanced by a task fiber executing the
/// EXACT blocking implementation from coll.cc — switched to directly from
/// the rank's own fiber and back (IcollGate), so only one of {owner program,
/// one task} runs at any instant and RankCtx needs no locking. While a task
/// runs the context's cost-model hooks are swapped:
///
///   * ctx.cur_clock  -> the request's sub-clock (seeded with the clock at
///     post time; merged back with max() at completion). Communication time
///     accrues on the sub-clock CONCURRENTLY with caller compute on the main
///     clock, so wait() observes elapsed == max(compute, comm).
///   * ctx.cur_busy   -> a private snapshot of link_busy_until (max-merged
///     back per destination), so the real-time order in which outstanding
///     requests are driven cannot leak into virtual time.
///   * ctx.coll_ctx_override -> a private matching context derived from the
///     per-communicator posting order (identical on every member rank), so
///     in-flight traffic can never FIFO-cross-match another collective.
///
/// Under forced immediate wait (zero interleaved compute) the sub-clock
/// starts at the main clock's value and every charging site, message stamp
/// and counter is shared with the blocking path, so i-collectives are byte-,
/// counter- and virtual-time-identical to their blocking counterparts.
///
/// The robust (resilience) frame paths stay on the main clock by design —
/// nonblocking collectives are not available under robust mode.
namespace minimpi {

namespace detail {

/// Shared state of one engine-backed nonblocking or persistent collective.
struct IcollState {
    RankCtx* ctx = nullptr;
    /// Communicator the collective was posted on — lets Comm::free detect
    /// an in-flight operation on the comm being freed (CommBusyError).
    const CommState* comm_state = nullptr;
    const char* kind = "icoll";     ///< static label for traces/errors
    std::function<void()> body;     ///< the blocking algorithm (task side)
    std::function<void()> on_wait;  ///< owner-side finish hook (may block)

    VClock sub;  ///< the request's communication sub-clock
    std::unordered_map<int, VTime> busy;  ///< private link-occupancy snapshot
    IcollGate gate;

    bool registered = false;    ///< listed in ctx->active_icolls
    bool merged = false;        ///< sub clock / busy merged back into the rank
    bool waited = false;        ///< on_wait has run (or is forfeited by error)
    bool cycle_active = false;  ///< persistent: started and not yet waited

    IcollState() = default;
    IcollState(const IcollState&) = delete;
    IcollState& operator=(const IcollState&) = delete;
    /// Tears the task down (cancelling a still-running body so its stack
    /// unwinds and releases posted receives) and deregisters the request.
    ~IcollState();
};

/// Create a request state for @p comm: warms the hierarchy cache (so the
/// task never builds communicators under the gate) and derives the private
/// matching context from the per-comm posting order. Does NOT arm the body
/// — post_icoll/PersistentColl::start do; the task fiber is made at the
/// first drive.
///
/// @p match_seq overrides the per-comm posting counter (which is neither
/// consulted nor consumed) with a caller-supplied sequence number, placed
/// in a separate namespace so it can never collide with counter-derived
/// contexts. For NON-collective posting patterns — e.g. a neighbor
/// exchange where only some ranks carry traffic — where the counter would
/// desynchronize across ranks; the caller guarantees communicating peers
/// pass the same value (typically its own epoch counter).
std::shared_ptr<IcollState> create_icoll(
    const Comm& comm, const char* kind, std::function<void()> body,
    std::function<void()> on_wait = {},
    std::optional<std::uint64_t> match_seq = std::nullopt);

/// Arm (or re-arm) the body: seed the sub-clock with the current clock,
/// snapshot link occupancy, reset completion state and register the request
/// with the rank's progress list.
void arm_icoll(IcollState& st);

/// Switch to the task until it yields or completes; returns whether the
/// body has run to completion (or died with an error). Never blocks on
/// another rank and never advances the main clock.
bool drive_icoll(IcollState& st);

/// Fold a completed body back into the rank: clock.sync_to(sub), per-
/// destination max-merge of link occupancy, deregistration. Rethrows the
/// body's exception, if any.
void merge_icoll(IcollState& st);

/// Drive @p st to completion, driving every other outstanding request
/// between attempts (the MPI progress rule) and parking in between.
void wait_icoll_done(IcollState& st);

/// create + arm + one initial drive (flushes the body's first sends so
/// peers can match them while this rank computes).
std::shared_ptr<IcollState> post_icoll(
    const Comm& comm, const char* kind, std::function<void()> body,
    std::function<void()> on_wait = {},
    std::optional<std::uint64_t> match_seq = std::nullopt);

/// An already-complete request carrying only an owner-side finish hook
/// (used by the hybrid layer for ranks with no bridge role: their split-
/// phase work is entirely in the wait-side on-node copy).
std::shared_ptr<IcollState> make_complete_icoll(const Comm& comm,
                                                const char* kind,
                                                std::function<void()> on_wait);

}  // namespace detail

/// Handle for a nonblocking collective (MPI_Request for i-collectives).
/// Move-only. wait() completes the operation and consumes the handle;
/// double-wait and wait-after-successful-test are no-ops. Destroying a
/// handle whose operation is still in flight throws RequestError (unless
/// already unwinding an exception or the job is aborting).
class CollRequest {
public:
    CollRequest() = default;
    explicit CollRequest(std::shared_ptr<detail::IcollState> st)
        : st_(std::move(st)) {}
    CollRequest(CollRequest&&) noexcept = default;
    CollRequest& operator=(CollRequest&& other);
    CollRequest(const CollRequest&) = delete;
    CollRequest& operator=(const CollRequest&) = delete;
    ~CollRequest() noexcept(false);

    bool valid() const { return st_ != nullptr; }

    /// Nonblocking completion check. Drives this request and every other
    /// outstanding one exactly once; charges NOTHING to the main clock, so
    /// polling loops cannot spin virtual time. Returns true once the
    /// communication has completed (the wait-side finish hook of split-
    /// phase hybrid operations still runs at wait()).
    bool test();

    /// Complete the operation: drive to completion, merge the sub-clock
    /// (elapsed becomes max(compute, comm)) and run the finish hook.
    /// Consumes the request; waiting again is a no-op.
    void wait();

private:
    void destroy();  ///< shared teardown of dtor / move-assign; may throw

    std::shared_ptr<detail::IcollState> st_;
};

/// Wait on every request in index order (deterministic virtual time).
void wait_all(std::span<CollRequest> reqs);

/// Nonblocking collectives (MPI_Ibarrier / MPI_Ibcast / MPI_Iallgather /
/// MPI_Iallgatherv / MPI_Iallreduce). Collective over @p comm: every member
/// must post the same operations in the same order (their relative Test/
/// Wait order is free). Argument errors surface at wait(), where the body's
/// exception is rethrown. Not available under robust mode.
CollRequest ibarrier(const Comm& comm);
CollRequest ibcast(const Comm& comm, void* buf, std::size_t count, Datatype dt,
                   int root);
CollRequest iallgather(const Comm& comm, const void* sendbuf,
                       std::size_t count, void* recvbuf, Datatype dt);
CollRequest iallgatherv(const Comm& comm, const void* sendbuf,
                        std::size_t sendcount, void* recvbuf,
                        std::span<const std::size_t> counts,
                        std::span<const std::size_t> displs, Datatype dt);
CollRequest iallreduce(const Comm& comm, const void* sendbuf, void* recvbuf,
                       std::size_t count, Datatype dt, Op op);

/// Persistent collective (MPI_Barrier_init / ... / MPI_Start): a reusable
/// descriptor for a fixed-argument collective. Initialization is collective
/// (same order on every member) and caches everything derivable once — the
/// node hierarchy, the private matching context and the task fiber — so
/// start() only re-arms the body. start() on an active request throws
/// RequestError; wait() on an inactive one is a no-op (MPI semantics);
/// test() of an inactive request reports true.
class PersistentColl {
public:
    PersistentColl() = default;
    PersistentColl(PersistentColl&&) noexcept = default;
    PersistentColl& operator=(PersistentColl&& other);
    PersistentColl(const PersistentColl&) = delete;
    PersistentColl& operator=(const PersistentColl&) = delete;
    ~PersistentColl() noexcept(false);

    static PersistentColl barrier_init(const Comm& comm);
    static PersistentColl bcast_init(const Comm& comm, void* buf,
                                     std::size_t count, Datatype dt, int root);
    static PersistentColl allgather_init(const Comm& comm, const void* sendbuf,
                                         std::size_t count, void* recvbuf,
                                         Datatype dt);
    static PersistentColl allgatherv_init(const Comm& comm,
                                          const void* sendbuf,
                                          std::size_t sendcount, void* recvbuf,
                                          std::span<const std::size_t> counts,
                                          std::span<const std::size_t> displs,
                                          Datatype dt);
    static PersistentColl allreduce_init(const Comm& comm, const void* sendbuf,
                                         void* recvbuf, std::size_t count,
                                         Datatype dt, Op op);

    /// Arm the operation (MPI_Start) and give it one initial drive.
    void start();
    /// Nonblocking completion check of the started operation.
    bool test();
    /// Complete the started operation; the request can be start()ed again.
    void wait();

    bool valid() const { return st_ != nullptr; }
    bool active() const { return st_ != nullptr && st_->cycle_active; }

private:
    /// Wraps a state built by the *_init factories above.
    explicit PersistentColl(std::shared_ptr<detail::IcollState> st)
        : st_(std::move(st)) {}

    void destroy();  ///< shared teardown of dtor / move-assign; may throw

    std::shared_ptr<detail::IcollState> st_;
};

}  // namespace minimpi
