#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>

namespace minimpi::detail {

/// Thrown out of IcollGate::yield when the request is torn down while its
/// body is still in flight: unwinds the worker's stack so RAII releases
/// posted receives and scratch buffers. Never escapes the worker loop.
struct IcollCancelled {};

/// Cooperative handoff between a rank's own thread (the "owner") and the
/// worker thread advancing one outstanding nonblocking collective (the
/// "task"). Exactly one of the two runs at any moment: the owner sleeps in
/// the engine's drive() while the task holds the turn, and the task sleeps
/// in yield() (or in its idle loop) otherwise — so RankCtx never sees
/// concurrent access even though two OS threads share it, and TSan agrees.
///
/// Tasks never block the OS thread: every wait on another rank goes through
/// detail::block_until, which under an active `ctx.gate` yields the turn
/// instead of parking — transport receives and probes, collective
/// rendezvous, node flag waits and the rest alike. That is what lets Test()
/// poll without spinning virtual time and lets a Wait() on one request
/// keep every other outstanding request progressing (the MPI progress
/// rule). The three turn handoffs (yield() here, worker_main and
/// drive_icoll) are the only condvar waits outside that helper.
struct IcollGate {
    std::mutex mu;
    std::condition_variable cv;
    bool task_turn = false;  ///< task may run; owner sleeps meanwhile
    bool armed = false;      ///< a body is pending or executing
    bool done = false;       ///< body ran to completion (task-written)
    bool shutdown = false;   ///< worker thread must exit its loop
    std::exception_ptr err;  ///< first exception thrown by the body

    /// Private matching context of the request (bit 63 set; derived from
    /// the communicator's ctx_coll and the per-comm posting order, so it
    /// agrees on every member rank). Also namespaces gate-keyed rendezvous
    /// slots: epoch keys are small integers and can never collide with it.
    std::uint64_t rdv_ctx = 0;
    /// Op-local rendezvous counter. Every member runs the same blocking
    /// algorithm under the gate, so the per-call sequence agrees across
    /// ranks and keys all of them into the same slot.
    std::uint64_t rdv_seq = 0;

    std::uint64_t next_rdv_key() { return rdv_ctx + (rdv_seq++ << 40); }

    /// Called from TASK code at a would-block point: hand the turn back to
    /// the owner and sleep until the next drive(). Throws IcollCancelled
    /// when the request is being torn down mid-flight.
    void yield() {
        std::unique_lock<std::mutex> lk(mu);
        task_turn = false;
        cv.notify_all();
        cv.wait(lk, [&] { return task_turn || shutdown; });
        if (shutdown) throw IcollCancelled{};
    }
};

}  // namespace minimpi::detail
