#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "minimpi/sched.h"

namespace minimpi::detail {

/// Thrown out of IcollGate::yield when the request is torn down while its
/// body is still in flight: unwinds the task's stack so RAII releases
/// posted receives and scratch buffers. Never escapes the task fiber.
struct IcollCancelled {};

/// Handoff between a rank's own fiber (the "owner") and the task fiber
/// advancing one outstanding nonblocking collective. drive_icoll switches
/// from the owner straight into the task, and the task switches straight
/// back at every would-block point (yield) or when its body ends, so
/// exactly one of the two runs at any moment, on one thread, and RankCtx
/// never sees concurrent access.
///
/// Tasks never park: every wait on another rank goes through
/// detail::block_until, which under an active `ctx.gate` links the owner's
/// fiber at the site and yields instead — transport receives and probes,
/// collective rendezvous, node flag waits and the rest alike. That is what
/// lets Test() poll without spinning virtual time and lets a Wait() on one
/// request keep every other outstanding request progressing (the MPI
/// progress rule).
struct IcollGate {
    std::mutex mu;           ///< guards done and err, and the site
    WaitSite site;           ///< the owner waits here for done
    bool done = false;       ///< body ran to completion (task-written)
    bool shutdown = false;   ///< the task must unwind and end
    std::exception_ptr err;  ///< first exception thrown by the body
    std::unique_ptr<Fiber> task;  ///< runs the body; made at the first drive

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

    /// Called from TASK code at a would-block point: switch back to the
    /// owner until the next drive. Throws IcollCancelled when the request
    /// is being torn down mid-flight.
    void yield() {
        if (!shutdown) task->suspend();
        if (shutdown) throw IcollCancelled{};
    }
};

}  // namespace minimpi::detail
