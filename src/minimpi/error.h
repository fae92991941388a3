#pragma once

#include <stdexcept>
#include <string>

namespace minimpi {

// Same alias as in types.h (which includes this header — redeclaring the
// alias here avoids the include cycle; the compiler rejects any divergence).
using VTime = double;

/// Base class for all errors raised by the runtime. Mirrors the MPI error
/// classes we actually need; the runtime follows the MPI_ERRORS_ARE_FATAL
/// spirit by throwing (a rank that throws aborts the whole job, and
/// Runtime::run rethrows the first error to the caller).
class MpiError : public std::runtime_error {
public:
    explicit MpiError(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid argument: bad rank, negative count, null buffer in Real payload
/// mode, invalid tag, mismatched datatype sizes, ...
class ArgumentError : public MpiError {
public:
    explicit ArgumentError(const std::string& what)
        : MpiError("invalid argument: " + what) {}
};

/// A receive buffer was too small for the matched message (MPI_ERR_TRUNCATE).
class TruncationError : public MpiError {
public:
    TruncationError(std::size_t msg_bytes, std::size_t buf_bytes)
        : MpiError("message truncated: incoming " + std::to_string(msg_bytes) +
                   " bytes exceeds receive buffer of " +
                   std::to_string(buf_bytes) + " bytes") {}
};

/// A receive matched a message that was lost in transit (FaultPlan drop
/// tombstone): the watchdog semantics of the simulated network — instead of
/// hanging forever, the receiver observes a typed timeout. Robust receives
/// (src/robust) catch the loss at the frame level and retry instead.
class TimeoutError : public MpiError {
public:
    TimeoutError(int src, int tag)
        : MpiError("watchdog timeout: message from world rank " +
                   std::to_string(src) + " (tag " + std::to_string(tag) +
                   ") lost in transit (dropped)") {}
};

/// Misuse of a communicator: wrong group, rank not a member, operation on
/// MPI_COMM_NULL, ...
class CommError : public MpiError {
public:
    explicit CommError(const std::string& what)
        : MpiError("communicator error: " + what) {}
};

/// Raised in ranks blocked on communication when another rank aborted the
/// job with an exception; the original exception is what Runtime::run
/// rethrows, JobAborted is only how the remaining ranks get unblocked.
class JobAborted : public MpiError {
public:
    explicit JobAborted(int by_rank)
        : MpiError("job aborted by world rank " + std::to_string(by_rank)) {}
};

/// Every live rank of the job waits on another and none can run: a wait
/// that nothing will ever complete (a receive with no sender, a flag nobody
/// signals). Raised by Runtime::run in place of a hang; the message lists
/// each parked rank with its virtual clock and what it waits for.
class StallError : public MpiError {
public:
    explicit StallError(const std::string& report)
        : MpiError("stall: " + report) {}
};

/// A peer process died (FaultPlan kill): the ULFM MPI_ERR_PROC_FAILED
/// equivalent. Raised in a rank whose pending communication can never
/// complete because the peer it depends on stopped progressing — waiting on
/// a message, flag or rendezvous contribution owned by the dead rank.
/// Detection is deterministic: the death vtime is a pure function of the
/// killed rank's program, and the detector charges the observer
/// death_vtime + watchdog_us of virtual time (the watchdog that noticed the
/// silence). Recovery: revoke() the communicator, then agree_shrink().
class ProcessFailedError : public MpiError {
public:
    ProcessFailedError(int world_rank, VTime death_vtime)
        : MpiError("process failed: world rank " + std::to_string(world_rank) +
                   " died at vtime " + std::to_string(death_vtime) + "us"),
          world_rank_(world_rank),
          death_vtime_(death_vtime) {}

    int world_rank() const { return world_rank_; }
    VTime death_vtime() const { return death_vtime_; }

private:
    int world_rank_;
    VTime death_vtime_;
};

/// The communicator was revoked (ULFM MPI_ERR_REVOKED): some member observed
/// a process failure and called Comm::revoke() to interrupt every pending
/// and future operation on the communicator so all survivors reach the
/// recovery path. Unlike ProcessFailedError, a revoke interrupt charges NO
/// virtual time — the interrupted rank keeps its wait-entry clock — so
/// revocation never injects wall-clock scheduling into virtual time.
class CommRevokedError : public MpiError {
public:
    CommRevokedError() : MpiError("communicator revoked") {}
};

/// Comm::free on a communicator that still has operations in flight (an
/// outstanding nonblocking collective, or a member already gone through
/// free). MPI_Comm_free during active communication is erroneous; the
/// simulated runtime surfaces the misuse as a typed error instead of
/// undefined behaviour so churny multi-tenant streams fail loudly.
class CommBusyError : public CommError {
public:
    explicit CommBusyError(const std::string& what)
        : CommError("busy: " + what) {}
};

/// Misuse of a nonblocking-collective request handle: destroying a request
/// whose operation is still in flight (complete it with wait() — silently
/// cancelling would leak half-executed protocol state into the transport),
/// or starting an already-active persistent collective.
class RequestError : public MpiError {
public:
    explicit RequestError(const std::string& what)
        : MpiError("request error: " + what) {}
};

/// Misuse of a shared-memory window (e.g. querying a rank on another node).
class WinError : public MpiError {
public:
    explicit WinError(const std::string& what)
        : MpiError("window error: " + what) {}
};

}  // namespace minimpi
