#pragma once

#include <memory>
#include <span>
#include <utility>

#include "minimpi/comm.h"
#include "minimpi/transport.h"

namespace minimpi {

/// Handle for a nonblocking operation (MPI_Request). Sends complete
/// immediately (the transport is eager/buffered); receives complete when a
/// matching message arrives. Move-only; a pending receive that is destroyed
/// without wait()/test() is deregistered from the mailbox.
class Request {
public:
    Request() = default;
    Request(Request&& other) noexcept
        : ctx_(other.ctx_),
          state_(other.state_),
          recv_(std::move(other.recv_)),
          kept_(std::move(other.kept_)),
          done_(other.done_),
          done_status_(other.done_status_) {
        other.ctx_ = nullptr;
        other.state_ = nullptr;
        other.done_ = false;
    }
    Request& operator=(Request&&) noexcept;
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;
    ~Request();

    bool valid() const { return ctx_ != nullptr; }

    /// Block until the operation completes; returns the receive status
    /// (sends return a default Status). Consumes the request. Waiting
    /// again on a consumed request — double-wait, or wait after a
    /// successful test() — is a no-op returning the cached status.
    Status wait();

    /// Nonblocking completion check; on true fills @p out (if given) and
    /// consumes the request. Testing a consumed request returns true and
    /// reports the cached status.
    bool test(Status* out = nullptr);

    /// @internal The payload a completed detail::irecv_keep receive kept
    /// (empty when nothing was kept: SizeOnly mode, zero bytes, a short
    /// message); moves it out.
    Payload take_payload() { return std::move(kept_); }

    /// @internal factories used by the p2p layer.
    static Request make_send(const Comm& comm);
    static Request make_recv(const Comm& comm, std::unique_ptr<PostedRecv> r);

private:
    /// Charge the receive completion to the clock and build the Status.
    Status finish_recv();
    void release();

    RankCtx* ctx_ = nullptr;
    CommState* state_ = nullptr;
    std::unique_ptr<PostedRecv> recv_;  ///< null for send requests
    Payload kept_;                      ///< see take_payload()
    bool done_ = false;   ///< completed at least once (status cached)
    Status done_status_;  ///< status of the completed operation
};

/// Wait on every request, in index order (deterministic virtual time).
void wait_all(std::span<Request> reqs);

/// Persistent communication request (MPI_Send_init / MPI_Recv_init /
/// MPI_Start): a reusable descriptor for a fixed (buffer, peer, tag)
/// operation, re-armed with start() and completed with wait(). Useful for
/// iterative halo-style traffic where the envelope never changes.
class PersistentRequest {
public:
    PersistentRequest() = default;

    static PersistentRequest send_init(const Comm& comm, const void* buf,
                                       std::size_t count, Datatype dt,
                                       int dest, int tag);
    static PersistentRequest recv_init(const Comm& comm, void* buf,
                                       std::size_t count, Datatype dt,
                                       int source, int tag);

    /// Arm the operation (MPI_Start). Must not already be active.
    void start();
    /// Complete the active operation; the request can be start()ed again.
    Status wait();

    bool active() const { return inner_.valid(); }
    bool valid() const { return comm_.valid(); }

private:
    enum class Kind { Send, Recv };
    Kind kind_ = Kind::Send;
    Comm comm_;
    void* buf_ = nullptr;
    std::size_t count_ = 0;
    Datatype dt_ = Datatype::Byte;
    int peer_ = kProcNull;
    int tag_ = 0;
    Request inner_;
};

}  // namespace minimpi
