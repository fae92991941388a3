#pragma once

#include <span>

#include "minimpi/comm.h"
#include "minimpi/request.h"

namespace minimpi {

/// Blocking standard send (buffered-eager: always completes locally).
/// @p dest may be kProcNull (no-op). Tags must be in [0, kTagUpperBound).
void send(const Comm& comm, const void* buf, std::size_t count, Datatype dt,
          int dest, int tag);

/// Blocking receive. @p source may be kAnySource, @p tag may be kAnyTag.
Status recv(const Comm& comm, void* buf, std::size_t count, Datatype dt,
            int source, int tag);

/// Nonblocking send/receive.
Request isend(const Comm& comm, const void* buf, std::size_t count,
              Datatype dt, int dest, int tag);
Request irecv(const Comm& comm, void* buf, std::size_t count, Datatype dt,
              int source, int tag);

/// MPI_Iprobe / MPI_Probe. Status::bytes reports payload size; source is a
/// comm-local rank.
bool iprobe(const Comm& comm, int source, int tag, Status* out);
void probe(const Comm& comm, int source, int tag, Status* out);

/// Typed convenience wrappers.
template <typename T>
void send(const Comm& comm, std::span<const T> data, int dest, int tag) {
    send(comm, data.data(), data.size(), datatype_of<T>(), dest, tag);
}
template <typename T>
Status recv(const Comm& comm, std::span<T> data, int source, int tag) {
    return recv(comm, data.data(), data.size(), datatype_of<T>(), source, tag);
}
template <typename T>
void send_value(const Comm& comm, const T& v, int dest, int tag) {
    send(comm, &v, 1, datatype_of<T>(), dest, tag);
}
template <typename T>
T recv_value(const Comm& comm, int source, int tag) {
    T v{};
    recv(comm, &v, 1, datatype_of<T>(), source, tag);
    return v;
}

namespace detail {

/// Internal byte-level primitives used by both the public p2p layer and the
/// collective algorithms. `coll_ctx` selects the collective matching context
/// (the stand-in for MPI's separate collective communicator context).
void send_bytes(const Comm& comm, const void* buf, std::size_t bytes, int dest,
                int tag, bool coll_ctx);
Status recv_bytes(const Comm& comm, void* buf, std::size_t bytes, int source,
                  int tag, bool coll_ctx);
Request isend_bytes(const Comm& comm, const void* buf, std::size_t bytes,
                    int dest, int tag, bool coll_ctx);
Request irecv_bytes(const Comm& comm, void* buf, std::size_t bytes, int source,
                    int tag, bool coll_ctx);

/// Forwarding. A rank whose next send is exactly the bytes it just received
/// (a broadcast parent, a pipeline or ring stage) sends the received payload
/// on instead of copying the bytes again: it receives with irecv_keep, takes
/// the payload with Request::take_payload() and passes it to send_payload.
/// Each call site states why nothing writes those bytes between the receive
/// and the send. Virtual time, statistics and fault injection are those of
/// irecv_bytes and send_bytes: no charge depends on how the host holds the
/// bytes.
///
/// send_payload: send_bytes that sends @p payload as it is when it is set;
/// when it is empty, the @p bytes at @p buf are copied into a new payload,
/// which is handed back in @p payload, so a root that sends the same bytes
/// to several children copies once. A set @p payload must hold exactly the
/// @p bytes at @p buf.
void send_payload(const Comm& comm, const void* buf, std::size_t bytes,
                  int dest, int tag, bool coll_ctx, Payload& payload);

/// irecv_bytes whose receive keeps the delivered payload (PostedRecv::keep).
Request irecv_keep(const Comm& comm, void* buf, std::size_t bytes, int source,
                   int tag, bool coll_ctx);

/// Like irecv_bytes but on an explicit matching context, for protocol
/// traffic that must pair across two different engine tasks (each task's
/// gate overrides the collective context with its own private one, so the
/// implicit selection above cannot reach a peer task's stream). The caller
/// guarantees both sides derive the same @p ctx_id. @p keep as in
/// PostedRecv::keep.
Request irecv_bytes_ctx(const Comm& comm, void* buf, std::size_t bytes,
                        int source, int tag, std::uint64_t ctx_id,
                        bool keep = false);

/// Frame primitives for the resilience layer (src/robust). They bypass the
/// Request machinery so the caller can tolerate tombstoned (dropped)
/// deliveries instead of receiving a thrown TimeoutError.
///
/// send_frame: like send_bytes but on an explicit matching context.
/// `robust_frame` marks the message as a robust DATA frame — the only
/// traffic payload faults may hit under FaultScope::RobustFrames; control
/// frames go on kRobustCtrlCtx with robust_frame == false and are exempt
/// from fault injection entirely.
void send_frame(const Comm& comm, const void* buf, std::size_t bytes, int dest,
                int tag, std::uint64_t ctx_id, bool robust_frame);

/// Post a frame receive on an explicit matching context. @p pr must outlive
/// the match (stack- or member-owned by the robust protocol state). This is
/// the p2p layer's one receive post: irecv_bytes_ctx goes through it too.
void post_frame_recv(const Comm& comm, PostedRecv* pr, void* buf,
                     std::size_t bytes, int source, int tag,
                     std::uint64_t ctx_id, bool keep = false);

/// Delivery state of a completed frame receive.
struct FrameRecvResult {
    std::size_t bytes = 0;  ///< envelope size of the matched message
    int src = -1;           ///< comm-local source rank
    int tag = 0;
    bool dropped = false;  ///< payload was lost in transit (tombstone)
};

/// Charge the receiver's clock and stats for a completed frame receive and
/// report its delivery state. Unlike Request::finish_recv this never throws
/// on drops — the robust protocol observes the loss and retries.
FrameRecvResult finish_frame_recv(const Comm& comm, PostedRecv& pr);

}  // namespace detail

}  // namespace minimpi
