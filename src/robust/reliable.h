#pragma once

#include <cstddef>
#include <cstdint>

#include "minimpi/comm.h"
#include "robust/config.h"
#include "robust/stats.h"

namespace hympi::robust {

// ---------------------------------------------------------------------------
// Tag encoding (all robust traffic lives in the 0xC0000-0xFFFFF tag range,
// well below minimpi::kTagUpperBound = 1<<20):
//
//   bits  0-11  op/base tag (which collective + round)
//   bits 12-13  frame kind: 0 = DATA, 1 = ACK, 2 = NACK, 3 = FAIL
//   bits 14-15  robust marker '11' (0xC000)
//   bits 16-19  low nibble of the transfer generation
//
// Carrying kind and generation in the TAG (not only the payload header)
// matters in SizeOnly payload mode, where frame bodies are not delivered:
// control decisions and stale-duplicate filtering still work on envelopes
// alone. DATA frames additionally carry a full header (magic, 64-bit
// generation, attempt, checksum) verified in Real mode.
// ---------------------------------------------------------------------------

inline constexpr int kOpAllgather = 0x000;  ///< + bridge round index
inline constexpr int kOpBcast = 0x100;
inline constexpr int kOpAllreduce = 0x200;  ///< + ring round index
inline constexpr int kOpReduce = 0x300;
inline constexpr int kOpGather = 0x400;
inline constexpr int kOpScatter = 0x500;
inline constexpr int kOpAlltoall = 0x600;  ///< + pairwise round index
inline constexpr int kOpAgree = 0x700;

enum class FrameKind : int { Data = 0, Ack = 1, Nack = 2, Fail = 3 };

inline int make_tag(int op_tag, FrameKind kind, std::uint64_t gen) {
    return 0xC000 | (op_tag & 0xFFF) | (static_cast<int>(kind) << 12) |
           (static_cast<int>(gen & 0xF) << 16);
}
inline FrameKind kind_of_tag(int tag) {
    return static_cast<FrameKind>((tag >> 12) & 0x3);
}
inline int op_of_tag(int tag) { return tag & 0xFFF; }
inline int gen_nibble_of_tag(int tag) { return (tag >> 16) & 0xF; }

/// Header prepended to every DATA frame (integrity guard of the tentpole):
/// magic + full generation stamp detect stale frames, the checksum detects
/// in-flight corruption of the partition payload.
struct FrameHeader {
    std::uint64_t magic = 0;
    std::uint64_t gen = 0;
    std::uint32_t attempt = 0;
    std::uint32_t reserved = 0;
    std::uint64_t checksum = 0;
    std::uint64_t bytes = 0;
};
inline constexpr std::uint64_t kFrameMagic = 0x48594D5046524D31ULL;  // "HYMPFRM1"

/// One reliable transfer: send @p sbytes to @p dest and/or receive
/// @p rbytes from @p src (pass minimpi::kProcNull to disable a direction),
/// with bounded NACK/retransmit recovery. Both directions progress
/// concurrently — a full-duplex exchange where every rank's initial DATA
/// frame is dropped still converges, because each side serves incoming
/// frames while waiting for its own acknowledgement.
///
/// Returns true when every enabled direction completed cleanly; false when
/// the retry budget was exhausted (the caller consults agree_failure and
/// takes the degradation ladder). Counters are recorded both in @p st (the
/// channel's) and in the rank aggregate (RankCtx::robust_stats).
bool reliable_xfer(const minimpi::Comm& comm, const void* sbuf,
                   std::size_t sbytes, int dest, void* rbuf,
                   std::size_t rbytes, int src, int op_tag, std::uint64_t gen,
                   const RobustConfig& cfg, RobustStats& st);

inline bool reliable_send(const minimpi::Comm& comm, const void* buf,
                          std::size_t bytes, int dest, int op_tag,
                          std::uint64_t gen, const RobustConfig& cfg,
                          RobustStats& st) {
    return reliable_xfer(comm, buf, bytes, dest, nullptr, 0,
                         minimpi::kProcNull, op_tag, gen, cfg, st);
}
inline bool reliable_recv(const minimpi::Comm& comm, void* buf,
                          std::size_t bytes, int src, int op_tag,
                          std::uint64_t gen, const RobustConfig& cfg,
                          RobustStats& st) {
    return reliable_xfer(comm, nullptr, 0, minimpi::kProcNull, buf, bytes,
                         src, op_tag, gen, cfg, st);
}

/// Agreement on failure across @p comm (typically the bridge): returns the
/// OR of every rank's @p my_fail bit, computed with a deterministic linear
/// gather + broadcast of zero-byte control frames on the reliable side
/// channel. All ranks observe the same verdict, so the degradation ladder
/// flips consistently everywhere or nowhere. The side channel never drops a
/// frame, so the agreement needs no retry budget and records no counters.
bool agree_failure(const minimpi::Comm& comm, bool my_fail,
                   std::uint64_t gen);

/// Allocate this rank's next robust channel uid on @p comm: a per-member
/// counter on the communicator (CommState::member_chan_seq), so every
/// member that constructs channels on @p comm collectively gets the same
/// uid, whatever channels it built on other comms before. Generation stamps
/// are (uid << 32) | epoch.
std::uint64_t alloc_channel_uid(const minimpi::Comm& comm);

// ---------------------------------------------------------------------------
// Chunked-pipeline generation stamps.
//
// A pipelined round derives per-chunk stamps from the round's base
// generation as  base + ((chunk + 1) << 20)  so a duplicated frame of chunk
// i can never be accepted as chunk j. The scheme is collision-free only
// within static bounds: the base generation is (uid << 32) | epoch with the
// epoch counter in bits [0, 32), and the chunk offsets occupy bits
// [20, 32). Once a channel's epoch reaches 2^20, a later round's BASE stamp
// would alias an earlier round's chunk stamp (base' = base + k·2^20 for
// some chunk k) and a stale retransmitted frame could be accepted as fresh
// data. Likewise a chunk index of 2^12 or more would carry past bit 31 into
// the uid field. chunked_gen() enforces both bounds with a typed error —
// at one epoch per pipelined round, 2^20 rounds per channel, the bound is
// unreachable in practice; the check turns a silent integrity loss into a
// loud failure.
// ---------------------------------------------------------------------------

/// Exclusive bound on a chunked round's base epoch (low 32 bits of gen).
inline constexpr std::uint64_t kMaxChunkedEpoch = 1ULL << 20;
/// Exclusive bound on (chunk index + 1).
inline constexpr std::uint64_t kMaxChunkOffset = 1ULL << 12;

/// A chunked round's generation stamp left its collision-free envelope.
class GenerationOverflowError : public minimpi::MpiError {
public:
    GenerationOverflowError(std::uint64_t base, std::uint64_t chunk)
        : MpiError("chunked generation stamp overflow: base gen " +
                   std::to_string(base) + " (epoch " +
                   std::to_string(base & 0xFFFFFFFFULL) + ") chunk " +
                   std::to_string(chunk) +
                   " exceeds the collision-free bounds (epoch < 2^20, "
                   "chunk < 2^12 - 1)") {}
};

/// Stamp for chunk @p chunk (0-based) of a pipelined round whose base
/// generation is @p base. Throws GenerationOverflowError outside the
/// documented bounds.
inline std::uint64_t chunked_gen(std::uint64_t base, std::uint64_t chunk) {
    if ((base & 0xFFFFFFFFULL) >= kMaxChunkedEpoch ||
        chunk + 1 >= kMaxChunkOffset) {
        throw GenerationOverflowError(base, chunk);
    }
    return base + ((chunk + 1) << 20);
}

}  // namespace hympi::robust
