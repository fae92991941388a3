#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hybrid/hier_comm.h"

namespace hympi {

/// Node-shared failure word for the hybrid->flat degradation ladder: a
/// leader whose bridge AGREED that an exchange failed stores the transfer's
/// generation stamp here BEFORE its release signal; after the release every
/// on-node rank compares the word against the current generation (stale
/// stamps from earlier rounds never match), so the whole job downgrades at
/// the same round boundary or not at all.
struct NodeFailWord {
    std::atomic<std::uint64_t> fail_gen{0};
};

/// Collective over hc.shm(): rendezvous-boot one NodeFailWord per node
/// (robust mode one-off; stands in for a tiny shared window).
std::shared_ptr<NodeFailWord> boot_fail_word(const HierComm& hc);

/// The two synchronization flavors of paper Sect. 6 ("Explicit
/// synchronization"):
///  * Barrier — heavy-weight MPI_Barrier across the on-node processes
///    (what the paper's evaluation uses);
///  * Flags — light-weight shared sequence flags: each rank owns a
///    cache-line-padded epoch counter; the leader waits for all children's
///    counters, children wait for the leader's release counter (cf. Graham
///    & Shipman '08, referenced in the paper's conclusion).
enum class SyncPolicy {
    Barrier,
    Flags,
};

/// On-node synchronization engine for one shared-memory communicator.
/// Construction is collective over hc.shm() and a one-off.
///
/// Modelled cost: each flag store charges flag_signal_us; each wait charges
/// flag_poll_us per flag inspected and synchronizes the waiter's virtual
/// clock to the signaller's store time — the same propagation rule as
/// message arrivals, so determinism is preserved.
class NodeSync {
public:
    explicit NodeSync(const HierComm& hc);

    /// Phase A of Hy_Allgather (Fig. 4 line 25/34): every rank announces
    /// "my partition is initialized"; the leader returns once all on-node
    /// ranks have announced. Children return immediately after signalling,
    /// unless they pass @p collector — then they run the leader's collect
    /// loop too. A split-phase rank about to hand a shared slot to the
    /// progress engine collects so its engine-side write happens-after
    /// every on-node reader's previous-round reads (Barrier mode collects
    /// everyone by construction; @p collector only matters under Flags).
    void ready_phase(SyncPolicy p, bool collector = false);

    /// Phase B (Fig. 4 line 27/35): the leader announces "exchange done";
    /// children return once they observe it. Call on every rank; leaders
    /// (leader_index 0) publish, everyone else waits.
    void release_phase(SyncPolicy p);

    /// The single-node fast path (Fig. 4 lines 29-30/37-38) and Hy_Bcast's
    /// post-exchange sync (Fig. 6): one on-node barrier (or the equivalent
    /// flag round-trip).
    void full_sync(SyncPolicy p);

    // --- per-chunk pipeline flags (the chunked single-copy engine) ---
    //
    // A pipelined round moves a large payload in chunks; each chunk gets
    // its own release flag so a consumer stage can start on chunk i while
    // the producer is still working on chunk i+1. Flags live in fixed
    // per-publisher slots with MONOTONE ABSOLUTE sequence numbers: chunk c
    // of a round whose publisher had issued `base` signals before the
    // round targets seq base+c+1. Every rank mirrors each slot's absolute
    // count locally (chunk_mark/chunk_skip) — rounds are deterministic and
    // uniform across the node, so the mirrors agree without any shared
    // coordination.
    //
    // Each signal's virtual-time stamp is kept in an append-only per-slot
    // log indexed by absolute seq: a waiter synchronizes to ITS chunk's
    // stamp, never to the latest one — a single overwritten stamp would
    // leak the wall-clock interleaving of later signals into virtual time.

    /// Slot of rank @p r's per-chunk ready flag (pipelined reductions).
    int chunk_slot_rank(int r) const { return r; }
    /// Slot of the node-level per-chunk release flag (primary leader).
    int chunk_slot_node() const { return hc_->shm().size(); }
    /// Slot of socket @p s's per-chunk release flag (socket leader s).
    int chunk_slot_socket(int s) const { return hc_->shm().size() + 1 + s; }

    /// Publish the next chunk from @p slot (advances this rank's mirror).
    void chunk_signal(int slot);
    /// Absolute signal count of @p slot as of the last completed round on
    /// this rank — the base a waiter adds chunk indices to.
    std::uint64_t chunk_mark(int slot) const {
        return chunk_next_[static_cast<std::size_t>(slot)];
    }
    /// Wait until @p slot reaches absolute seq @p target (1-based), then
    /// synchronize this rank's clock to that signal's own stamp. Aware of
    /// process failures: when the slot's publisher is dead and the target
    /// seq was never reached, raises ProcessFailedError instead of hanging.
    void chunk_wait(int slot, std::uint64_t target);
    /// Advance this rank's mirror of @p slot by a round's @p n chunks
    /// (non-publishers call this once per pipelined round they observe).
    void chunk_skip(int slot, std::size_t n) {
        chunk_next_[static_cast<std::size_t>(slot)] += n;
    }

    /// Degradation ladder, step 1 (robust mode only): once the flag-sync
    /// watchdog has tripped sync_trip_limit times on this node, Flags
    /// requests are served with Barrier for the rest of the job. The flip
    /// happens at an identical round boundary on every on-node rank.
    bool degraded() const { return degraded_; }

    /// The policy actually used for @p p on this rank right now.
    SyncPolicy effective(SyncPolicy p) const {
        return (degraded_ && p == SyncPolicy::Flags) ? SyncPolicy::Barrier : p;
    }

private:
    struct Cell {
        alignas(64) std::uint64_t seq = 0;
        VTime vtime = 0.0;
    };
    /// One publisher's pipeline flag: a monotone counter plus the
    /// append-only stamp log (stamps[i] is the vtime of signal i+1).
    struct ChunkSlot {
        alignas(64) std::uint64_t seq = 0;
        std::vector<VTime> stamps;
    };
    /// Host-shared state standing in for a flags window; the model charges
    /// the costs a window-resident flag array would incur.
    struct Shared {
        std::mutex mu;
        minimpi::detail::WaitSite site;  ///< ranks waiting on a flag here
        std::vector<Cell> ready;    ///< one per shm rank
        std::vector<Cell> release;  ///< one per leader (first L entries used)
        /// Pipeline flag slots: [0, ppn) per-rank chunk-ready, [ppn] the
        /// node-level chunk release, [ppn+1+s] socket s's chunk release.
        std::vector<ChunkSlot> chunk;

        /// Watchdog trips observed on this node (flag signals arriving
        /// later than watchdog_us of virtual time after the waiter began
        /// waiting). Guarded by mu; ordering with respect to the primary
        /// leader's downgrade decision follows from the flag seq protocol.
        std::uint64_t trips = 0;
        /// Release round R after which Flags is abandoned (0 = never).
        /// Written once by the node's primary leader BEFORE its round-R
        /// release signal, so every rank that completes round R observes it.
        std::uint64_t degrade_after = 0;
    };

    void signal(Cell& c, minimpi::RankCtx& ctx);
    /// One on-node barrier under a Sync span named @p name. The whole
    /// barrier counts as a wait in the sync_wait_us counter.
    void barrier_phase(const char* name);
    /// The one flag wait (detail::block_until): block until @p seq reaches
    /// @p target, then synchronize this rank's clock to that signal's
    /// stamp, read by @p stamp under the lock. @p owner_world publishes the
    /// flag (-1 = not tracked): a flag owned by a dead rank can never be
    /// published, so the waiter raises ProcessFailedError (charging the
    /// deterministic detection latency) instead of waiting forever; a
    /// revoked world comm raises CommRevokedError so survivors blocked on
    /// live-but-erroring peers reach the recovery path too. @p count_trips
    /// lets a late signal count as a watchdog trip.
    template <typename Stamp>
    void wait_flag(const std::uint64_t& seq, std::uint64_t target,
                   int owner_world, bool count_trips, Stamp&& stamp);
    /// World rank that publishes chunk flag @p slot (per-rank, node-release
    /// or socket-release slot).
    int chunk_slot_owner(int slot) const;

    const HierComm* hc_;
    std::shared_ptr<Shared> shared_;
    /// Rank-local mirror of every chunk slot's absolute signal count.
    std::vector<std::uint64_t> chunk_next_;
    std::uint64_t my_ready_epoch_ = 0;
    std::uint64_t release_epoch_ = 0;
    bool degraded_ = false;
    /// This rank's flag traffic crosses the socket boundary: the flag block
    /// is homed on shm rank 0's socket (first touch), so ranks on the other
    /// socket(s) pay xsocket_flag_penalty_us per store/poll. Always false on
    /// 1-socket clusters.
    bool xsocket_flags_ = false;
};

}  // namespace hympi
