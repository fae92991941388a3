#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "hybrid/hy_trace.h"
#include "hybrid/numa_stage.h"
#include "hybrid/shared_buffer.h"
#include "hybrid/sync.h"
#include "minimpi/icoll.h"
#include "robust/robust.h"

namespace hympi {

/// Static labels of one channel's spans and engine requests (string
/// literals: spans never own their names).
struct RoundNames {
    const char* name;  ///< root span of run(), e.g. "hy_allgather"
    const char* coll;  ///< its collective label, e.g. "Hy_Allgather"
    const char* kind = nullptr;         ///< engine request of start()
    const char* start = nullptr;        ///< root span of start()
    const char* start_coll = nullptr;
    const char* finish = nullptr;       ///< wait-side span of start()
    const char* finish_coll = nullptr;
};

/// What one collective plugs into a HybridRound. Null hooks are skipped;
/// run() and start() each read the fields their lifecycle needs.
struct RoundSteps {
    bool all_leaders = false;  ///< every leader bridges its slice (else the
                               ///< primary leader bridges the whole node)
    bool fast_path = true;     ///< a single-node round is one full sync
    std::size_t bytes = 0;     ///< result bytes of the on-node NUMA
                               ///< distribute phase (0: the round has none)
    SocketStaging staging = SocketStaging::Flat;
    std::size_t chunk_bytes = 0;  ///< explicit pipeline chunk override
    /// The whole round once the channel has fallen back to flat MPI.
    std::function<void()> flat;
    /// On-node step between the input sync and the ready phase (the
    /// reductions). Its presence adds the input sync, and in a chunked
    /// round the per-chunk ready flags replace the ready phase.
    std::function<void()> contribute;
    /// Replaces the default ready phase (Hy_Bcast's conditional one).
    std::function<void()> ready;
    /// The whole-message bridge leg of a bridging rank; false when a
    /// robust transfer exhausted its retries. Also the engine task body of
    /// start() (never robust there).
    std::function<bool()> bridge;
    /// The chunked round of every rank (null: the collective never
    /// chunks); returns the robust verdict of a bridging rank.
    std::function<bool(const PipelinePlan&, TraceSpan& root)> chunked;
    /// After a mid-round downgrade: build the flat copy, redo the round.
    std::function<void()> refill;
    // --- start() only ---
    std::function<void()> blocking;  ///< robust: the round run() at post
    std::function<void()> post;      ///< split bookkeeping at post
    const char* side_kind = nullptr;
    /// Engine task of a rank that does not bridge (Hy_Bcast's fill copy).
    std::function<void()> side;
    std::function<void()> done;  ///< tail of every wait-side completion
};

/// One leg of a pairwise ring round: send to rank+k, receive from rank-k.
struct RingLeg {
    const void* send;
    std::size_t send_bytes;
    void* recv;
    std::size_t recv_bytes;
};

/// The round skeleton every hybrid channel shares (paper Figs. 4 and 6,
/// generalised as in arXiv:2007.11496): contribute -> ready sync ->
/// leaders' bridge -> release sync -> on-node NUMA distribute. It owns the
/// round-shape decision (single-node fast path, whole vs chunked pipeline,
/// which leaders bridge), the split-phase start()/wait() lifecycle, the
/// root spans and generation stamps, and the robust ladder: a failed
/// bridge leg either downgrades the channel to flat MPI (channels with a
/// flat rung) or throws a typed RobustError.
///
/// Construction is collective over hc.shm() (it boots the NodeSync).
class HybridRound {
public:
    HybridRound(const HierComm& hc, const RoundNames& names);
    /// The engine tasks capture this round's address.
    HybridRound(const HybridRound&) = delete;
    HybridRound& operator=(const HybridRound&) = delete;

    /// Robust one-offs once the channel's node-shared buffer exists.
    /// @p flat_rung: boot the node failure word and agree on an injected
    /// SHM allocation failure — true when the job agreed to degrade (the
    /// round is already counted as downgraded). Without a flat rung a
    /// failed allocation throws RobustError.
    bool boot(const NodeSharedBuffer& buf, bool flat_rung);

    /// The blocking round; @p bytes annotates the root span.
    void run(SyncPolicy sync, std::size_t bytes, const RoundSteps& s);
    /// The split-phase round: ready sync and the bridging ranks' engine
    /// task at post; release sync, Flat distribute and @p s.done at
    /// wait(). One round in flight per channel (RequestError otherwise);
    /// robust mode completes the round at post.
    minimpi::CollRequest start(SyncPolicy sync, std::size_t bytes,
                               const RoundSteps& s);

    /// The chunked round's node protocol: the producer ships chunk c with
    /// @p ship(c) under one Bridge span and publishes it on the node-level
    /// flag as it lands; every other rank consumes the chunks of lengths
    /// @p lens through the socket tree. Returns the producer's verdict.
    bool chunked(const PipelinePlan& plan, std::span<const std::size_t> lens,
                 bool producer, const char* algo,
                 const std::function<bool(std::size_t)>& ship);

    /// Pairwise ring over the bridge: round k = 1..p-1 sends leg(dst, src)
    /// to dst = rank+k while receiving from src = rank-k, then runs
    /// @p landed(src). Robust: one full-duplex reliable transfer per round
    /// (op tag @p op + k-1); exhaustion marks the result false but keeps
    /// serving later rounds, so every peer terminates. Plain: irecv/send
    /// on tag kTagHier + @p plain_tag + k.
    bool ring(int op, std::uint64_t gen,
              const std::function<RingLeg(int dst, int src)>& leg,
              const std::function<void(int src)>& landed = {},
              int plain_tag = 0);
    /// Reliable linear root fan-out over the bridge (the root ships
    /// part(n) to each other rank n in ascending order) or fan-in (the
    /// root drains part(n), running @p landed after each clean receive);
    /// a non-root moves part(own rank). False on exhaustion.
    bool linear(int root, bool fan_in, int op, std::uint64_t gen,
                const std::function<std::pair<std::byte*, std::size_t>(int)>&
                    part,
                const std::function<void()>& landed = {});

    NodeSync& sync() { return sync_; }
    SocketStager& stager() { return stager_; }
    /// Active robust config, or null on the fast path.
    const RobustConfig* robust() const { return cfg_; }
    /// Channel-unique generation stamp: (channel uid << 32) | round.
    std::uint64_t gen() const {
        return (uid_ << 32) | (generation_ & 0xFFFFFFFFULL);
    }
    /// Matching context of this round's side task: its explicit-sequence
    /// rendezvous context (the formula of create_icoll's match_seq).
    std::uint64_t side_ctx() const;
    const RobustStats& stats() const { return stats_; }
    /// Sticky hybrid->flat downgrade.
    bool degraded_flat() const { return degraded_; }

private:
    bool bridging(const RoundSteps& s) const {
        return s.all_leaders ? hc_->is_leader() : hc_->is_primary_leader();
    }
    void ready(SyncPolicy sync, const RoundSteps& s);
    /// A bridging rank's robust verdict: agree over the bridge and publish
    /// a failure on the node word, or throw without a flat rung.
    void verdict(bool ok);
    /// Count a hybrid->flat downgrade and make it sticky.
    void degrade();
    /// Engine task (or completed request) of a rank that does not bridge.
    minimpi::CollRequest finish_off_bridge(const RoundSteps& s);

    const HierComm* hc_;
    RoundNames names_;
    NodeSync sync_;
    SocketStager stager_;
    const RobustConfig* cfg_ = nullptr;
    std::uint64_t uid_ = 0;
    std::uint64_t generation_ = 0;
    RobustStats stats_;
    bool degraded_ = false;
    std::shared_ptr<NodeFailWord> fail_;  ///< flat-rung channels only

    /// A split-phase round is in flight on THIS rank (children have no
    /// engine task, so the guard cannot live on task_ alone).
    bool active_ = false;
    /// Persistent engine tasks (lazily created, re-armed every round);
    /// their bodies call the current round's hooks.
    std::shared_ptr<minimpi::detail::IcollState> task_;
    std::shared_ptr<minimpi::detail::IcollState> side_task_;
    std::function<bool()> body_;
    std::function<void()> side_;
    std::function<void()> finish_;
};

}  // namespace hympi
