#include "hybrid/recover.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "hybrid/hy_trace.h"
#include "minimpi/runtime.h"
#include "robust/checksum.h"
#include "robust/reliable.h"

namespace hympi {

namespace {

/// WordFold over the agreement outcome: the failed set plus the survivor
/// list. Every survivor must compute the same digest, since agree_shrink
/// finalizes both once under the op lock.
std::uint64_t agreement_digest(const std::vector<int>& failed,
                               const minimpi::CommState& child) {
    robust::WordFold f;
    auto mix = [&f](std::uint64_t v) { f.update(&v, sizeof v); };
    mix(static_cast<std::uint64_t>(failed.size()));
    for (int w : failed) mix(static_cast<std::uint64_t>(w) + 1);
    for (int w : child.members) mix((static_cast<std::uint64_t>(w) << 20) + 1);
    return f.digest();
}

/// The ARQ confirmation leg: rank 0 of the shrunken comm collects every
/// survivor's digest of the agreed outcome and echoes its own back, all
/// over the reliable frame channel (kOpAgree) — so confirmation converges
/// through dropped frames in bounded retries, and robust-mode recovery
/// never trusts a lossy fabric with the one value everyone must share.
/// A digest mismatch (impossible unless memory was corrupted — the outcome
/// is finalized once under the op lock) is fatal.
void confirm_agreement(const minimpi::Comm& world,
                       const std::vector<int>& failed, std::uint64_t gen,
                       const RobustConfig& cfg, minimpi::RankCtx& ctx) {
    const std::uint64_t mine = agreement_digest(failed, world.state());
    RobustStats scratch;  // channel-level counters; rank aggregate is
                          // updated inside reliable_xfer as usual
    bool ok = true;
    if (world.rank() == 0) {
        for (int r = 1; r < world.size(); ++r) {
            std::uint64_t theirs = 0;
            ok = robust::reliable_recv(world, &theirs, sizeof theirs, r,
                                       robust::kOpAgree, gen, cfg, scratch) &&
                 ok;
            if (ctx.payload_mode == minimpi::PayloadMode::Real &&
                theirs != mine) {
                ok = false;
            }
        }
        for (int r = 1; r < world.size(); ++r) {
            ok = robust::reliable_send(world, &mine, sizeof mine, r,
                                       robust::kOpAgree, gen, cfg, scratch) &&
                 ok;
        }
    } else {
        std::uint64_t echo = 0;
        ok = robust::reliable_send(world, &mine, sizeof mine, 0,
                                   robust::kOpAgree, gen, cfg, scratch) &&
             ok;
        ok = robust::reliable_recv(world, &echo, sizeof echo, 0,
                                   robust::kOpAgree, gen, cfg, scratch) &&
             ok;
        if (ctx.payload_mode == minimpi::PayloadMode::Real && echo != mine) {
            ok = false;
        }
    }
    if (!ok) {
        throw minimpi::MpiError(
            "recovery agreement confirmation failed: reliable channel "
            "exhausted its retry budget or digests diverged");
    }
}

}  // namespace

void revoke_hierarchy(const HierComm& hc) {
    // World first: the NodeSync poll loops watch the world comm's revoked
    // flag, so flag waiters unblock as soon as any level is torn down.
    hc.world().revoke();
    hc.shm().revoke();
    if (hc.bridge().valid()) hc.bridge().revoke();
    if (hc.socket().valid()) hc.socket().revoke();
    if (hc.socket_leaders().valid()) hc.socket_leaders().revoke();
}

RecoveryResult shrink_and_rebuild(const minimpi::Comm& broken,
                                  int leaders_per_node) {
    minimpi::RankCtx& ctx = broken.ctx();
    TraceSpan span(ctx, hytrace::Phase::Robust, "recovery");
    RecoveryResult res;

    {
        TraceSpan agree(ctx, hytrace::Phase::Robust, "agree");
        res.world = broken.agree_shrink(&res.failed_world);
        const RobustConfig* cfg = ctx.robust_cfg;
        if (cfg != nullptr && cfg->enabled && res.world.size() > 1) {
            // Generation stamp for the confirmation frames: the broken
            // comm's shrink epoch, identical on every survivor (matched
            // collective order) and fresh per recovery round.
            const std::uint64_t epoch =
                broken.state().member_shrink_epoch.at(
                    static_cast<std::size_t>(broken.rank()));
            const std::uint64_t gen = (0xA6ULL << 56) | epoch;
            confirm_agreement(res.world, res.failed_world, gen, *cfg, ctx);
        }
    }

    {
        TraceSpan rebuild(ctx, hytrace::Phase::Robust, "rebuild");
        res.hier = std::make_shared<HierComm>(res.world, leaders_per_node);
    }

    // Classify the damage against the broken comm's node layout. Members
    // are grouped by simulated node; the first member of a node in comm
    // order is its primary leader (lowest rank leads — the same election
    // rule HierComm just re-applied to the survivors).
    const minimpi::CommState& old_state = broken.state();
    std::map<int, std::pair<int, int>> per_node;  // node -> (members, dead)
    std::map<int, bool> leader_dead;              // node -> its leader died
    for (int w : old_state.members) {
        const int node = ctx.cluster->node_of(w);
        const bool dead = std::find(res.failed_world.begin(),
                                    res.failed_world.end(),
                                    w) != res.failed_world.end();
        auto [it, fresh] = per_node.try_emplace(node, 0, 0);
        if (fresh) leader_dead[node] = dead;
        it->second.first += 1;
        if (dead) it->second.second += 1;
    }
    for (const auto& [node, counts] : per_node) {
        if (counts.second == counts.first) {
            res.node_lost = true;
        } else if (leader_dead[node]) {
            res.leader_replaced = true;
        }
    }

    ctx.robust_stats.shrinks += 1;
    HYTRACE_COUNTER(ctx, shrinks, 1);
    return res;
}

}  // namespace hympi
