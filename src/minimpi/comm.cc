#include "minimpi/comm.h"

#include <map>
#include <tuple>

#include "minimpi/error.h"
#include "minimpi/icoll.h"
#include "minimpi/runtime.h"

namespace minimpi {

namespace detail {

WaitInterrupt comm_interrupt(const CommState& st) {
    Transport& tp = st.runtime->transport();
    if (tp.any_dead()) {
        for (int w : st.members) {
            if (tp.is_dead(w)) return {WaitInterrupt::Dead, w};
        }
    }
    if (st.revoked.load(std::memory_order_acquire)) {
        return {WaitInterrupt::Revoked};
    }
    return {};
}

void throw_comm_interrupt(const CommState& st, RankCtx& ctx) {
    raise_interrupt(waiter_of(ctx), comm_interrupt(st));
}

}  // namespace detail

CommState& Comm::require() const {
    if (state_ == nullptr) {
        throw CommError("operation on a null communicator");
    }
    return *state_;
}

namespace {

/// Rendezvous payload for Comm::split.
struct SplitData {
    /// (color, key, parent rank) per contributor.
    std::vector<std::tuple<int, int, int>> contribs;
    /// color -> child communicator, built by the finalizer.
    std::map<int, CommState*> children;
};

}  // namespace

Comm Comm::split(int color, int key) const {
    CommState& st = require();
    Runtime* rt = st.runtime;
    const VTime cost = rt->one_off_sync_cost(st.size());

    auto data = detail::rendezvous<SplitData>(
        st, *ctx_, rank_, cost,
        [&](SplitData& d) { d.contribs.emplace_back(color, key, rank_); },
        [&](SplitData& d) {
            // Group by color (kUndefined opts out), order each child's
            // members by (key, parent rank) as MPI_Comm_split specifies.
            std::map<int, std::vector<std::tuple<int, int, int>>> by_color;
            for (const auto& c : d.contribs) {
                if (std::get<0>(c) != kUndefined) {
                    by_color[std::get<0>(c)].push_back(c);
                }
            }
            for (auto& [child_color, members] : by_color) {
                std::sort(members.begin(), members.end(),
                          [](const auto& a, const auto& b) {
                              return std::make_pair(std::get<1>(a), std::get<2>(a)) <
                                     std::make_pair(std::get<1>(b), std::get<2>(b));
                          });
                std::vector<int> world_members;
                world_members.reserve(members.size());
                for (const auto& m : members) {
                    world_members.push_back(st.to_world(std::get<2>(m)));
                }
                d.children[child_color] =
                    rt->create_comm(std::move(world_members), &st);
            }
        });

    if (color == kUndefined) return Comm();
    CommState* child = data->children.at(color);
    return Comm(child, ctx_, child->from_world(to_world()));
}

Comm Comm::create(std::span<const int> members) const {
    CommState& st = require();
    int my_pos = -1;
    int prev = -1;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const int m = members[i];
        if (m <= prev || m >= st.size()) {
            throw ArgumentError(
                "comm create needs a strictly increasing in-range rank list");
        }
        prev = m;
        if (m == rank_) my_pos = static_cast<int>(i);
    }
    return split(my_pos >= 0 ? 0 : kUndefined, my_pos);
}

void Comm::revoke() const {
    CommState& st = require();
    st.runtime->revoke_comm(st);
}

void Comm::free() const {
    CommState& st = require();
    RankCtx& ctx = *ctx_;
    detail::check_alive(ctx);
    if (st.parent == nullptr) {
        // Roots — the world comm and agree_shrink's recovery comm — are
        // job-lifetime, like MPI_COMM_WORLD.
        throw CommError("free on a root communicator");
    }
    // Freeing under an in-flight nonblocking collective on this comm is
    // erroneous (MPI_Comm_free during active communication): surface the
    // typed error instead of letting the engine task race freed state.
    for (const detail::IcollState* ic : ctx.active_icolls) {
        if (ic->comm_state == &st) {
            throw CommBusyError(
                std::string(ic->kind) +
                " still in flight on the communicator being freed"
                " — complete it with wait() first");
        }
    }
    if (st.freed.load(std::memory_order_acquire)) {
        throw CommError("double free of a communicator");
    }
    Runtime* rt = st.runtime;
    const VTime cost = rt->one_off_sync_cost(st.size());
    struct FreeData {};
    detail::rendezvous<FreeData>(
        st, ctx, rank_, cost, [](FreeData&) {},
        [&](FreeData&) { st.freed.store(true, std::memory_order_release); });
    // Drop this rank's cached hierarchy/channel handles keyed by the comm —
    // the leak-freedom bound for churny (service) workloads. The CommState
    // itself stays registered until the run tears down, so stale handles
    // fail typed instead of dangling.
    ctx.comm_caches.erase(&st);
}

Comm Comm::agree_shrink(std::vector<int>* failed_world) const {
    CommState& st = require();
    RankCtx& ctx = *ctx_;
    detail::check_alive(ctx);
    Runtime* rt = st.runtime;
    Transport& tp = rt->transport();

    struct ShrinkData {
        CommState* child = nullptr;
        std::vector<int> failed;
    };

    std::unique_lock<std::mutex> lock(st.op_mu);
    const std::uint64_t key =
        kShrinkKeyBase +
        st.member_shrink_epoch.at(static_cast<std::size_t>(rank_))++;
    auto& slot_ref = st.ops[key];
    if (!slot_ref) {
        slot_ref = std::make_shared<CommState::OpSlot>();
        slot_ref->data = std::make_shared<ShrinkData>();
    }
    std::shared_ptr<CommState::OpSlot> slot = slot_ref;
    auto data = std::static_pointer_cast<ShrinkData>(slot->data);
    slot->max_clock = std::max(slot->max_clock, ctx.vck().now());
    ++slot->arrived;
    lock.unlock();

    // Completion rule of the fault-tolerant rendezvous: every member is
    // either here or dead. Which killed members count as dead is program
    // order, hence deterministic: a killed rank either reaches this call
    // before crossing its kill time (arrives, survives this round) or dies
    // at an earlier checkpoint (never arrives). Re-evaluated on every wake
    // (a death wakes every parked rank). The first member to observe
    // completion finalizes (under op_mu): survivors keep their old
    // comm-rank order, so the shrunken comm is identical on every survivor
    // with no extra exchange. Dead members and revocation are the point of
    // this call, so only poison interrupts it.
    const detail::WaitDesc at = detail::WaitDesc::rendezvous(st.ctx_coll, key);
    detail::block_until(detail::waiter_of(ctx), st.op_mu, slot->site, at, [&] {
        if (slot->done) return true;
        int ndead = 0;
        for (int w : st.members) {
            if (tp.is_dead(w)) ++ndead;
        }
        if (slot->arrived + ndead < st.size()) return false;
        ShrinkData& d = *data;
        std::vector<int> survivors;
        for (int w : st.members) {
            if (tp.is_dead(w)) {
                d.failed.push_back(w);
            } else {
                survivors.push_back(w);
            }
        }
        // Deliberately parentless: the recovery comm must survive
        // (re-)revocation of the broken comm it descends from.
        d.child = rt->create_comm(std::move(survivors));
        slot->done = true;
        slot->site.notify_all();
        return true;
    });

    lock.lock();
    CommState* child = data->child;
    const std::vector<int> failed = data->failed;
    const VTime max_clock = slot->max_clock;
    if (++slot->left == child->size()) {
        st.ops.erase(key);
    }
    lock.unlock();

    ctx.vck().sync_to(max_clock);
    ctx.vck().advance(rt->one_off_sync_cost(child->size()));

    if (failed_world != nullptr) *failed_world = failed;
    return Comm(child, ctx_, child->from_world(st.to_world(rank_)));
}

Comm Comm::dup() const {
    CommState& st = require();
    Runtime* rt = st.runtime;
    const VTime cost = rt->one_off_sync_cost(st.size());

    struct DupData {
        CommState* child = nullptr;
    };
    auto data = detail::rendezvous<DupData>(
        st, *ctx_, rank_, cost, [](DupData&) {},
        [&](DupData& d) { d.child = rt->create_comm(st.members, &st); });
    return Comm(data->child, ctx_, rank_);
}

}  // namespace minimpi
