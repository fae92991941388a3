#pragma once

#include <mutex>

#include "minimpi/sched.h"

namespace minimpi {

class Transport;
struct RankCtx;

namespace detail {

/// What ends a blocked wait other than completion. Completion always wins;
/// after it, in this order: poison (checked by block_until itself), a dead
/// owner or source, revocation, and the caller's own predicate.
struct WaitInterrupt {
    enum Kind : unsigned char { None, Poisoned, Dead, Revoked, External };
    Kind kind = None;
    int rank = -1;  ///< world rank of the dead owner or source (Dead)

    explicit operator bool() const { return kind != None; }
};

/// Who is waiting. @p ctx is null for a bare Transport (and for the robust
/// ARQ's frame receives): such a wait parks the calling fiber and a dead
/// source raises ProcessFailedError without the detection charge.
struct Waiter {
    Transport& tp;
    RankCtx* ctx;
};

Waiter waiter_of(RankCtx& ctx);

/// Raise the typed error for @p wi: JobAborted for poison;
/// ProcessFailedError for a dead rank, charging the waiter's clock the
/// deterministic detection latency (death vtime + watchdog_us, 0 without a
/// robust config), counting failures_detected and recording a Robust
/// "detect" span; CommRevokedError otherwise.
[[noreturn]] void raise_interrupt(const Waiter& w, const WaitInterrupt& wi);

/// The non-template half of block_until: the registration of the waiting
/// rank at the site, and one pause between two checks.
///
/// The fiber a notify wakes is always the rank's own fiber, also when an
/// engine task waits: the task links the rank's fiber at its site and
/// switches back to the rank, which parks until its own site or any of its
/// tasks' sites is notified (one wake token per rank).
class BlockScope {
public:
    BlockScope(const Waiter& w, WaitSite& site, const WaitDesc& at,
               std::unique_lock<std::mutex>& lock);
    /// Unlinks the registration (taking the site's mutex if not held).
    ~BlockScope();
    BlockScope(const BlockScope&) = delete;
    BlockScope& operator=(const BlockScope&) = delete;

    bool poisoned() const;
    /// Unlink the registration; the caller holds the site's mutex.
    void leave() { site_.unlink(node_); }
    /// Wait for the next chance of progress: link the registration, release
    /// the site, then either (in an engine task) switch back to the rank, or
    /// (in the rank itself) drive every outstanding nonblocking request once
    /// and park until notified. Retakes the site before returning.
    void pause();

private:
    Waiter w_;
    WaitSite& site_;
    const WaitDesc& at_;
    std::unique_lock<std::mutex>& lock_;
    WaitNode node_;
    bool task_;  ///< waiting inside an engine task (ctx.gate set)
};

struct NoInterrupt {
    WaitInterrupt operator()() const { return {}; }
};
struct NoAbandon {
    void operator()() const {}
};

/// The one blocking wait on another rank. Takes @p mu, and returns once
/// done() holds (true), or once why() reports External (false, after
/// abandon()). done(), why() and abandon() run under @p mu; whoever may make
/// done() true notifies @p site under @p mu. Every other interrupt runs
/// abandon() and throws, see raise_interrupt. @p at says what the wait is
/// for, should the job stall. Returns with @p mu released.
template <typename Done, typename Why = NoInterrupt, typename Abandon = NoAbandon>
bool block_until(const Waiter& w, std::mutex& mu, WaitSite& site,
                 const WaitDesc& at, Done&& done, Why&& why = {},
                 Abandon&& abandon = {}) {
    std::unique_lock<std::mutex> lock(mu);
    if (done()) return true;
    BlockScope scope(w, site, at, lock);
    for (;;) {
        const WaitInterrupt wi =
            scope.poisoned() ? WaitInterrupt{WaitInterrupt::Poisoned} : why();
        if (wi) {
            abandon();
            scope.leave();
            lock.unlock();
            if (wi.kind == WaitInterrupt::External) return false;
            raise_interrupt(w, wi);
        }
        scope.pause();
        if (done()) return true;
    }
}

}  // namespace detail

}  // namespace minimpi
