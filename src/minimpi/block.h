#pragma once

#include <condition_variable>
#include <mutex>

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

/// Where one rank is parked: the mutex and condvar of the site it waits at,
/// registered for the duration of the wait. Poison, a rank's death and a
/// revocation wake every parked rank through it (Transport::wake_parked).
///
/// Lock order: the waiter registers without holding the site's mutex and
/// deregisters after releasing it; the waker holds `mu` while it takes the
/// site's mutex and notifies. So no wake is lost, and no condvar is used
/// after its owner freed it.
struct ParkRecord {
    std::mutex mu;
    std::mutex* site_mu = nullptr;
    std::condition_variable* site_cv = nullptr;

    /// Waker side: notify the registered site, if any.
    void wake();
};

/// Who is waiting. @p ctx is null for a bare Transport (and for the robust
/// ARQ's frame receives): such a wait always parks and a dead source
/// raises ProcessFailedError without the detection charge.
struct Waiter {
    Transport& tp;
    RankCtx* ctx;
    int me;  ///< world rank whose park record the wait uses
};

Waiter waiter_of(RankCtx& ctx);

/// Raise the typed error for @p wi: JobAborted for poison;
/// ProcessFailedError for a dead rank, charging the waiter's clock the
/// deterministic detection latency (death vtime + watchdog_us, 0 without a
/// robust config), counting failures_detected and recording a Robust
/// "detect" span; CommRevokedError otherwise.
[[noreturn]] void raise_interrupt(const Waiter& w, const WaitInterrupt& wi);

/// The non-template half of block_until: picks the progress mode once,
/// holds the park registration, and runs one step between two checks.
class BlockScope {
public:
    BlockScope(const Waiter& w, std::mutex& mu, std::condition_variable& cv);
    ~BlockScope();
    BlockScope(const BlockScope&) = delete;
    BlockScope& operator=(const BlockScope&) = delete;

    bool poisoned() const;
    /// Wait for the next chance of progress. Under an engine task: release
    /// the site and yield the turn. In owner context with nonblocking
    /// requests outstanding: release the site, drive them all and back off.
    /// Otherwise park on the site's condvar.
    void pause(std::unique_lock<std::mutex>& lock);

private:
    enum class Mode : unsigned char { Park, Yield, Drive };
    Waiter w_;
    std::condition_variable& cv_;
    Mode mode_;
    int spins_ = 0;
};

struct NoInterrupt {
    WaitInterrupt operator()() const { return {}; }
};
struct NoAbandon {
    void operator()() const {}
};

/// The one blocking wait on another rank. Takes @p mu, and returns once
/// done() holds (true), or once why() reports External (false, after
/// abandon()). done(), why() and abandon() run under @p mu; the site
/// notifies @p cv whenever done() may have become true. Every other
/// interrupt runs abandon() and throws, see raise_interrupt. Returns with
/// @p mu released.
template <typename Done, typename Why = NoInterrupt, typename Abandon = NoAbandon>
bool block_until(const Waiter& w, std::mutex& mu, std::condition_variable& cv,
                 Done&& done, Why&& why = {}, Abandon&& abandon = {}) {
    {
        std::lock_guard<std::mutex> lock(mu);
        if (done()) return true;
    }
    BlockScope scope(w, mu, cv);
    std::unique_lock<std::mutex> lock(mu);  // released before scope deregisters
    for (;;) {
        if (done()) return true;
        const WaitInterrupt wi =
            scope.poisoned() ? WaitInterrupt{WaitInterrupt::Poisoned} : why();
        if (wi) {
            abandon();
            lock.unlock();
            if (wi.kind == WaitInterrupt::External) return false;
            raise_interrupt(w, wi);
        }
        scope.pause(lock);
    }
}

}  // namespace detail

}  // namespace minimpi
