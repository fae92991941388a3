#include "minimpi/block.h"

#include <chrono>
#include <thread>

#include "minimpi/error.h"
#include "minimpi/icoll_gate.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"

namespace minimpi::detail {

namespace {

/// Real-time backoff between progress sweeps: cheap CPU yields first, then
/// short sleeps, so a genuinely stalled peer does not burn a core. Never
/// touches virtual time.
void backoff(int spins) {
    if (spins < 256) {
        std::this_thread::yield();
    } else if (spins < 4096) {
        std::this_thread::sleep_for(std::chrono::microseconds(2));
    } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

}  // namespace

void ParkRecord::wake() {
    std::lock_guard<std::mutex> lock(mu);
    if (site_cv == nullptr) return;
    std::lock_guard<std::mutex> site(*site_mu);
    site_cv->notify_all();
}

Waiter waiter_of(RankCtx& ctx) {
    return Waiter{ctx.runtime->transport(), &ctx, ctx.world_rank};
}

void raise_interrupt(const Waiter& w, const WaitInterrupt& wi) {
    if (wi.kind == WaitInterrupt::Poisoned) w.tp.check_poison();
    if (wi.kind != WaitInterrupt::Dead) throw CommRevokedError();
    const VTime death = w.tp.death_vtime(wi.rank);
    if (RankCtx* ctx = w.ctx) {
        // Deterministic detection latency: the dead rank fell silent at its
        // (program-determined) death vtime; the watchdog that was due
        // watchdog_us later is what notices — never host scheduling.
        const VTime watchdog =
            ctx->robust_cfg != nullptr ? ctx->robust_cfg->watchdog_us : 0.0;
        const VTime t0 = ctx->vck().now();
        ctx->vck().sync_to(death + watchdog);
        ctx->robust_stats.failures_detected += 1;
        HYTRACE_COUNTER(*ctx, failures_detected, 1);
        if (hytrace::Span* s =
                trace_complete(*ctx, hytrace::Phase::Robust, "detect", t0)) {
            s->peer = wi.rank;
        }
    }
    throw ProcessFailedError(wi.rank, death);
}

BlockScope::BlockScope(const Waiter& w, std::mutex& mu,
                       std::condition_variable& cv)
    : w_(w),
      cv_(cv),
      mode_(w.ctx == nullptr                   ? Mode::Park
            : w.ctx->gate != nullptr           ? Mode::Yield
            : !w.ctx->active_icolls.empty()    ? Mode::Drive
                                               : Mode::Park) {
    if (mode_ != Mode::Park) return;
    ParkRecord& p = w_.tp.park_record(w_.me);
    std::lock_guard<std::mutex> lock(p.mu);
    p.site_mu = &mu;
    p.site_cv = &cv;
}

BlockScope::~BlockScope() {
    if (mode_ != Mode::Park) return;
    ParkRecord& p = w_.tp.park_record(w_.me);
    std::lock_guard<std::mutex> lock(p.mu);
    p.site_mu = nullptr;
    p.site_cv = nullptr;
}

bool BlockScope::poisoned() const { return w_.tp.poisoned(); }

void BlockScope::pause(std::unique_lock<std::mutex>& lock) {
    if (mode_ == Mode::Park) {
        cv_.wait(lock);
        return;
    }
    lock.unlock();
    if (mode_ == Mode::Yield) {
        w_.ctx->gate->yield();
    } else {
        icoll_progress(*w_.ctx);
        backoff(spins_++);
    }
    lock.lock();
}

}  // namespace minimpi::detail
