#include "minimpi/block.h"

#include <stdexcept>

#include "minimpi/error.h"
#include "minimpi/icoll_gate.h"
#include "minimpi/runtime.h"
#include "minimpi/trace_span.h"

namespace minimpi::detail {

Waiter waiter_of(RankCtx& ctx) {
    return Waiter{ctx.runtime->transport(), &ctx};
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

BlockScope::BlockScope(const Waiter& w, WaitSite& site, const WaitDesc& at,
                       std::unique_lock<std::mutex>& lock)
    : w_(w),
      site_(site),
      at_(at),
      lock_(lock),
      task_(w.ctx != nullptr && w.ctx->gate != nullptr) {
    node_.fiber = w.ctx != nullptr && w.ctx->fiber != nullptr ? w.ctx->fiber
                                                              : current_fiber();
    // Only the rank's own fiber parks; a task yields through its gate. A task
    // torn down with its gate unset (its unwinding blocking again) or a
    // plain thread has no way to wait.
    if (node_.fiber == nullptr ||
        (!task_ && (node_.fiber->scheduler() == nullptr ||
                    node_.fiber != current_fiber()))) {
        throw std::logic_error(
            "minimpi: a blocking wait outside a rank of a running job");
    }
}

BlockScope::~BlockScope() {
    if (lock_.owns_lock()) {
        site_.unlink(node_);
    } else {
        std::lock_guard<std::mutex> relock(*lock_.mutex());
        site_.unlink(node_);
    }
}

bool BlockScope::poisoned() const { return w_.tp.poisoned(); }

void BlockScope::pause() {
    site_.link(node_);
    lock_.unlock();
    if (task_) {
        w_.ctx->gate->yield();
    } else {
        if (w_.ctx != nullptr) icoll_progress(*w_.ctx);
        node_.fiber->scheduler()->park(*node_.fiber, at_);
    }
    lock_.lock();
}

}  // namespace minimpi::detail
