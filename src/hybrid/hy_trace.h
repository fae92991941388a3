#pragma once

#include "minimpi/comm.h"
#include "minimpi/trace_span.h"

/// Hybrid-layer tracing helpers on top of minimpi/trace_span.h: scoped
/// byte attribution for the two counters whose value is a *delta* of
/// existing CommStats fields across a phase, so the counter is correct by
/// construction no matter which algorithm ran inside the scope.
namespace hympi {

using minimpi::TraceSpan;

/// Attributes the bytes_sent delta across its lifetime to the enclosing
/// span and the rank's bridge_bytes counter. Scope exactly around a bridge
/// exchange.
class BridgeBytesScope {
public:
    BridgeBytesScope(minimpi::RankCtx& ctx, TraceSpan& span)
        : ctx_(&ctx), span_(&span), before_(ctx.stats.bytes_sent) {}
    ~BridgeBytesScope() {
        const std::uint64_t delta = ctx_->stats.bytes_sent - before_;
        span_->set_bytes(delta);
        HYTRACE_COUNTER(*ctx_, bridge_bytes, delta);
    }
    BridgeBytesScope(const BridgeBytesScope&) = delete;
    BridgeBytesScope& operator=(const BridgeBytesScope&) = delete;

private:
    minimpi::RankCtx* ctx_;
    TraceSpan* span_;
    std::uint64_t before_;
};

/// Attributes the memcpy_bytes delta across its lifetime to the enclosing
/// span and the rank's shm_bytes counter. Scope around node-shared copy
/// phases (repack, on-node staging).
class ShmBytesScope {
public:
    ShmBytesScope(minimpi::RankCtx& ctx, TraceSpan& span)
        : ctx_(&ctx), span_(&span), before_(ctx.stats.memcpy_bytes) {}
    ~ShmBytesScope() {
        const std::uint64_t delta = ctx_->stats.memcpy_bytes - before_;
        span_->set_bytes(delta);
        HYTRACE_COUNTER(*ctx_, shm_bytes, delta);
    }
    ShmBytesScope(const ShmBytesScope&) = delete;
    ShmBytesScope& operator=(const ShmBytesScope&) = delete;

private:
    minimpi::RankCtx* ctx_;
    TraceSpan* span_;
    std::uint64_t before_;
};

/// The Bridge-phase span of one leaders' exchange over @p bridge: name,
/// algorithm and bridge shape, with the bytes sent inside it attributed by
/// construction (BridgeBytesScope).
class BridgeSpan {
public:
    BridgeSpan(const minimpi::Comm& bridge, const char* algo,
               const char* name = "bridge_exchange")
        : span_(bridge.ctx(), hytrace::Phase::Bridge, name),
          bytes_(bridge.ctx(), span_) {
        span_.set_algo(algo);
        span_.set_comm(bridge.size(), bridge.rank());
    }
    void set_chunks(std::uint64_t n) { span_.set_chunks(n); }

private:
    TraceSpan span_;
    BridgeBytesScope bytes_;
};

}  // namespace hympi
