#pragma once

#include <cstddef>
#include <cstdint>

#include "minimpi/context.h"
#include "trace/recorder.h"

/// RAII bridge between rank code and the hytrace recorder. All recording
/// sites in minimpi/hybrid/robust go through this header; with tracing off
/// at runtime, each site costs one null-pointer test.
namespace minimpi {

/// Opens a span on construction (at the rank's current virtual time) and
/// closes it on destruction. Scope it exactly around the interval being
/// measured; annotate with the setters while open.
class TraceSpan {
public:
    TraceSpan(RankCtx& ctx, hytrace::Phase phase, const char* name)
        : ctx_(&ctx), rec_(ctx.spans) {
        if (rec_ != nullptr) idx_ = rec_->begin(phase, name, ctx.vck().now());
    }
    ~TraceSpan() {
        if (rec_ != nullptr) rec_->end(idx_, ctx_->vck().now());
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    bool active() const { return rec_ != nullptr; }

    void set_coll(const char* coll) {
        if (rec_ != nullptr) rec_->span(idx_).coll = coll;
    }
    void set_algo(const char* algo) {
        if (rec_ != nullptr) rec_->span(idx_).algo = algo;
    }
    void set_bytes(std::uint64_t bytes) {
        if (rec_ != nullptr) rec_->span(idx_).bytes = bytes;
    }
    void add_bytes(std::uint64_t bytes) {
        if (rec_ != nullptr) rec_->span(idx_).bytes += bytes;
    }
    void set_peer(int world_rank) {
        if (rec_ != nullptr) rec_->span(idx_).peer = world_rank;
    }
    void set_chunks(std::uint64_t chunks) {
        if (rec_ != nullptr) rec_->span(idx_).chunks = chunks;
    }
    /// Identify the communicator by shape, not context id (ids come from a
    /// wall-clock-ordered atomic and would break trace determinism).
    void set_comm(int comm_size, int comm_rank) {
        if (rec_ != nullptr) {
            hytrace::Span& s = rec_->span(idx_);
            s.comm_size = comm_size;
            s.comm_rank = comm_rank;
        }
    }

private:
    RankCtx* ctx_;
    hytrace::Recorder* rec_;
    std::size_t idx_ = 0;
};

/// True when per-message p2p spans should be recorded for @p ctx. Opt-in
/// (HYMPI_TRACE_P2P / RunOptions::span_p2p): they dominate trace volume.
inline bool trace_p2p(const RankCtx& ctx) {
    return ctx.spans != nullptr && ctx.spans->p2p();
}

/// Record a complete leaf span [t0, now] after the fact (used where the
/// interval is only known once it has elapsed, e.g. a recv wait).
inline hytrace::Span* trace_complete(RankCtx& ctx, hytrace::Phase phase,
                                     const char* name, VTime t0) {
    if (ctx.spans == nullptr) return nullptr;
    return &ctx.spans->complete(phase, name, t0, ctx.vck().now());
}

/// Record a zero-duration event (retransmit, degradation) at now.
inline hytrace::Span* trace_instant(RankCtx& ctx, hytrace::Phase phase,
                                    const char* name) {
    if (ctx.spans == nullptr) return nullptr;
    return &ctx.spans->instant(phase, name, ctx.vck().now());
}

/// Bump a per-rank counter field, e.g.
/// HYTRACE_COUNTER(ctx, retransmits, 1). Placed at the exact code site
/// performing the counted action so counters stay truthful by construction.
#define HYTRACE_COUNTER(ctx, field, delta)                          \
    do {                                                            \
        if ((ctx).spans != nullptr) {                               \
            (ctx).spans->counters().field +=                        \
                static_cast<decltype((ctx).spans->counters().field)>(delta); \
        }                                                           \
    } while (0)

}  // namespace minimpi
