#pragma once

#include <cstddef>

#include "trace/span.h"

namespace hytrace {

/// Per-rank span/counter recorder. Exactly one thread (the owning rank's)
/// touches a recorder during a run; the runtime collects them afterwards.
///
/// Spans are stored in BEGIN order with their nesting depth, which is all
/// the exporter and report need to rebuild the hierarchy: a span's children
/// are the following spans with greater depth, up to the next span with
/// depth <= its own.
class Recorder {
public:
    explicit Recorder(bool p2p = false) : p2p_(p2p) {}

    /// Whether per-message p2p spans are wanted. They dominate trace volume
    /// (every send/recv of every rank), so they are opt-in; the per-phase
    /// breakdown only needs the coarse phase spans.
    bool p2p() const { return p2p_; }

    /// Open a span at @p t0; returns its index for end()/span().
    std::size_t begin(Phase phase, const char* name, VTime t0) {
        const std::size_t idx = spans_.size();
        Span s;
        s.phase = phase;
        s.name = name;
        s.depth = depth_;
        s.t_start = t0;
        s.t_end = t0;
        spans_.push_back(s);
        ++depth_;
        return idx;
    }

    /// Close the span opened as @p idx at @p t1.
    void end(std::size_t idx, VTime t1) {
        spans_[idx].t_end = t1;
        --depth_;
    }

    /// Mutable access to an open span (set coll/algo/bytes/peer).
    Span& span(std::size_t idx) { return spans_[idx]; }

    /// Record a complete leaf span [t0, t1] at the current depth.
    Span& complete(Phase phase, const char* name, VTime t0, VTime t1) {
        Span s;
        s.phase = phase;
        s.name = name;
        s.depth = depth_;
        s.t_start = t0;
        s.t_end = t1;
        spans_.push_back(s);
        return spans_.back();
    }

    /// Record a zero-duration event at @p t (retransmits, degradations).
    Span& instant(Phase phase, const char* name, VTime t) {
        return complete(phase, name, t, t);
    }

    Counters& counters() { return counters_; }
    const Counters& counters() const { return counters_; }
    const std::vector<Span>& spans() const { return spans_; }

    /// Number of currently open (unbalanced) spans; 0 after a clean run.
    int open_depth() const { return depth_; }

private:
    std::vector<Span> spans_;
    Counters counters_;
    std::uint16_t depth_ = 0;
    bool p2p_ = false;
};

}  // namespace hytrace
