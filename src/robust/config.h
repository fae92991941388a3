#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hympi {

/// Configuration of the resilience layer. Resolved once per Runtime::run
/// and wired read-only into every rank context; never consulted when
/// `enabled` is false, so the fault-free fast path is untouched.
struct RobustConfig {
    /// Master switch (HYMPI_ROBUST=1). Off: the legacy behaviour — faults
    /// abort or corrupt, exactly as before this layer existed.
    bool enabled = false;

    /// Bounded retry budget per frame transfer (HYMPI_RETRY_MAX). A
    /// receiver NACKs a bad/dropped frame at most this many times before
    /// declaring the transfer failed and triggering the degradation ladder.
    int retry_max = 8;

    /// Virtual-time cost charged when the watchdog detects a lost frame or
    /// a divergent flag round (HYMPI_WATCHDOG_US). Also the deadline used
    /// by NodeSync to classify a flag signal as "late", and the detection
    /// latency charged when a wait surfaces a dead peer. 0 is the
    /// strictest setting (any waited-for flag counts as late; failures are
    /// detected at the death instant), not a disable knob.
    double watchdog_us = 50.0;

    /// Consecutive late flag rounds tolerated before NodeSync downgrades
    /// Flags -> Barrier for the rest of the job.
    int sync_trip_limit = 3;

    /// Print the per-rank RobustStats aggregate to stderr when a run
    /// finishes with any counter nonzero.
    bool dump_at_finalize = false;

    /// Resolve from the environment: HYMPI_ROBUST, HYMPI_RETRY_MAX,
    /// HYMPI_WATCHDOG_US (dump_at_finalize defaults to `enabled`, so an
    /// operator who switched robustness on also gets the finalize report).
    ///
    /// Numeric variables are parsed strictly: the whole value must be a
    /// nonnegative number in range (atoi-style silent truncation of
    /// "8abc" -> 8 or "abc" -> 0 hid typos). A malformed value falls back
    /// to the built-in default with ONE stderr warning per variable per
    /// process naming the variable, the rejected value and the fallback —
    /// repeated from_env() calls (one per Runtime) stay silent.
    static RobustConfig from_env() {
        RobustConfig c;
        if (const char* v = std::getenv("HYMPI_ROBUST")) {
            c.enabled = v[0] != '\0' && v[0] != '0';
        }
        if (const char* v = std::getenv("HYMPI_RETRY_MAX")) {
            char* end = nullptr;
            errno = 0;
            const long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || errno == ERANGE || n < 0 ||
                n > INT_MAX) {
                static bool warned = false;
                if (!warned) {
                    warned = true;
                    std::fprintf(stderr,
                                 "hympi: invalid HYMPI_RETRY_MAX=\"%s\" "
                                 "(want a nonnegative integer); using "
                                 "default %d\n",
                                 v, c.retry_max);
                }
            } else {
                c.retry_max = static_cast<int>(n);
            }
        }
        if (const char* v = std::getenv("HYMPI_WATCHDOG_US")) {
            char* end = nullptr;
            errno = 0;
            const double d = std::strtod(v, &end);
            if (end == v || *end != '\0' || errno == ERANGE ||
                !std::isfinite(d) || d < 0.0) {
                static bool warned = false;
                if (!warned) {
                    warned = true;
                    std::fprintf(stderr,
                                 "hympi: invalid HYMPI_WATCHDOG_US=\"%s\" "
                                 "(want a nonnegative number); using "
                                 "default %g\n",
                                 v, c.watchdog_us);
                }
            } else {
                c.watchdog_us = d;
            }
        }
        c.dump_at_finalize = c.enabled;
        return c;
    }
};

}  // namespace hympi
