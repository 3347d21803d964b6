#pragma once
// The plain WLcrit bisection, kept as the reference that
// sram::critical_pulse_search is checked against. Every pulse it asks for
// is simulated: the longest pulse first, then the floor, then midpoints of
// [wlcrit_min, wlcrit_max] until (hi - lo) / hi <= wlcrit_rel_tol.
// Test-only; the library has a single search.

#include <limits>
#include <optional>

#include "sram/metrics.hpp"

namespace tfetsram::sram::testing {

inline double reference_bisection(const PulseWrite& write,
                                  const MetricOptions& opts) {
    const WriteOutcome at_max = write(opts.wlcrit_max);
    if (!at_max.simulated)
        return std::numeric_limits<double>::quiet_NaN();
    if (!at_max.flipped)
        return kInfinitePulse;

    const WriteOutcome at_min = write(opts.wlcrit_min);
    if (at_min.simulated && at_min.flipped)
        return opts.wlcrit_min;

    double lo = opts.wlcrit_min; // known-failing
    double hi = opts.wlcrit_max; // known-passing
    while ((hi - lo) / hi > opts.wlcrit_rel_tol) {
        const double mid = 0.5 * (lo + hi);
        const WriteOutcome out = write(mid);
        if (!out.simulated)
            return std::numeric_limits<double>::quiet_NaN();
        if (out.flipped)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

/// The reference over real writes of `cell`, sharing one cached hold state
/// across attempts exactly as critical_wordline_pulse does.
inline double reference_wordline_pulse(SramCell& cell, Assist assist,
                                       const MetricOptions& opts) {
    std::optional<HoldState> hold;
    return reference_bisection(
        [&](double pulse) {
            return attempt_write(cell, pulse, assist, opts, &hold);
        },
        opts);
}

} // namespace tfetsram::sram::testing
