// Unit tests of the WLcrit search core (sram::critical_pulse_search) on
// synthetic monotone step predicates: a write flips the cell iff its pulse
// is at or above a threshold, and reports a chosen crossover time as the
// bracket hint. Every case is run through the plain bisection as well
// (tests/wlcrit_reference.hpp): the search must return the same value bit
// for bit and must not simulate more pulses than the hint can pay for.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sram/metrics.hpp"
#include "wlcrit_reference.hpp"

namespace tfetsram::sram {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A monotone step predicate with a fixed crossover hint. Pulses listed in
/// `failing` do not simulate (a transient failure). Counts every call.
struct StepWrite {
    double threshold;
    double hint;
    std::vector<double> failing;
    int calls = 0;

    PulseWrite fn() {
        return [this](double pulse) {
            ++calls;
            WriteOutcome out;
            for (double f : failing)
                if (pulse == f)
                    return out;
            out.simulated = true;
            out.flipped = pulse >= threshold;
            out.crossover = hint;
            return out;
        };
    }
};

struct Outcome {
    double value;
    int calls;
};

Outcome run_search(double threshold, double hint,
               std::vector<double> failing = {}) {
    StepWrite w{threshold, hint, std::move(failing)};
    const double v = critical_pulse_search(w.fn(), MetricOptions{});
    return {v, w.calls};
}

Outcome run_reference(double threshold, double hint,
                  std::vector<double> failing = {}) {
    StepWrite w{threshold, hint, std::move(failing)};
    const double v = testing::reference_bisection(w.fn(), MetricOptions{});
    return {v, w.calls};
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Thresholds log-spaced over [0.5 ps, 10 ns], plus the two boundary
/// outcomes: a cell that flips at the 1 ps floor and one that never flips.
std::vector<double> thresholds() {
    std::vector<double> t;
    const int n = 160;
    for (int i = 0; i <= n; ++i)
        t.push_back(0.5e-12 * std::pow(10e-9 / 0.5e-12, double(i) / n));
    t.push_back(MetricOptions{}.wlcrit_min);
    t.push_back(kInfinitePulse);
    return t;
}

std::string describe(double threshold, double hint) {
    std::ostringstream os;
    os << "threshold=" << threshold << " hint=" << hint;
    return os.str();
}

TEST(WlcritSearch, BoundaryOutcomes) {
    const MetricOptions opts;
    // Never flips: one write decides it.
    const Outcome never = run_search(kInfinitePulse, 1e-10);
    EXPECT_TRUE(std::isinf(never.value));
    EXPECT_EQ(never.calls, 1);
    // Flips at the floor with the hint there too: the lower probe is the
    // floor write itself.
    const Outcome floor = run_search(opts.wlcrit_min, 0.5e-12);
    EXPECT_EQ(floor.value, opts.wlcrit_min);
    EXPECT_EQ(floor.calls, 2);
    // The longest write fails to simulate: NaN, nothing else tried.
    const Outcome broken = run_search(1e-10, 1e-10, {opts.wlcrit_max});
    EXPECT_TRUE(std::isnan(broken.value));
    EXPECT_EQ(broken.calls, 1);
}

// An exact, a near (within the probe factor) and a missing hint: same
// value as the plain bisection, never more writes, and at most 8 writes
// when the hint is within a factor kWlcritHintFactor of the threshold.
TEST(WlcritSearch, GoodOrMissingHintNeverCostsMore) {
    const MetricOptions opts;
    const std::vector<double> ratios = {1.0 / kWlcritHintFactor, 0.95, 1.0,
                                        1.05, 1.09};
    for (double t : thresholds()) {
        for (double ratio : ratios) {
            const double hint = std::isinf(t) ? 1e-10 : t * ratio;
            const Outcome got = run_search(t, hint);
            const Outcome ref = run_reference(t, hint);
            SCOPED_TRACE(describe(t, hint));
            EXPECT_TRUE(same_bits(got.value, ref.value));
            EXPECT_LE(got.calls, 8);
            // At or below the floor the plain bisection spends the two
            // writes any search needs; an upper probe that still lands
            // above the floor adds one.
            EXPECT_LE(got.calls, ref.calls + (t <= opts.wlcrit_min ? 1 : 0));
        }
        const Outcome got = run_search(t, kNaN);
        const Outcome ref = run_reference(t, kNaN);
        SCOPED_TRACE(describe(t, kNaN));
        EXPECT_TRUE(same_bits(got.value, ref.value));
        EXPECT_LE(got.calls, ref.calls);
    }
}

// A hint ten times too low: the upper probe fails to flip and stands in
// for the floor write, so the search never costs more.
TEST(WlcritSearch, TenfoldLowHintNeverCostsMore) {
    for (double t : thresholds()) {
        const double hint = std::isinf(t) ? 1e-11 : t / 10.0;
        const Outcome got = run_search(t, hint);
        const Outcome ref = run_reference(t, hint);
        SCOPED_TRACE(describe(t, hint));
        EXPECT_TRUE(same_bits(got.value, ref.value));
        EXPECT_LE(got.calls, ref.calls);
    }
}

// A hint ten times too high: both probes flip. They save the bisection's
// long midpoints (3 ns, 1.5 ns, ...) at or above them, which covers their
// cost once WLcrit is well below the probes; otherwise they cost at most
// the two probe writes.
TEST(WlcritSearch, TenfoldHighHintCostsAtMostTheProbes) {
    for (double t : thresholds()) {
        const double hint = std::isinf(t) ? 1e-9 : t * 10.0;
        const Outcome got = run_search(t, hint);
        const Outcome ref = run_reference(t, hint);
        SCOPED_TRACE(describe(t, hint));
        EXPECT_TRUE(same_bits(got.value, ref.value));
        EXPECT_LE(got.calls, ref.calls + 2);
        if (t >= 20e-12 && t <= 150e-12) { // the paper's WLcrit range
            EXPECT_LE(got.calls, ref.calls);
        }
    }
}

// A probe whose transient fails is ignored: the result is the plain
// bisection's (run over the same failing predicate), and the two probe
// writes are the only extra cost.
TEST(WlcritSearch, FailedProbeIsIgnored) {
    const MetricOptions opts;
    for (double t : thresholds()) {
        if (std::isinf(t))
            continue;
        const double up = std::clamp(t * kWlcritHintFactor, opts.wlcrit_min,
                                     opts.wlcrit_max);
        const double down = std::clamp(t / kWlcritHintFactor,
                                       opts.wlcrit_min, opts.wlcrit_max);
        for (const std::vector<double>& failing :
             {std::vector<double>{up}, std::vector<double>{down},
              std::vector<double>{up, down}}) {
            const Outcome got = run_search(t, t, failing);
            const Outcome ref = run_reference(t, t, failing);
            SCOPED_TRACE(describe(t, t));
            EXPECT_TRUE(same_bits(got.value, ref.value));
            EXPECT_LE(got.calls, ref.calls + 2);
        }
    }
}

// A pulse the oracle cannot decide still fails the search when its
// transient fails, exactly as in the plain bisection.
TEST(WlcritSearch, UndecidedTransientFailureIsNaN) {
    const double t = 80e-12;
    // The first midpoint inside the bracket [t / 1.1, t * 1.1].
    const MetricOptions opts;
    double lo = opts.wlcrit_min;
    double hi = opts.wlcrit_max;
    double inside = kNaN;
    while ((hi - lo) / hi > opts.wlcrit_rel_tol) {
        const double mid = 0.5 * (lo + hi);
        if (mid > t / kWlcritHintFactor && mid < t * kWlcritHintFactor) {
            inside = mid;
            break;
        }
        (mid >= t ? hi : lo) = mid;
    }
    ASSERT_FALSE(std::isnan(inside));
    EXPECT_TRUE(std::isnan(run_search(t, t, {inside}).value));
    EXPECT_TRUE(std::isnan(run_reference(t, t, {inside}).value));
}

} // namespace
} // namespace tfetsram::sram
