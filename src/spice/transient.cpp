#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/stats.hpp"

namespace tfetsram::spice {

// ---------------------------------------------------------- TransientResult

const la::Vector& TransientResult::state(std::size_t i) const {
    TFET_EXPECTS(i < states_.size());
    return states_[i];
}

double TransientResult::end_time() const {
    TFET_EXPECTS(!time_.empty());
    return time_.back();
}

const la::Vector& TransientResult::last_state() const {
    TFET_EXPECTS(!states_.empty());
    return states_.back();
}

void TransientResult::append(double t, la::Vector x) {
    TFET_EXPECTS(time_.empty() || t >= time_.back());
    time_.push_back(t);
    states_.push_back(std::move(x));
}

double TransientResult::voltage(NodeId node, std::size_t i) const {
    return node_voltage(state(i), node);
}

double TransientResult::voltage_at(NodeId node, double t) const {
    TFET_EXPECTS(!time_.empty());
    if (t <= time_.front())
        return node_voltage(states_.front(), node);
    if (t >= time_.back())
        return node_voltage(states_.back(), node);
    const auto it = std::upper_bound(time_.begin(), time_.end(), t);
    const std::size_t hi = static_cast<std::size_t>(it - time_.begin());
    const std::size_t lo = hi - 1;
    const double span = time_[hi] - time_[lo];
    const double frac = span > 0.0 ? (t - time_[lo]) / span : 0.0;
    const double v_lo = node_voltage(states_[lo], node);
    const double v_hi = node_voltage(states_[hi], node);
    return v_lo + frac * (v_hi - v_lo);
}

double TransientResult::final_voltage(NodeId node) const {
    TFET_EXPECTS(!states_.empty());
    return node_voltage(states_.back(), node);
}

double TransientResult::min_difference(NodeId a, NodeId b, double t_from,
                                       double t_to) const {
    // A window that misses the trace entirely has no samples to take a
    // minimum over: report NaN ("no data") rather than the +infinity the
    // empty min would produce, which downstream margin metrics would read
    // as an infinitely comfortable margin.
    if (time_.empty() || t_to < t_from || t_to < time_.front() ||
        t_from > time_.back())
        return std::numeric_limits<double>::quiet_NaN();
    double m = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < time_.size(); ++i) {
        if (time_[i] < t_from || time_[i] > t_to)
            continue;
        m = std::min(m, node_voltage(states_[i], a) -
                            node_voltage(states_[i], b));
    }
    // Include the exact window edges via interpolation so narrow windows
    // between samples still produce a value.
    m = std::min(m, voltage_at(a, t_from) - voltage_at(b, t_from));
    m = std::min(m, voltage_at(a, t_to) - voltage_at(b, t_to));
    return m;
}

double TransientResult::first_crossing_below(NodeId a, NodeId b,
                                             double threshold,
                                             double t_from) const {
    double prev_d = std::numeric_limits<double>::quiet_NaN();
    double prev_t = 0.0;
    for (std::size_t i = 0; i < time_.size(); ++i) {
        if (time_[i] < t_from)
            continue;
        const double d =
            node_voltage(states_[i], a) - node_voltage(states_[i], b);
        if (!std::isnan(prev_d) && prev_d > threshold && d <= threshold) {
            const double frac = (prev_d - threshold) / (prev_d - d);
            return prev_t + frac * (time_[i] - prev_t);
        }
        if (std::isnan(prev_d) && d <= threshold)
            return time_[i];
        prev_d = d;
        prev_t = time_[i];
    }
    return std::numeric_limits<double>::quiet_NaN();
}

// ----------------------------------------------------------- transient run

namespace {

/// Comparison tolerance for landing on / consuming breakpoints and for
/// end-of-window detection at time t. The absolute floor (1e-21 s) covers
/// t near zero; beyond ~1 ms that floor is smaller than one ulp of t, so
/// exact-landing tests would never fire — a few ulps of t take over there.
double time_tol(double t) {
    return std::max(1e-21, 8.0 * std::numeric_limits<double>::epsilon() * t);
}

/// Max over node unknowns of |err| / (abstol + reltol*|x_new|), where err
/// is x_new's distance from the linear-extrapolation predictor
/// x + slope * (x - x_prev), formed in place.
double lte_ratio(const la::Vector& x_new, const la::Vector& x,
                 const la::Vector& x_prev, double slope,
                 std::size_t n_node_unknowns, const SolverOptions& opts) {
    double worst = 0.0;
    for (std::size_t i = 0; i < n_node_unknowns; ++i) {
        const double pred = x[i] + slope * (x[i] - x_prev[i]);
        const double tol =
            opts.lte_abstol + opts.lte_reltol * std::fabs(x_new[i]);
        worst = std::max(worst, std::fabs(x_new[i] - pred) / tol);
    }
    return worst;
}

} // namespace

TransientResult solve_transient(Circuit& circuit, const SimContext& ctx,
                                double t_end, const StopCondition& stop,
                                const la::Vector* dc_guess) {
    TFET_EXPECTS(t_end > 0.0);
    const ScopedContext bind(ctx);
    const SolverOptions& opts = ctx.options();
    ++ctx.stats().transient_solves;
    TransientResult result;

    // Operating point at t = 0.
    DcResult dc = solve_dc(circuit, ctx, 0.0, dc_guess);
    if (!dc.converged) {
        result.message = "transient: t=0 operating point did not converge";
        result.time_reached = 0.0;
        if (dc.error.has_value()) {
            result.error = std::move(dc.error);
        } else {
            SolveError err;
            err.code = SolveErrorCode::kNonConvergence;
            err.message = result.message;
            result.error = std::move(err);
        }
        return result;
    }
    for (const auto& dev : circuit.devices())
        dev->begin_transient(dc.x);
    result.append(0.0, dc.x);

    const std::size_t n_node_unknowns = circuit.num_nodes() - 1;

    std::vector<double> breakpoints = circuit.source_breakpoints();
    breakpoints.push_back(t_end);
    std::size_t next_bp = 0;

    double t = 0.0;
    double dt = opts.dt_initial;
    // Three state buffers rotate through the loop: accepting a step
    // swaps them instead of allocating.
    la::Vector x = dc.x;       // accepted state at t
    la::Vector x_prev = dc.x;  // accepted state one step earlier
    la::Vector x_new;          // candidate state at t + dt
    double dt_prev = 0.0;
    bool history_valid = false; // can we form the LTE predictor?
    bool force_be = true;       // backward Euler on first step / post-break

    AnalysisState as;
    as.mode = AnalysisMode::kTransient;
    as.integrator = opts.integrator;

    for (std::size_t step = 0; step < opts.max_steps; ++step) {
        result.time_reached = t;
        if (t >= t_end - time_tol(t_end)) {
            result.completed = true;
            return result;
        }
        // Cancellation checkpoint: one poll per transient step. Expiry is
        // graceful — everything integrated so far stays in the result
        // (states, time_reached), the error records where the run stopped.
        {
            const SolveErrorCode status = ctx.poll_cancellation();
            if (status != SolveErrorCode::kNone) {
                ++ctx.stats().cancelled_solves;
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "transient: %s at t=%.6e s (%.1f%% of t_end), "
                              "partial waveform preserved",
                              status == SolveErrorCode::kCancelled
                                  ? "cancelled"
                                  : "deadline expired",
                              t, 100.0 * t / t_end);
                result.message = buf;
                SolveError err;
                err.code = status;
                err.message = buf;
                err.time = t;
                err.last_iterate = x; // last accepted state
                result.error = std::move(err);
                return result;
            }
        }
        // Advance past consumed breakpoints; land on the next one.
        while (next_bp < breakpoints.size() &&
               breakpoints[next_bp] <= t + time_tol(t))
            ++next_bp;
        if (next_bp < breakpoints.size())
            dt = std::min(dt, breakpoints[next_bp] - t);
        dt = std::min(dt, t_end - t);
        dt = std::min(dt, opts.dt_max);

        // Newton solve for the candidate step, shrinking dt on failure.
        bool solved = false;
        for (int attempt = 0; attempt < 40; ++attempt) {
            as.time = t + dt;
            as.dt = dt;
            // After two failed attempts, drop this step to backward Euler:
            // L-stable and independent of the trapezoidal current history,
            // which can turn hostile across sharp source edges.
            as.first_transient_step = force_be || attempt >= 2;
            x_new = x; // warm start from the current state
            const int iters =
                detail::newton_raphson(circuit, as, ctx, opts.gmin, x_new);
            if (iters > 0) {
                solved = true;
                break;
            }
            // A Newton failure caused by cancellation must not be "fixed"
            // by shrinking dt — every retry would fail at its first poll.
            {
                const SolveErrorCode status = ctx.cancellation_status();
                if (status != SolveErrorCode::kNone) {
                    ++ctx.stats().cancelled_solves;
                    char buf[160];
                    std::snprintf(buf, sizeof(buf),
                                  "transient: %s during Newton at t=%.6e s, "
                                  "partial waveform preserved",
                                  status == SolveErrorCode::kCancelled
                                      ? "cancelled"
                                      : "deadline expired",
                                  t);
                    result.message = buf;
                    SolveError err;
                    err.code = status;
                    err.message = buf;
                    err.time = t;
                    err.last_iterate = x;
                    result.error = std::move(err);
                    return result;
                }
            }
            dt *= 0.25;
            if (dt < opts.dt_min) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "transient: Newton failed at t=%.6e s "
                              "(%.1f%% of t_end) with dt below dt_min "
                              "(step %zu)",
                              t, 100.0 * t / t_end, step);
                result.message = buf;
                SolveError err;
                err.code = SolveErrorCode::kDtUnderflow;
                err.message = buf;
                err.time = t;
                err.last_iterate = x; // last accepted state
                result.error = std::move(err);
                return result;
            }
        }
        if (!solved) {
            result.message = "transient: Newton retries exhausted";
            SolveError err;
            err.code = SolveErrorCode::kNonConvergence;
            err.message = result.message;
            err.time = t;
            err.last_iterate = x;
            result.error = std::move(err);
            return result;
        }

        // Local truncation error control via linear-extrapolation predictor.
        if (history_valid && dt_prev > 0.0) {
            const double ratio = lte_ratio(x_new, x, x_prev, dt / dt_prev,
                                           n_node_unknowns, opts);
            if (ratio > 4.0 && dt > opts.dt_min * 8.0) {
                dt *= 0.5; // reject and retry with a finer step
                continue;
            }
            const double grow =
                ratio > 0.0 ? 0.9 * std::pow(ratio, -1.0 / 3.0) : 2.0;
            dt_prev = dt;
            dt *= std::clamp(grow, 0.3, 2.0);
        } else {
            dt_prev = dt;
            dt *= 2.0;
        }

        // Accept the step.
        ++ctx.stats().transient_steps;
        for (const auto& dev : circuit.devices())
            dev->accept_step(as, x_new);
        std::swap(x_prev, x);
        std::swap(x, x_new); // x_new keeps the oldest buffer for reuse
        t = as.time;
        result.append(t, x);
        result.time_reached = t;
        history_valid = true;
        force_be = false;

        // A breakpoint lands exactly on t: slope discontinuity ahead, so the
        // predictor and trapezoidal history are invalid.
        if (next_bp < breakpoints.size() &&
            std::fabs(breakpoints[next_bp] - t) <= time_tol(t)) {
            history_valid = false;
            force_be = true;
            dt = opts.dt_initial;
        }

        if (stop && stop(t, x)) {
            result.completed = true;
            result.stopped_early = true;
            return result;
        }
    }
    result.message = "transient: max step count exceeded";
    SolveError err;
    err.code = SolveErrorCode::kMaxStepsExceeded;
    err.message = result.message;
    err.time = t;
    err.last_iterate = x;
    result.error = std::move(err);
    return result;
}

TransientResult solve_transient(Circuit& circuit, const SolverOptions& opts,
                                double t_end, const StopCondition& stop,
                                const la::Vector* dc_guess) {
    const SimContext& ambient = ambient_context();
    if (&opts == &ambient.options())
        return solve_transient(circuit, ambient, t_end, stop, dc_guess);
    // One view for the whole run: every step's Newton work shares it.
    const SimContext view = ambient.with_options(opts);
    return solve_transient(circuit, view, t_end, stop, dc_guess);
}

} // namespace tfetsram::spice
