#pragma once
// The paper's figures of merit:
//  * static power during hold (Sec. 3/5),
//  * DRNM — dynamic read noise margin: the minimum q/qb separation during
//    a read access [18],
//  * WLcrit — the minimum wordline pulse width that flips the cell during
//    a write [19] (infinite when the cell cannot be written at all),
//  * write delay (WL assertion to storage-node crossover) and read delay
//    (WL assertion to a sensable bitline droop), Sec. 5.

#include <functional>
#include <limits>
#include <optional>

#include "sram/operations.hpp"
#include "spice/solver_options.hpp"

namespace tfetsram::sram {

/// Numerical and measurement knobs shared by the metrics.
struct MetricOptions {
    spice::SolverOptions solver;
    OperationTiming timing;
    double assist_fraction = kDefaultAssistFraction;
    double read_duration = 500e-12;   ///< WL assertion for DRNM reads [s]
    double wlcrit_min = 1e-12;        ///< bisection floor [s]
    /// Pulses beyond this count as write failure. Sized for the slowest
    /// corner the paper sweeps (VDD = 0.5 V needs ~3 ns, Fig. 12a).
    double wlcrit_max = 6e-9;
    double wlcrit_rel_tol = 0.03;     ///< bisection convergence
    double write_probe_pulse = 4.0e-9; ///< pulse for delay measurement [s]
    double read_sense_margin = 0.05;  ///< bitline droop that counts as read [V]
    double flip_threshold_frac = 0.5; ///< |q-qb| fraction of VDD deciding a flip
};

/// Hold-state static power with the cell storing q = q_high. Computed from
/// the device equations at the solved operating point. NaN when the hold
/// state cannot be established.
double hold_static_power(SramCell& cell, bool q_high,
                         const MetricOptions& opts = {});

/// Worst case over both stored values.
double worst_hold_static_power(SramCell& cell, const MetricOptions& opts = {});

struct DrnmResult {
    double drnm = 0.0;  ///< min separation of safe/disturb node [V]
    bool flipped = false;
    bool valid = false; ///< simulation succeeded
};

/// Dynamic read noise margin, optionally with a read assist.
DrnmResult dynamic_read_noise_margin(SramCell& cell,
                                     Assist assist = Assist::kNone,
                                     const MetricOptions& opts = {});

/// Critical wordline pulse width, optionally with a write assist. Returns
/// +infinity when even the longest pulse cannot flip the cell (write
/// failure), and NaN when the simulation itself fails. The search is
/// critical_pulse_search over attempt_write. A pulse whose outcome the
/// writes already simulated decide is not simulated, so a transient that
/// would have failed at such a pulse cannot turn the result into NaN.
double critical_wordline_pulse(SramCell& cell, Assist assist = Assist::kNone,
                               const MetricOptions& opts = {});

/// Write delay: wordline 50 % assertion to storage-node crossover, using a
/// long probe pulse. NaN when the write fails.
double write_delay(SramCell& cell, Assist assist = Assist::kNone,
                   const MetricOptions& opts = {});

/// Read delay: wordline 50 % assertion to the sensed bitline drooping by
/// `read_sense_margin`, with floating (precharged) bitlines. NaN when no
/// droop develops.
double read_delay(SramCell& cell, Assist assist = Assist::kNone,
                  const MetricOptions& opts = {});

/// Result of one attempted write (used by WLcrit and exposed for tests).
struct WriteOutcome {
    bool simulated = false;
    bool flipped = false;
    double final_separation = 0.0; ///< v(q) - v(qb) at the end, sign-adjusted
    /// Storage-node crossover time, measured from the start of the
    /// wordline's asserting edge [s]: when the node that held the high
    /// level first drops below the other one. NaN when the nodes never
    /// crossed. critical_wordline_pulse brackets WLcrit around the
    /// crossover of its longest write.
    double crossover = std::numeric_limits<double>::quiet_NaN();
};

/// Run one write of the preferred polarity with the given pulse width.
/// `hold_cache`, when non-null, caches the pre-write hold state across
/// calls: the hold bias at t = 0 does not depend on the pulse width, so a
/// bisection caller (critical_wordline_pulse) solves it exactly once. A
/// cached state whose size no longer matches the circuit is ignored and
/// re-solved.
WriteOutcome attempt_write(SramCell& cell, double pulse_width, Assist assist,
                           const MetricOptions& opts,
                           std::optional<HoldState>* hold_cache = nullptr);

inline constexpr double kInfinitePulse =
    std::numeric_limits<double>::infinity();

/// One write of a given pulse width, as critical_pulse_search sees it.
using PulseWrite = std::function<WriteOutcome(double pulse_width)>;

/// Factor around the crossover guess that critical_pulse_search probes:
/// first guess * factor (expected to flip), then guess / factor (expected
/// not to).
inline constexpr double kWlcritHintFactor = 1.1;

/// The search core of critical_wordline_pulse, over any write predicate.
/// It runs the plain bisection's control flow (the `wlcrit_max` write
/// first, then `wlcrit_min`, then midpoints until (hi - lo) / hi <=
/// `wlcrit_rel_tol`, with the same +inf and NaN returns), but routes every
/// pulse through a monotone oracle: a pulse at or above the shortest
/// flipping pulse seen so far flips, a pulse at or below the longest
/// non-flipping one does not, and only pulses strictly between the two
/// reach `write`. Right after the `wlcrit_max` write it probes its
/// crossover time g at g * kWlcritHintFactor and g / kWlcritHintFactor
/// (clamped to the range), so the bracket is tight from the start; a
/// probe whose write fails to simulate is ignored. When the outcome is
/// monotone in pulse width the result is bit-for-bit the plain
/// bisection's.
double critical_pulse_search(const PulseWrite& write,
                             const MetricOptions& opts);

/// Dynamic energy of one write operation (all sources, assist rails
/// included), using a pulse of `pulse_width`. This quantifies the "dynamic
/// power overhead to generate lowered GND" the paper concedes in Sec. 4.3.
/// NaN when the simulation fails.
double write_energy(SramCell& cell, double pulse_width,
                    Assist assist = Assist::kNone,
                    const MetricOptions& opts = {});

/// Dynamic energy of one read access (clamped bitlines, assist included).
double read_energy(SramCell& cell, Assist assist = Assist::kNone,
                   const MetricOptions& opts = {});

/// Data-retention voltage: the lowest supply at which the cell still holds
/// both states (bisection on VDD over hold operating points). The floor of
/// the paper's low-VDD ambitions. NaN if even the starting VDD fails.
double data_retention_voltage(const CellConfig& config,
                              double vdd_max = 0.0, // 0 -> config.vdd
                              const MetricOptions& opts = {});

} // namespace tfetsram::sram
