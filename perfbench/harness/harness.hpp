#pragma once
// Shared types of the benchmark harness: the pinned configuration, the
// in-memory span recorder of a traced repetition, and the interface every
// workload implements. The harness drives the simulator only through the
// public functions of its layers; spans are recorded here, around those
// calls, never inside the program.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runner/json.hpp"
#include "runner/runner.hpp"
#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/stats.hpp"

namespace perfbench {

using namespace tfetsram;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Threads an MC workload uses in total (runner workers x MC lanes). Fixed,
/// not derived from the host, so every run does the same work.
inline constexpr std::size_t kThreads = 4;

/// Scratch directories inside the checkout. The result cache is off, so
/// nothing is written to them; they only keep stray paths out of the tree.
inline constexpr const char* kScratchDir = ".bench_build/scratch";

/// Simulation config built in code: explicit solver policy, seed and
/// directories, no deadline and no private fault plan. Nothing here is
/// read from the environment.
spice::SimConfig pinned_sim_config(std::uint64_t seed);

/// Runner config built in code: cache off, no telemetry files, quarantine
/// failures instead of aborting so they count as failed ops.
runner::RunnerConfig pinned_runner_config(std::string name,
                                          std::size_t workers,
                                          std::uint64_t seed);

/// One closed interval of work at a layer boundary. Times are seconds
/// since the recorder was created; `parent` indexes the causing span
/// (-1 for a root); `tag` distinguishes spans of one name (an engine or
/// assist name).
struct Span {
    std::string name;
    std::string tag;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
};

/// Thread-safe span recorder. A disabled recorder reads no clock and
/// stores nothing, so untraced repetitions pay one branch per boundary.
class Trace {
public:
    explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
    Trace(const Trace&) = delete;
    Trace& operator=(const Trace&) = delete;

    [[nodiscard]] bool enabled() const { return enabled_; }

    int begin(std::string name, int parent = -1, std::string tag = {}) {
        if (!enabled_)
            return -1;
        const double t = now();
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({std::move(name), std::move(tag), parent, t, t});
        return static_cast<int>(spans_.size()) - 1;
    }

    void end(int id) {
        if (id < 0)
            return;
        const double t = now();
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    /// Valid once every thread that recorded has joined.
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    [[nodiscard]] double now() const {
        return seconds_between(epoch_, Clock::now());
    }

    bool enabled_;
    Clock::time_point epoch_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

class ScopedSpan {
public:
    ScopedSpan(Trace& trace, std::string name, int parent = -1,
               std::string tag = {})
        : trace_(trace),
          id_(trace.begin(std::move(name), parent, std::move(tag))) {}
    ~ScopedSpan() { trace_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int id() const { return id_; }

private:
    Trace& trace_;
    int id_;
};

/// Solver work of one group of circuits that share a unit cost (the
/// workload's cells, or one array engine), read from the SimContexts the
/// group ran under.
struct CircuitGroup {
    std::string name;
    spice::SolverStats stats;
};

/// Measured cost of one assembly and one factorization of a circuit.
struct UnitCosts {
    double assemble_us = 0.0;
    double factor_us = 0.0;
};

/// Outcome of one repetition of a workload.
struct Repetition {
    double wall_s = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems; ///< one line per failed op
    std::vector<CircuitGroup> groups;
    /// Exact result values that must repeat bit for bit across
    /// repetitions of one seed (determinism check).
    std::vector<double> fingerprint;
    /// Result summary checked against the stored reference by run.py.
    runner::Json outputs;
    /// Workload-specific per-layer counts (MC samples, array ops, ...).
    std::map<std::string, double> counts;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// One-time work before the timed part: model tables, sampler, circuit
    /// construction. Called several times; the last call's state is used.
    virtual void setup() = 0;

    /// One cold repetition at the workload's stated size. Spans go to
    /// `trace` when it is enabled.
    virtual Repetition run(Trace& trace) = 0;

    /// Unit costs per circuit group, measured by calling the layers'
    /// public functions on the workload's own circuits (traced runs only).
    virtual std::map<std::string, UnitCosts> probe_unit_costs() = 0;

    /// Device-layer probes of the workload's own model tables and draw
    /// stream: seconds of table building per repetition, tables built per
    /// repetition, and ns per batched I-V evaluation.
    virtual double probe_table_build_s() = 0;
    [[nodiscard]] virtual double table_builds_per_rep() const = 0;
    virtual double probe_eval_ns() = 0;

    /// The effective sizes and settings, recorded in the output.
    [[nodiscard]] virtual runner::Json config() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// ---- probes (probes.cpp) -------------------------------------------------

/// Median over `repeats` timed batches of the seconds per call of `fn`,
/// each batch looping it until `batch_s` elapses.
template <typename Fn>
double median_call_s(Fn&& fn, int repeats = 5, double batch_s = 0.02) {
    std::vector<double> per_call;
    for (int r = 0; r < repeats; ++r) {
        std::size_t calls = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            fn();
            ++calls;
            elapsed = seconds_between(t0, Clock::now());
        } while (elapsed < batch_s);
        per_call.push_back(elapsed / static_cast<double>(calls));
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[per_call.size() / 2];
}

/// Assembly and factorization cost of `circuit` on the kernel its context
/// routes it to, at the solver's last Newton solution (the circuit must
/// have been solved once).
UnitCosts probe_circuit(spice::Circuit& circuit,
                        const spice::SimContext& ctx);

/// ns per I-V sample of `model`'s batched path (TransistorModel::iv_many)
/// over 4096 seeded biases in [-vmax, vmax].
double probe_iv_many_ns(const spice::TransistorModel& model,
                        std::uint64_t seed, double vmax);

} // namespace perfbench
