// Benchmark harness entry point.
//
//   perfbench_harness --workload <mc_write|mc_read|array_rw> --seed <n>
//                     --seconds <s> --trace <0|1>
//
// Sets the workload up several times (median = setup_s), then repeats it
// cold until `--seconds` have elapsed (median = wall_s, after one warm-up
// repetition). With --trace 1, repetitions alternate untraced and traced:
// the traced ones record spans around the layer calls, and unit-cost
// probes bracket them, so the per-layer split and the tracing overhead
// come from one process. Prints one JSON line with every measurement and
// the outputs run.py checks.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/env.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 25;
constexpr std::size_t kMinReps = 3;

double median(std::vector<double> v) {
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of `v` (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The SolverStats fields that must repeat exactly for a fixed seed and
/// thread count (sparse_ordering_us is a wall time and is left out).
std::vector<std::pair<const char*, std::uint64_t>>
exact_counts(const spice::SolverStats& s) {
    return {{"assemblies", s.assemblies},
            {"nr_iterations", s.nr_iterations},
            {"line_search_backtracks", s.line_search_backtracks},
            {"dc_solves", s.dc_solves},
            {"transient_solves", s.transient_solves},
            {"transient_steps", s.transient_steps},
            {"lu_factorizations", s.lu_factorizations},
            {"sparse_refactorizations", s.sparse_refactorizations},
            {"sparse_symbolic_analyses", s.sparse_symbolic_analyses},
            {"sparse_static_pivot_hits", s.sparse_static_pivot_hits},
            {"sparse_pivot_fallbacks", s.sparse_pivot_fallbacks},
            {"batched_evals", s.batched_evals},
            {"deadline_polls", s.deadline_polls},
            {"hier_promotions", s.hier_promotions},
            {"hier_demotions", s.hier_demotions},
            {"hier_relinearizations", s.hier_relinearizations},
            {"hier_guard_retries", s.hier_guard_retries},
            {"sparse_pattern_nnz", s.sparse_pattern_nnz},
            {"sparse_lu_nnz", s.sparse_lu_nnz},
            {"hier_active_unknowns", s.hier_active_unknowns}};
}

spice::SolverStats total_stats(const Repetition& rep) {
    spice::SolverStats total;
    for (const CircuitGroup& g : rep.groups)
        total += g.stats;
    return total;
}

/// Differences between `rep` and the first repetition of the same seed:
/// solver counts per group and the exact result fingerprint.
std::vector<std::string> determinism_diffs(const Repetition& first,
                                           const Repetition& rep) {
    std::vector<std::string> diffs;
    if (first.groups.size() != rep.groups.size())
        diffs.push_back("circuit groups differ");
    for (std::size_t g = 0;
         g < std::min(first.groups.size(), rep.groups.size()); ++g) {
        const auto a = exact_counts(first.groups[g].stats);
        const auto b = exact_counts(rep.groups[g].stats);
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i].second != b[i].second)
                diffs.push_back(first.groups[g].name + "." + a[i].first +
                                ": " + std::to_string(a[i].second) + " vs " +
                                std::to_string(b[i].second));
    }
    if (first.fingerprint.size() != rep.fingerprint.size() ||
        std::memcmp(first.fingerprint.data(), rep.fingerprint.data(),
                    first.fingerprint.size() * sizeof(double)) != 0)
        diffs.push_back("result values differ");
    return diffs;
}

struct Probes {
    std::map<std::string, UnitCosts> unit;
    double table_build_s = 0.0;
    double table_builds = 0.0;
    double eval_ns = 0.0;
};

Probes run_probes(Workload& wl) {
    Probes p;
    p.unit = wl.probe_unit_costs();
    p.table_build_s = wl.probe_table_build_s();
    p.table_builds = wl.table_builds_per_rep();
    p.eval_ns = wl.probe_eval_ns();
    return p;
}

/// Mean of the probes taken before the first and after the last traced
/// repetition, so host speed drifting during the run moves the unit costs
/// the way it moves the spans they are compared with.
Probes bracket(const Probes& a, const Probes& b) {
    Probes p = a;
    for (auto& [group, c] : p.unit) {
        c.assemble_us = 0.5 * (c.assemble_us + b.unit.at(group).assemble_us);
        c.factor_us = 0.5 * (c.factor_us + b.unit.at(group).factor_us);
    }
    p.table_build_s = 0.5 * (a.table_build_s + b.table_build_s);
    p.eval_ns = 0.5 * (a.eval_ns + b.eval_ns);
    return p;
}

/// Length of the union of [start, end) intervals.
double covered(std::vector<std::pair<double, double>> iv) {
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
        if (a > hi) {
            if (hi > lo)
                total += hi - lo;
            lo = a;
            hi = b;
        } else {
            hi = std::max(hi, b);
        }
    }
    if (hi > lo)
        total += hi - lo;
    return total;
}

/// Per-layer metrics of one traced repetition: exact counts from the
/// SolverStats of its contexts, times from its spans, and computed shares
/// (counts x probed unit costs).
std::map<std::string, double> layer_metrics(const Repetition& rep,
                                            const Trace& trace,
                                            const Probes& probes) {
    std::map<std::string, double> m;
    const spice::SolverStats s = total_stats(rep);
    const auto count = [&](const char* key) {
        const auto it = rep.counts.find(key);
        return it == rep.counts.end() ? 0.0 : it->second;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    // Computed shares: every group's counts times its own unit cost.
    double assemble_s = 0.0;
    double factor_s = 0.0;
    for (const CircuitGroup& g : rep.groups) {
        const auto it = probes.unit.find(g.name);
        if (it == probes.unit.end())
            continue;
        assemble_s += d(g.stats.assemblies) * it->second.assemble_us * 1e-6;
        factor_s += d(g.stats.lu_factorizations) * it->second.factor_us * 1e-6;
    }

    const std::vector<Span>& spans = trace.spans();
    std::vector<double> metric_ms;
    double metric_busy = 0.0;
    double op_busy = 0.0;
    std::vector<double> flat_ms;
    std::vector<double> mixed_ms;
    double prefix = 0.0;
    double fanout = 0.0;
    double engine_s = 0.0;
    double queue_wait = 0.0;
    double run_wall = 0.0;
    std::vector<std::pair<double, double>> task_iv;
    std::size_t tasks = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& sp = spans[i];
        const double dur = sp.end - sp.start;
        if (sp.name == "sram.metric") {
            metric_ms.push_back(1e3 * dur);
            metric_busy += dur;
        } else if (sp.name == "array.op") {
            op_busy += dur;
            const bool init = sp.tag.ends_with(":init");
            if (!init && sp.tag.starts_with("flat:"))
                flat_ms.push_back(1e3 * dur);
            if (!init && sp.tag.starts_with("mixed:"))
                mixed_ms.push_back(1e3 * dur);
        } else if (sp.name == "mc.engine") {
            // Engine entry -> first metric callback is the serial prefix
            // (up-front draws + nominal seed solve); the rest is fan-out.
            double first = sp.end;
            for (const Span& c : spans)
                if (c.name == "sram.metric" &&
                    c.parent == static_cast<int>(i))
                    first = std::min(first, c.start);
            prefix += first - sp.start;
            fanout += sp.end - first;
            engine_s += dur;
        } else if (sp.name == "runner.task") {
            ++tasks;
            task_iv.emplace_back(sp.start, sp.end);
            if (sp.parent >= 0)
                queue_wait +=
                    sp.start - spans[static_cast<std::size_t>(sp.parent)].start;
        } else if (sp.name == "runner.run") {
            run_wall += dur;
        }
    }
    const double solve_busy = metric_busy + op_busy;

    m["device.table_builds"] = probes.table_builds;
    m["device.table_build_s"] = probes.table_build_s;
    m["device.evals"] = d(s.batched_evals);
    m["device.eval_ns"] = probes.eval_ns;
    m["device.eval_s"] = d(s.batched_evals) * probes.eval_ns * 1e-9;

    m["spice.assemblies"] = d(s.assemblies);
    m["spice.nr_iterations"] = d(s.nr_iterations);
    m["spice.line_search_backtracks"] = d(s.line_search_backtracks);
    m["spice.dc_solves"] = d(s.dc_solves);
    m["spice.transient_solves"] = d(s.transient_solves);
    m["spice.transient_steps"] = d(s.transient_steps);
    m["spice.assemble_us"] =
        s.assemblies > 0 ? 1e6 * assemble_s / d(s.assemblies) : 0.0;
    m["spice.assemble_s"] = assemble_s;
    m["spice.newton_self_s"] = solve_busy - assemble_s - factor_s;

    m["la.factorizations"] = d(s.lu_factorizations);
    m["la.sparse_refactors"] = d(s.sparse_refactorizations);
    m["la.static_pivot_hit_ratio"] =
        s.sparse_refactorizations > 0
            ? d(s.sparse_static_pivot_hits) / d(s.sparse_refactorizations)
            : 0.0;
    m["la.pivot_fallbacks"] = d(s.sparse_pivot_fallbacks);
    m["la.ordering_s"] = d(s.sparse_ordering_us) * 1e-6;
    m["la.factor_us"] =
        s.lu_factorizations > 0 ? 1e6 * factor_s / d(s.lu_factorizations)
                                : 0.0;
    m["la.factor_s"] = factor_s;
    m["la.lu_nnz"] = d(s.sparse_lu_nnz);
    m["la.fill_ratio"] = s.sparse_pattern_nnz > 0
                             ? d(s.sparse_lu_nnz) / d(s.sparse_pattern_nnz)
                             : 0.0;

    m["sram.metric_calls"] = static_cast<double>(metric_ms.size());
    m["sram.metric_busy_s"] = metric_busy;
    m["sram.metric_p50_ms"] = percentile(metric_ms, 0.50);
    m["sram.metric_p95_ms"] = percentile(metric_ms, 0.95);

    m["mc.samples"] = count("mc.samples");
    m["mc.censored"] = count("mc.censored");
    m["mc.retried"] = count("mc.retried");
    m["mc.prefix_s"] = prefix;
    m["mc.fanout_s"] = fanout;
    m["mc.lane_efficiency"] =
        fanout > 0.0 ? metric_busy / (count("mc.lanes") * fanout) : 0.0;
    m["mc.prefix_share"] = engine_s > 0.0 ? prefix / engine_s : 0.0;

    m["array.ops"] = count("array.ops");
    m["array.flat_op_p50_ms"] = percentile(flat_ms, 0.50);
    m["array.unknowns"] = count("array.unknowns");
    m["hier.op_p50_ms"] = percentile(mixed_ms, 0.50);
    m["hier.promotions"] = d(s.hier_promotions);
    m["hier.demotions"] = d(s.hier_demotions);
    m["hier.relinearizations"] = d(s.hier_relinearizations);
    m["hier.guard_retries"] = d(s.hier_guard_retries);
    m["hier.active_unknowns"] = d(s.hier_active_unknowns);

    m["runner.tasks"] = static_cast<double>(tasks);
    m["runner.queue_wait_s"] = queue_wait;
    m["runner.overhead_s"] = run_wall - covered(task_iv);

    m["split.la_spice_share"] =
        solve_busy > 0.0 ? (assemble_s + factor_s) / solve_busy : 0.0;
    return m;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            const auto v = env::parse_int(val);
            if (!v || *v < 0)
                return std::nullopt;
            a.seed = static_cast<std::uint64_t>(*v);
        } else if (key == "--seconds") {
            const auto v = env::parse_double(val);
            if (!v || *v <= 0.0)
                return std::nullopt;
            a.seconds = *v;
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return std::nullopt;
            a.trace = val == "1";
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || a.workload.empty())
        return std::nullopt;
    return a;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

runner::Json numbers(const std::vector<double>& v) {
    runner::Json j = runner::Json::array();
    for (double x : v)
        j.push_back(x);
    return j;
}

int run(const Args& args) {
    // The simulator is configured in code; the environment may not change
    // the work. Fault injection would, so refuse it outright. The
    // mixed-level engine's latched-cell cache still reads TFETSRAM_CACHE,
    // so pin it off for this process.
    const char* faults = env::raw("TFETSRAM_FAULTS");
    if (faults != nullptr && *faults != '\0') {
        std::cerr << "perfbench: TFETSRAM_FAULTS is set; refusing to "
                     "benchmark with fault injection armed\n";
        return 3;
    }
    if (setenv("TFETSRAM_CACHE", "off", 1) != 0)
        return 3;

    std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
    if (wl == nullptr) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "' (mc_write, mc_read, array_rw)\n";
        return 2;
    }

    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        wl->setup();
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    // Repetition 0 warms the allocator and page tables: the first pass
    // faults in every table and workspace the process will reuse. It is
    // checked like the others but left out of the wall medians.
    std::vector<Repetition> reps;
    std::vector<std::unique_ptr<Trace>> traces; // null for untraced reps
    std::vector<double> walls;
    std::vector<double> traced_walls;
    Probes before;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const std::size_t i = reps.size();
        const bool traced = args.trace && i % 2 == 0 && i > 0;
        if (traced && i == 2)
            before = run_probes(*wl);
        auto trace = std::make_unique<Trace>(traced);
        reps.push_back(wl->run(*trace));
        if (i > 0)
            (traced ? traced_walls : walls).push_back(reps.back().wall_s);
        traces.push_back(traced ? std::move(trace) : nullptr);
        const std::size_t min_reps = 1 + (args.trace ? 2 : 1) * kMinReps;
        if (reps.size() >= min_reps &&
            seconds_between(start, Clock::now()) >= args.seconds)
            break;
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    runner::Json problems = runner::Json::array();
    runner::Json determinism = runner::Json::array();
    for (std::size_t i = 0; i < reps.size(); ++i) {
        attempted += reps[i].attempted;
        failed += reps[i].failed;
        for (const std::string& p : reps[i].problems)
            if (problems.size() < 20)
                problems.push_back("rep " + std::to_string(i) + ": " + p);
        const std::vector<std::string> diffs =
            determinism_diffs(reps.front(), reps[i]);
        // A repetition that disagrees with the first counts as failed ops.
        if (!diffs.empty())
            failed += reps[i].attempted;
        for (const std::string& diff : diffs)
            if (determinism.size() < 20)
                determinism.push_back("rep " + std::to_string(i) + ": " +
                                      diff);
    }

    runner::Json config = wl->config();
    config.set("workload", args.workload);
    config.set("seed", static_cast<std::uint64_t>(args.seed));
    config.set("nproc", static_cast<std::uint64_t>(
                            std::thread::hardware_concurrency()));
    config.set("build_type", PERFBENCH_BUILD_TYPE);
    config.set("solver_mode", "auto (pinned)");
    config.set("result_cache", "off");
    config.set("fault_injection", "none");
    config.set("setups", kSetups);

    runner::Json counts = runner::Json::object();
    for (const CircuitGroup& g : reps.front().groups) {
        runner::Json group = runner::Json::object();
        for (const auto& [name, value] : exact_counts(g.stats))
            group.set(name, value);
        counts.set(g.name, std::move(group));
    }

    runner::Json out = runner::Json::object();
    out.set("config", std::move(config));
    out.set("setup_s", numbers(setup_s));
    out.set("wall_s", numbers(walls));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("problems", std::move(problems));
    out.set("determinism", std::move(determinism));
    out.set("counts", std::move(counts));
    out.set("outputs", reps.front().outputs);

    if (args.trace) {
        const Probes probes = bracket(before, run_probes(*wl));
        std::map<std::string, std::vector<double>> per_rep;
        for (std::size_t i = 0; i < reps.size(); ++i) {
            if (traces[i] == nullptr)
                continue;
            for (const auto& [k, v] :
                 layer_metrics(reps[i], *traces[i], probes))
                per_rep[k].push_back(v);
        }
        runner::Json layers = runner::Json::object();
        for (const auto& [k, v] : per_rep)
            layers.set(k, median(v));
        // Each traced repetition against the untraced one just before it,
        // so host speed drifting over the run cancels out of the ratio.
        std::vector<double> overhead;
        for (std::size_t k = 0;
             k < std::min(walls.size(), traced_walls.size()); ++k)
            overhead.push_back(100.0 * (traced_walls[k] / walls[k] - 1.0));
        layers.set("trace.overhead_pct", median(overhead));
        runner::Json unit = runner::Json::object();
        for (const auto& [group, c] : probes.unit) {
            runner::Json j = runner::Json::object();
            j.set("assemble_us", c.assemble_us);
            j.set("factor_us", c.factor_us);
            unit.set(group, std::move(j));
        }
        out.set("traced_wall_s", numbers(traced_walls));
        out.set("unit_costs", std::move(unit));
        out.set("layers", std::move(layers));
    }
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    const std::optional<perfbench::Args> args =
        perfbench::parse_args(argc, argv);
    if (!args) {
        std::cerr << "usage: perfbench_harness --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n";
        return 2;
    }
    try {
        return perfbench::run(*args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
