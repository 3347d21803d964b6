// The benchmark's workloads. Each repetition is cold: fresh SimContexts,
// fresh cells and arrays, result cache off, inputs derived from the seed.
//
//  * mc_write — Fig. 9's call pattern: a beta = 2 cell under +/-5 % Tox,
//    WLcrit through mc::run_monte_carlo for each write assist, one runner
//    task at a time, each fanning out over the MC engine's own pool.
//    Solve-bound (a bisection of write transients per sample).
//  * mc_read — Fig. 10's call pattern: a beta = 0.6 cell, DRNM for each
//    read assist as concurrent runner tasks with a serial MC each.
//    Table-build-bound (the serial up-front draws dominate).
//  * array_rw — init plus write/read ops on a flat sparse array and on the
//    mixed-level engine at 1k cells per bitline: the only workload that
//    runs the sparse kernel and the hier partition/event layer.

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "harness.hpp"

#include "array/array.hpp"
#include "device/models.hpp"
#include "hier/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "spice/dc.hpp"
#include "spice/solve_error.hpp"
#include "sram/assist.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "sram/operations.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace perfbench {

spice::SimConfig pinned_sim_config(std::uint64_t seed) {
    spice::SimConfig cfg; // built-in defaults, not SimConfig::from_env()
    // An explicit mode isolates the contexts from TFETSRAM_SOLVER and any
    // process-wide override; kAuto is the production routing (dense for
    // cells, sparse for arrays).
    cfg.mode = spice::SolverMode::kAuto;
    cfg.seed = seed;
    cfg.out_dir = std::string(kScratchDir) + "/out";
    cfg.cache_dir = std::string(kScratchDir) + "/cache";
    return cfg;
}

runner::RunnerConfig pinned_runner_config(std::string name,
                                          std::size_t workers,
                                          std::uint64_t seed) {
    runner::RunnerConfig cfg; // not RunnerConfig::from_env()
    cfg.run_name = std::move(name);
    cfg.threads = workers;
    cfg.cache_mode = runner::CacheMode::kOff;
    cfg.cache_dir = std::string(kScratchDir) + "/cache";
    cfg.out_dir = std::string(kScratchDir) + "/out";
    cfg.telemetry = false;
    cfg.print_summary = false;
    cfg.keep_going = true;
    cfg.sim = pinned_sim_config(seed);
    return cfg;
}

namespace {

[[noreturn]] void throw_unconverged(const char* what) {
    spice::SolveError err;
    err.code = spice::SolveErrorCode::kNonConvergence;
    err.message = what;
    throw spice::SolveException(std::move(err));
}

/// Bit-exact stand-in for non-finite values in a fingerprint.
double fingerprint_value(double v) {
    if (std::isnan(v))
        return -1.0;
    if (std::isinf(v))
        return v > 0 ? 1e300 : -1e300;
    return v;
}

runner::Json finite_or_null(double v) {
    return std::isfinite(v) ? runner::Json(v) : runner::Json();
}

/// Batched I-V cost of the set's TFET tables (every cell device is one).
double tfet_eval_ns(const device::ModelSet& models, std::uint64_t seed) {
    return 0.5 * (probe_iv_many_ns(*models.ntfet, seed, 1.0) +
                  probe_iv_many_ns(*models.ptfet, seed, 1.0));
}

// ------------------------------------------------------------ Monte-Carlo

struct McSpec {
    const char* name;
    const char* metric; ///< "wlcrit" or "drnm"
    double beta;
    std::vector<sram::Assist> assists;
    std::size_t samples; ///< per assist
    std::size_t workers; ///< runner workers
    std::size_t lanes;   ///< MC engine threads per task
};

class McWorkload final : public Workload {
public:
    McWorkload(McSpec spec, std::uint64_t seed)
        : spec_(std::move(spec)), seed_(seed) {}

    void setup() override {
        models_ = device::make_model_set();
        cfg_ = sram::CellConfig{};
        cfg_.kind = sram::CellKind::kTfet6T;
        cfg_.access = sram::AccessDevice::kInwardP;
        cfg_.beta = spec_.beta;
        cfg_.models = models_;
        sampler_ = std::make_unique<mc::TfetVariationSampler>(
            mc::VariationSpec{});
    }

    Repetition run(Trace& trace) override {
        const std::size_t n_tasks = spec_.assists.size();
        std::vector<mc::McResult> results(n_tasks);
        std::vector<spice::SolverStats> stats(n_tasks);
        const bool write = std::strcmp(spec_.metric, "wlcrit") == 0;

        runner::Runner r(
            pinned_runner_config(spec_.name, spec_.workers, seed_));
        int run_span = -1;
        for (std::size_t t = 0; t < n_tasks; ++t) {
            const sram::Assist assist = spec_.assists[t];
            const std::string tag = sram::to_string(assist);
            runner::TaskSpec task;
            task.id = std::string(spec_.metric) + " " + tag;
            task.fn = [&, t, assist, tag, write] {
                const ScopedSpan task_span(trace, "runner.task", run_span,
                                           tag);
                // The runner binds each task's own SimContext, built from
                // the pinned config; its counters are this task's work.
                const spice::SimContext& ctx = spice::ambient_context();
                const ScopedSpan engine(trace, "mc.engine", task_span.id(),
                                        tag);
                const int parent = engine.id();
                const mc::CellMetric metric =
                    [&, assist, parent, write](sram::SramCell& cell) {
                        const ScopedSpan span(trace, "sram.metric", parent);
                        if (write) {
                            const double p = sram::critical_wordline_pulse(
                                cell, assist, opts_);
                            if (std::isnan(p))
                                throw_unconverged("wlcrit: transient failed");
                            return p; // +inf is a genuine write failure
                        }
                        const sram::DrnmResult d =
                            sram::dynamic_read_noise_margin(cell, assist,
                                                            opts_);
                        if (!d.valid)
                            throw_unconverged("drnm: read transient failed");
                        return d.flipped
                                   ? std::numeric_limits<double>::quiet_NaN()
                                   : d.drnm;
                    };
                results[t] = mc::run_monte_carlo(ctx, cfg_, *sampler_,
                                                 spec_.samples, seed_, metric,
                                                 spec_.lanes);
                stats[t] = ctx.stats();
                return runner::TaskResult{};
            };
            r.add(std::move(task));
        }

        Repetition rep;
        const Clock::time_point t0 = Clock::now();
        {
            const ScopedSpan span(trace, "runner.run");
            run_span = span.id();
            r.run();
        }
        rep.wall_s = seconds_between(t0, Clock::now());

        rep.groups.push_back({"cell", {}});
        rep.outputs = runner::Json::object();
        runner::Json techniques = runner::Json::array();
        std::uint64_t censored = 0;
        std::uint64_t retried = 0;
        for (std::size_t t = 0; t < n_tasks; ++t) {
            const std::string tag = sram::to_string(spec_.assists[t]);
            rep.attempted += spec_.samples;
            if (r.status(t) != runner::TaskStatus::kExecuted) {
                rep.failed += spec_.samples;
                const runner::TaskError* err = r.error(t);
                rep.problems.push_back(tag + ": task " +
                                       runner::to_string(r.status(t)) +
                                       (err != nullptr
                                            ? std::string(": ") + err->what()
                                            : std::string()));
                continue;
            }
            const mc::McResult& res = results[t];
            rep.groups[0].stats += stats[t];
            rep.failed += res.n_censored;
            censored += res.n_censored;
            retried += res.n_retried;
            if (res.n_censored > 0)
                rep.problems.push_back(tag + ": " +
                                       std::to_string(res.n_censored) +
                                       " censored samples");
            std::size_t flips = 0;
            for (std::size_t i = 0; i < res.samples.size(); ++i) {
                if (!res.censored[i] && std::isnan(res.samples[i]))
                    ++flips;
                rep.fingerprint.push_back(fingerprint_value(res.samples[i]));
            }
            const Histogram hist = res.histogram(12);
            runner::Json bins = runner::Json::array();
            for (std::size_t b = 0; b < hist.bin_count(); ++b)
                bins.push_back(static_cast<std::uint64_t>(hist.count(b)));
            runner::Json tox = runner::Json::array();
            for (double v : res.tox_values)
                tox.push_back(v);
            runner::Json entry = runner::Json::object();
            entry.set("assist", tag);
            entry.set("samples",
                      static_cast<std::uint64_t>(res.samples.size()));
            entry.set("censored", static_cast<std::uint64_t>(res.n_censored));
            entry.set("finite",
                      static_cast<std::uint64_t>(res.summary.count));
            entry.set("infinite",
                      static_cast<std::uint64_t>(res.summary.n_infinite));
            entry.set("flips", static_cast<std::uint64_t>(flips));
            entry.set("mean", finite_or_null(res.summary.mean));
            entry.set("stddev", finite_or_null(res.summary.stddev));
            entry.set("min", finite_or_null(res.summary.min));
            entry.set("max", finite_or_null(res.summary.max));
            entry.set("hist", std::move(bins));
            entry.set("tox", std::move(tox));
            techniques.push_back(std::move(entry));
        }
        rep.outputs.set("metric", spec_.metric);
        rep.outputs.set("techniques", std::move(techniques));

        rep.counts["mc.samples"] =
            static_cast<double>(spec_.samples * n_tasks);
        rep.counts["mc.censored"] = static_cast<double>(censored);
        rep.counts["mc.retried"] = static_cast<double>(retried);
        rep.counts["mc.lanes"] = static_cast<double>(spec_.lanes);
        return rep;
    }

    std::map<std::string, UnitCosts> probe_unit_costs() override {
        const spice::SimContext ctx(pinned_sim_config(seed_));
        sram::SramCell cell = sram::build_cell(cfg_, &ctx);
        sram::program_hold(cell);
        if (!spice::solve_dc(cell.circuit, ctx, 0.0).converged)
            throw std::runtime_error("probe: nominal hold state failed");
        return {{"cell", probe_circuit(cell.circuit, ctx)}};
    }

    double probe_table_build_s() override {
        // The engine draws every sample of a run up front from Rng(seed);
        // replay that stream once and scale by the runs per repetition.
        Rng rng(seed_);
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < spec_.samples; ++i)
            (void)sampler_->sample(rng);
        return seconds_between(t0, Clock::now()) *
               static_cast<double>(spec_.assists.size());
    }

    [[nodiscard]] double table_builds_per_rep() const override {
        // One n-type and one p-type table per draw.
        return 2.0 * static_cast<double>(spec_.samples) *
               static_cast<double>(spec_.assists.size());
    }

    double probe_eval_ns() override { return tfet_eval_ns(models_, seed_); }

    [[nodiscard]] runner::Json config() const override {
        runner::Json j = runner::Json::object();
        j.set("metric", spec_.metric);
        j.set("beta", spec_.beta);
        runner::Json assists = runner::Json::array();
        for (sram::Assist a : spec_.assists)
            assists.push_back(sram::to_string(a));
        j.set("assists", std::move(assists));
        j.set("samples_per_assist",
              static_cast<std::uint64_t>(spec_.samples));
        j.set("runner_workers", static_cast<std::uint64_t>(spec_.workers));
        j.set("mc_lanes", static_cast<std::uint64_t>(spec_.lanes));
        j.set("threads",
              static_cast<std::uint64_t>(spec_.workers * spec_.lanes));
        j.set("tox_sigma_frac", mc::VariationSpec{}.tox_sigma_frac);
        return j;
    }

private:
    McSpec spec_;
    std::uint64_t seed_;
    sram::MetricOptions opts_;
    device::ModelSet models_;
    sram::CellConfig cfg_;
    std::unique_ptr<mc::TfetVariationSampler> sampler_;
};

// ------------------------------------------------------------------ arrays

struct EngineSpec {
    const char* name; ///< "flat" or "mixed"
    hier::EngineMode mode;
    std::size_t rows;
    std::size_t cols;
    std::size_t writes; ///< each followed by a read-back and a random read
};

class ArrayWorkload final : public Workload {
public:
    explicit ArrayWorkload(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        models_ = device::make_model_set();
        configs_.clear();
        for (const EngineSpec& e : kEngines) {
            array::ArrayConfig cfg;
            cfg.rows = e.rows;
            cfg.cols = e.cols;
            cfg.cell = sram::proposed_design(0.8, models_).config;
            cfg.read_assist = sram::Assist::kRaGndLowering;
            // The read differential develops as one cell discharges a
            // bitline whose capacitance grows with the rows, so the sense
            // window scales beyond the 32-row reference (as array_scaling).
            if (e.rows > 32)
                cfg.read_duration *= static_cast<double>(e.rows) / 32.0;
            configs_.push_back(cfg);
        }
        // Circuit construction is one-time work: time it here, once per
        // engine, under the pinned config the repetitions use.
        const spice::SimContext ctx(pinned_sim_config(seed_));
        for (std::size_t e = 0; e < kEngines.size(); ++e)
            (void)hier::ArrayEngine(configs_[e], kEngines[e].mode, {}, &ctx);
    }

    Repetition run(Trace& trace) override {
        const std::size_t n = kEngines.size();
        std::vector<std::unique_ptr<spice::SimContext>> ctxs;
        std::vector<std::unique_ptr<hier::ArrayEngine>> engines;
        for (std::size_t e = 0; e < n; ++e) {
            ctxs.push_back(std::make_unique<spice::SimContext>(
                pinned_sim_config(seed_)));
            engines.push_back(std::make_unique<hier::ArrayEngine>(
                configs_[e], kEngines[e].mode, hier::HierConfig{},
                ctxs.back().get()));
        }

        std::vector<EngineOut> outs(n);

        runner::Runner r(pinned_runner_config("array_rw", 1, seed_));
        int run_span = -1;
        for (std::size_t e = 0; e < n; ++e) {
            runner::TaskSpec task;
            task.id = std::string("array ") + kEngines[e].name;
            task.fn = [&, e] {
                const ScopedSpan span(trace, "runner.task", run_span,
                                      kEngines[e].name);
                drive(*engines[e], e, trace, span.id(), outs[e]);
                return runner::TaskResult{};
            };
            r.add(std::move(task));
        }

        Repetition rep;
        const Clock::time_point t0 = Clock::now();
        {
            const ScopedSpan span(trace, "runner.run");
            run_span = span.id();
            r.run();
        }
        rep.wall_s = seconds_between(t0, Clock::now());

        rep.outputs = runner::Json::object();
        runner::Json list = runner::Json::array();
        std::uint64_t ops = 0;
        for (std::size_t e = 0; e < n; ++e) {
            const EngineSpec& spec = kEngines[e];
            const std::uint64_t planned = 1 + 3 * spec.writes;
            rep.attempted += planned;
            ops += planned;
            if (r.status(e) != runner::TaskStatus::kExecuted) {
                rep.failed += planned;
                rep.problems.push_back(std::string(spec.name) + ": task " +
                                       runner::to_string(r.status(e)));
                continue;
            }
            const EngineOut& o = outs[e];
            rep.failed += o.failed;
            rep.problems.insert(rep.problems.end(), o.problems.begin(),
                                o.problems.end());
            rep.fingerprint.insert(rep.fingerprint.end(),
                                   o.fingerprint.begin(),
                                   o.fingerprint.end());
            rep.groups.push_back({spec.name, ctxs[e]->stats()});
            runner::Json entry = runner::Json::object();
            entry.set("engine", spec.name);
            entry.set("rows", static_cast<std::uint64_t>(spec.rows));
            entry.set("cols", static_cast<std::uint64_t>(spec.cols));
            entry.set("unknowns",
                      static_cast<std::uint64_t>(engines[e]->unknowns()));
            entry.set("ops", o.ops);
            entry.set("failed_ops", o.failed);
            entry.set("min_separation", finite_or_null(o.min_separation));
            entry.set("min_read_differential",
                      finite_or_null(o.min_read_diff));
            list.push_back(std::move(entry));
            if (!engines[e]->mixed())
                rep.counts["array.unknowns"] =
                    static_cast<double>(engines[e]->unknowns());
        }
        rep.outputs.set("engines", std::move(list));
        rep.counts["array.ops"] = static_cast<double>(ops);
        return rep;
    }

    std::map<std::string, UnitCosts> probe_unit_costs() override {
        std::map<std::string, UnitCosts> costs;
        const spice::SimContext ctx(pinned_sim_config(seed_));
        for (std::size_t e = 0; e < kEngines.size(); ++e) {
            const EngineSpec& spec = kEngines[e];
            array::ArrayConfig cfg = configs_[e];
            if (spec.mode == hier::EngineMode::kMixed) {
                // The mixed engine's active partition circuit is private to
                // hier::MixedArray. Its proxy is the flat array of the same
                // columns whose device count is nearest the partition's
                // (device evaluation dominates an assembly).
                hier::ArrayEngine mixed(cfg, spec.mode, {}, &ctx);
                if (!mixed.initialize(data(e)))
                    throw std::runtime_error("probe: mixed init failed");
                (void)mixed.write(0, 0, !data(e)[0][0]);
                cfg.rows = 1;
                const auto per_row = static_cast<double>(
                    array::SramArray(cfg, &ctx).circuit().transistors().size());
                cfg.rows = std::max<std::size_t>(
                    1, static_cast<std::size_t>(std::llround(
                           static_cast<double>(mixed.transistors()) /
                           per_row)));
            }
            array::SramArray flat(cfg, &ctx);
            std::vector<std::vector<bool>> bits = data(e);
            bits.resize(cfg.rows, std::vector<bool>(cfg.cols, false));
            if (!flat.initialize(bits))
                throw std::runtime_error("probe: array init failed");
            costs[spec.name] = probe_circuit(flat.circuit(), ctx);
        }
        return costs;
    }

    double probe_table_build_s() override { return 0.0; }
    [[nodiscard]] double table_builds_per_rep() const override { return 0.0; }

    double probe_eval_ns() override { return tfet_eval_ns(models_, seed_); }

    [[nodiscard]] runner::Json config() const override {
        runner::Json list = runner::Json::array();
        for (const EngineSpec& e : kEngines) {
            runner::Json j = runner::Json::object();
            j.set("engine", e.name);
            j.set("rows", static_cast<std::uint64_t>(e.rows));
            j.set("cols", static_cast<std::uint64_t>(e.cols));
            j.set("ops", static_cast<std::uint64_t>(1 + 3 * e.writes));
            list.push_back(std::move(j));
        }
        runner::Json j = runner::Json::object();
        j.set("engines", std::move(list));
        j.set("design", "proposed@0.8V");
        j.set("read_assist", "ra_gnd_lowering");
        j.set("runner_workers", 1);
        j.set("threads", 1);
        return j;
    }

private:
    struct EngineOut {
        std::uint64_t ops = 0;
        std::uint64_t failed = 0;
        std::vector<std::string> problems;
        std::vector<double> fingerprint;
        double min_separation = std::numeric_limits<double>::infinity();
        double min_read_diff = std::numeric_limits<double>::infinity();
    };

    static constexpr std::array<EngineSpec, 2> kEngines = {{
        {"flat", hier::EngineMode::kFlat, 16, 16, 1},
        {"mixed", hier::EngineMode::kMixed, 1024, 16, 10},
    }};

    /// Stored data of engine `e`: seeded random bits.
    [[nodiscard]] std::vector<std::vector<bool>> data(std::size_t e) const {
        const EngineSpec& spec = kEngines[e];
        Rng rng(seed_ * 2 + e);
        std::vector<std::vector<bool>> bits(spec.rows,
                                            std::vector<bool>(spec.cols));
        for (auto& row : bits)
            for (std::size_t c = 0; c < spec.cols; ++c)
                row[c] = rng.uniform(0.0, 1.0) < 0.5;
        return bits;
    }

    /// Initialize, then per write: flip a seeded cell, read it back, and
    /// read another seeded cell against the data.
    void drive(hier::ArrayEngine& eng, std::size_t e, Trace& trace,
               int parent, EngineOut& out) const {
        const EngineSpec& spec = kEngines[e];
        std::vector<std::vector<bool>> shadow = data(e);
        auto fail = [&](const std::string& what) {
            ++out.failed;
            out.problems.push_back(std::string(spec.name) + ": " + what);
        };
        auto where = [](std::size_t row, std::size_t col) {
            return "(" + std::to_string(row) + "," + std::to_string(col) + ")";
        };
        ++out.ops;
        bool init_ok = false;
        {
            const ScopedSpan span(trace, "array.op", parent,
                                  std::string(spec.name) + ":init");
            init_ok = eng.initialize(shadow);
        }
        if (!init_ok) {
            fail("initialize failed");
            out.failed += 3 * spec.writes;
            return;
        }
        Rng rng(seed_ * 2 + e + 0x5eed);
        auto pick = [&rng](std::size_t n) {
            const auto i = static_cast<std::size_t>(
                rng.uniform(0.0, static_cast<double>(n)));
            return i < n ? i : n - 1;
        };
        std::vector<std::pair<std::size_t, std::size_t>> touched;
        const auto read = [&](std::size_t row, std::size_t col) {
            ++out.ops;
            touched.emplace_back(row, col);
            array::ReadResult res;
            {
                const ScopedSpan span(trace, "array.op", parent,
                                      std::string(spec.name) + ":read");
                res = eng.read(row, col);
            }
            out.fingerprint.push_back(res.differential);
            const bool expected = shadow[row][col];
            if (!res.ok)
                fail("read " + where(row, col) + " failed: " + res.message);
            else if (res.value != expected)
                fail("read " + where(row, col) + " returned " +
                     std::to_string(res.value) + ", stored " +
                     std::to_string(expected));
            else
                out.min_read_diff =
                    std::min(out.min_read_diff, std::abs(res.differential));
        };
        for (std::size_t k = 0; k < spec.writes; ++k) {
            // Every write flips its cell, so each op does the same kind of
            // work whatever the seed.
            const std::size_t row = pick(spec.rows);
            const std::size_t col = pick(spec.cols);
            const bool value = !shadow[row][col];
            ++out.ops;
            touched.emplace_back(row, col);
            array::OpResult res;
            {
                const ScopedSpan span(trace, "array.op", parent,
                                      std::string(spec.name) + ":write");
                res = eng.write(row, col, value);
            }
            out.fingerprint.push_back(res.duration);
            if (!res.ok)
                fail("write " + where(row, col) + " failed: " + res.message);
            else
                shadow[row][col] = value;
            read(row, col);
            const std::size_t row2 = pick(spec.rows);
            read(row2, pick(spec.cols));
        }
        // Every accessed cell still holds its value with a healthy
        // storage-node separation (run.py checks the floor).
        for (const auto& [row, col] : touched) {
            if (eng.stored(row, col) != shadow[row][col])
                fail("cell " + where(row, col) + " lost its value");
            const double sep = eng.separation(row, col);
            out.fingerprint.push_back(sep);
            out.min_separation = std::min(out.min_separation, sep);
        }
    }

    std::uint64_t seed_;
    device::ModelSet models_;
    std::vector<array::ArrayConfig> configs_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
    using sram::Assist;
    const std::vector<Assist> write_assists(std::begin(sram::kWriteAssists),
                                            std::end(sram::kWriteAssists));
    const std::vector<Assist> read_assists(std::begin(sram::kReadAssists),
                                           std::end(sram::kReadAssists));
    if (name == "mc_write")
        return std::make_unique<McWorkload>(
            McSpec{"mc_write", "wlcrit", 2.0, write_assists, 16, 1, kThreads},
            seed);
    if (name == "mc_read")
        return std::make_unique<McWorkload>(
            McSpec{"mc_read", "drnm", 0.6, read_assists, 60, kThreads, 1},
            seed);
    if (name == "array_rw")
        return std::make_unique<ArrayWorkload>(seed);
    return nullptr;
}

} // namespace perfbench
