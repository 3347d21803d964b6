// Monte-Carlo engine tests: sampler bounds and determinism, metric
// plumbing, and the paper's Sec. 4.3 findings (WLcrit highly sensitive to
// tox variation, DRNM barely).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "mc/monte_carlo.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"

namespace tfetsram::mc {
namespace {

VariationSpec spec() {
    VariationSpec s;
    // Coarser tables keep these tests quick; fidelity is covered elsewhere.
    s.table_spec.points = 121;
    return s;
}

TEST(VariationSampler, ToxWithinBounds) {
    const TfetVariationSampler sampler(spec());
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        const auto draw = sampler.sample(rng);
        EXPECT_GE(draw.tox, 2e-9 * 0.95);
        EXPECT_LE(draw.tox, 2e-9 * 1.05);
    }
}

TEST(VariationSampler, Deterministic) {
    const TfetVariationSampler sampler(spec());
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(sampler.sample(a).tox, sampler.sample(b).tox);
}

TEST(VariationSampler, MosfetsStayNominal) {
    const TfetVariationSampler sampler(spec());
    Rng rng(3);
    const auto d1 = sampler.sample(rng);
    const auto d2 = sampler.sample(rng);
    EXPECT_EQ(d1.models.nmos.get(), d2.models.nmos.get());
    EXPECT_EQ(d1.models.pmos.get(), d2.models.pmos.get());
    EXPECT_NE(d1.models.ntfet.get(), d2.models.ntfet.get());
}

TEST(VariationSampler, PerturbedDeviceShiftsCurrent) {
    const TfetVariationSampler sampler(spec());
    Rng rng(11);
    double lo = 1e9;
    double hi = -1e9;
    for (int i = 0; i < 20; ++i) {
        const auto draw = sampler.sample(rng);
        const double mid = draw.models.ntfet->iv(0.5, 0.8).ids;
        lo = std::min(lo, mid);
        hi = std::max(hi, mid);
    }
    EXPECT_GT(hi / lo, 1.5) << "tox variation must visibly move the I-V";
}

TEST(MonteCarlo, RunsMetricPerSample) {
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    std::atomic<int> calls{0};
    const McResult res = run_monte_carlo(
        cfg, sampler, 8, 99, [&](sram::SramCell& cell) {
            ++calls;
            return cell.config.vdd; // trivially constant metric
        });
    EXPECT_EQ(calls.load(), 8);
    EXPECT_EQ(res.samples.size(), 8u);
    EXPECT_EQ(res.tox_values.size(), 8u);
    EXPECT_DOUBLE_EQ(res.summary.mean, 0.8);
    EXPECT_NEAR(res.summary.stddev, 0.0, 1e-12);
}

TEST(MonteCarlo, SeedReproducible) {
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const auto metric = [](sram::SramCell& cell) {
        // Proxy metric keyed to the sampled device: mid-swing current.
        return cell.config.models.ntfet->iv(0.5, 0.8).ids;
    };
    const McResult a = run_monte_carlo(cfg, sampler, 6, 1234, metric);
    const McResult b = run_monte_carlo(cfg, sampler, 6, 1234, metric);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(MonteCarlo, HistogramCoversSamples) {
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const McResult res = run_monte_carlo(
        cfg, sampler, 16, 5,
        [](sram::SramCell& cell) {
            return cell.config.models.ntfet->iv(0.5, 0.8).ids;
        });
    const Histogram h = res.histogram(8);
    EXPECT_EQ(h.total(), 16u);
    EXPECT_EQ(h.underflow() + h.overflow(), 0u);
}

TEST(MonteCarlo, EnvSampleOverride) {
    EXPECT_EQ(mc_samples_from_env(37), 37u); // unset -> fallback
}

TEST(MonteCarlo, ParallelMatchesSerial) {
    // Determinism across thread counts: the Tox stream is pre-drawn and
    // tables are pure in Tox, so scheduling cannot change the result.
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const auto metric = [](sram::SramCell& cell) {
        return cell.config.models.ntfet->iv(0.5, 0.8).ids;
    };
    const McResult serial = run_monte_carlo(cfg, sampler, 8, 5, metric, 1);
    const McResult parallel = run_monte_carlo(cfg, sampler, 8, 5, metric, 4);
    EXPECT_EQ(serial.samples, parallel.samples);
    EXPECT_EQ(serial.tox_values, parallel.tox_values);
}

TEST(MonteCarlo, StreamedTablesMatchEagerDraws) {
    // The engine draws only the Tox stream up front and builds each
    // sample's tables in the worker. That must be invisible: the Tox values
    // equal a hand-drawn sample_tox stream of the same seed, and samples,
    // censor flags and folded solver counters equal a reference evaluated
    // from eager sampler.sample() draws — at 1 and 4 threads (the 4-thread
    // run builds tables on pool threads concurrently).
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const CellMetric metric = [](sram::SramCell& cell) {
        return sram::worst_hold_static_power(cell, sram::MetricOptions{});
    };
    constexpr std::size_t kN = 6;
    constexpr std::uint64_t kSeed = 17;

    Rng tox_rng(kSeed);
    std::vector<double> tox;
    for (std::size_t i = 0; i < kN; ++i)
        tox.push_back(sampler.sample_tox(tox_rng));

    // Eager reference: every draw built up front, then evaluated the way
    // the engine evaluates sample i (child context i, nominal warm start).
    spice::SimContext ref_ctx{spice::SimConfig{}};
    const la::Vector seed_x = nominal_hold_seed(ref_ctx, cfg);
    Rng rng(kSeed);
    std::vector<TfetVariationSampler::Draw> draws;
    for (std::size_t i = 0; i < kN; ++i)
        draws.push_back(sampler.sample(rng));
    std::vector<double> ref_samples;
    for (std::size_t i = 0; i < kN; ++i) {
        spice::SimContext child = ref_ctx.child(i);
        const spice::ScopedContext bind(child);
        sram::CellConfig c = cfg;
        c.models = draws[i].models;
        sram::SramCell cell = sram::build_cell(c, &child);
        cell.dc_seed = seed_x;
        ref_samples.push_back(metric(cell));
        ref_ctx.stats() += child.stats();
    }

    for (std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        spice::SimContext ctx{spice::SimConfig{}};
        const McResult res =
            run_monte_carlo(ctx, cfg, sampler, kN, kSeed, metric, threads);
        ASSERT_EQ(res.samples.size(), kN);
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(res.tox_values[i], tox[i]) << i;
            EXPECT_EQ(res.tox_values[i], draws[i].tox) << i;
            EXPECT_EQ(std::memcmp(&res.samples[i], &ref_samples[i],
                                  sizeof(double)),
                      0)
                << i;
            EXPECT_EQ(res.censored[i], 0) << i;
        }
        EXPECT_EQ(res.n_censored, 0u);
        const spice::SolverStats& a = ctx.stats();
        const spice::SolverStats& b = ref_ctx.stats();
        EXPECT_EQ(a.nr_iterations, b.nr_iterations);
        EXPECT_EQ(a.dc_solves, b.dc_solves);
        EXPECT_EQ(a.transient_steps, b.transient_steps);
        EXPECT_EQ(a.transient_solves, b.transient_solves);
        EXPECT_EQ(a.assemblies, b.assemblies);
        EXPECT_EQ(a.lu_factorizations, b.lu_factorizations);
        EXPECT_EQ(a.line_search_backtracks, b.line_search_backtracks);
        EXPECT_EQ(a.batched_evals, b.batched_evals);
    }
}

// ---- Sec. 4.3: the paper's sensitivity findings ----

TEST(Sec43Variation, WlcritVariesStronglyDrnmBarely) {
    // "WLcrit varies greatly under process variations ... In contrast, the
    // DRNM is hardly influenced." (beta = 0.6, GND-lowering RA design.)
    sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const TfetVariationSampler sampler(spec());
    const sram::MetricOptions opts;

    const McResult wl = run_monte_carlo(
        cfg, sampler, 15, 77, [&](sram::SramCell& cell) {
            return sram::critical_wordline_pulse(cell, sram::Assist::kNone,
                                                 opts);
        });
    const McResult dr = run_monte_carlo(
        cfg, sampler, 15, 77, [&](sram::SramCell& cell) {
            const sram::DrnmResult d = sram::dynamic_read_noise_margin(
                cell, sram::Assist::kRaGndLowering, opts);
            return d.valid ? d.drnm : std::nan("");
        });
    ASSERT_GE(wl.summary.count, 10u);
    ASSERT_GE(dr.summary.count, 10u);
    const double wl_cv = wl.summary.stddev / wl.summary.mean;
    const double dr_cv = dr.summary.stddev / dr.summary.mean;
    EXPECT_GT(wl_cv, 0.08) << "WLcrit should vary strongly with tox";
    EXPECT_LT(dr_cv, 0.05) << "DRNM should be nearly immune";
    EXPECT_GT(wl_cv, 3.0 * dr_cv);
}

} // namespace
} // namespace tfetsram::mc
