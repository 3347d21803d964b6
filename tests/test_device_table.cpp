// Lookup-table model tests: grid interpolation exactness, asinh round trip,
// fidelity of the tabulated model against its analytic source across the
// full 13-decade current range, derivative continuity, bitwise identity
// of the row-streamed (separable) extraction with the per-point
// iv()/cv() loop it replaced, and bitwise identity of lazily filled
// tables with fully filled ones — first use racing on four threads
// included — and of the value-only C-V and cross-skipping I-V paths with
// the reference evaluation that computes the full gradient
// (grid2d_reference.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "device/grid2d.hpp"
#include "device/model_zoo.hpp"
#include "device/models.hpp"
#include "device/table_builder.hpp"
#include "grid2d_reference.hpp"
#include "util/rng.hpp"

namespace tfetsram::device {
namespace {

TEST(Grid2d, ReproducesLinearSurfaceExactly) {
    // Catmull-Rom reproduces polynomials up to cubic; a plane is trivial.
    Grid2d g(0.0, 1.0, 6, 0.0, 2.0, 6);
    for (std::size_t iy = 0; iy < g.ny(); ++iy)
        for (std::size_t ix = 0; ix < g.nx(); ++ix)
            g.at(ix, iy) = 2.0 * g.x_at(ix) - 3.0 * g.y_at(iy) + 1.0;

    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        const double y = rng.uniform(0.0, 2.0);
        const Grid2d::Sample s = g.eval(x, y);
        EXPECT_NEAR(s.f, 2.0 * x - 3.0 * y + 1.0, 1e-12);
        EXPECT_NEAR(s.fx, 2.0, 1e-9);
        EXPECT_NEAR(s.fy, -3.0, 1e-9);
    }
}

TEST(Grid2d, InterpolatesNodesExactly) {
    Grid2d g(-1.0, 1.0, 8, -1.0, 1.0, 8);
    for (std::size_t iy = 0; iy < g.ny(); ++iy)
        for (std::size_t ix = 0; ix < g.nx(); ++ix)
            g.at(ix, iy) = std::sin(3.0 * g.x_at(ix)) * g.y_at(iy);
    for (std::size_t iy = 1; iy + 1 < g.ny(); ++iy)
        for (std::size_t ix = 1; ix + 1 < g.nx(); ++ix) {
            const Grid2d::Sample s = g.eval(g.x_at(ix), g.y_at(iy));
            EXPECT_NEAR(s.f, g.at(ix, iy), 1e-12);
        }
}

TEST(Grid2d, ContinuousAcrossCellBoundaries) {
    Grid2d g(0.0, 1.0, 11, 0.0, 1.0, 11);
    for (std::size_t iy = 0; iy < g.ny(); ++iy)
        for (std::size_t ix = 0; ix < g.nx(); ++ix)
            g.at(ix, iy) = std::exp(g.x_at(ix)) * std::cos(g.y_at(iy));
    const double eps = 1e-10;
    // Value and gradient continuity at an interior node boundary.
    const double xb = g.x_at(5);
    const Grid2d::Sample lo = g.eval(xb - eps, 0.37);
    const Grid2d::Sample hi = g.eval(xb + eps, 0.37);
    EXPECT_NEAR(lo.f, hi.f, 1e-8);
    EXPECT_NEAR(lo.fx, hi.fx, 1e-5);
    EXPECT_NEAR(lo.fy, hi.fy, 1e-5);
}

TEST(Grid2d, LinearExtensionOutsideDomain) {
    Grid2d g(0.0, 1.0, 6, 0.0, 1.0, 6);
    for (std::size_t iy = 0; iy < g.ny(); ++iy)
        for (std::size_t ix = 0; ix < g.nx(); ++ix)
            g.at(ix, iy) = 5.0 * g.x_at(ix);
    const Grid2d::Sample s = g.eval(2.0, 0.5); // 1.0 beyond the edge
    EXPECT_NEAR(s.f, 10.0, 1e-9);
    EXPECT_NEAR(s.fx, 5.0, 1e-9);
    EXPECT_TRUE(std::isfinite(g.eval(100.0, -50.0).f));
}

TEST(Grid2d, RejectsTinyGrids) {
    EXPECT_THROW(Grid2d(0.0, 1.0, 3, 0.0, 1.0, 8), contract_violation);
}

TEST(Grid2d, GradientMatchesFiniteDifferencesEverywhere) {
    // Newton's Jacobian is only as good as fx/fy being the true partial
    // derivatives of the surface eval() reconstructs. Hold the analytic
    // gradient against central finite differences of eval() itself —
    // interior cells, edge cells, and the extrapolated region beyond the
    // table all included. A derivative taken from the wrong cell stencil
    // (the historical edge-cell bug) fails this at the 1e-2 level.
    Grid2d g(-0.5, 1.0, 7, -1.0, 0.5, 9);
    for (std::size_t iy = 0; iy < g.ny(); ++iy)
        for (std::size_t ix = 0; ix < g.nx(); ++ix)
            g.at(ix, iy) = std::sin(2.0 * g.x_at(ix)) *
                               std::exp(0.7 * g.y_at(iy)) +
                           0.3 * g.x_at(ix) * g.y_at(iy);

    const double h = 1e-6;
    const auto check = [&](double x, double y, const char* where) {
        const Grid2d::Sample s = g.eval(x, y);
        const double fx_fd =
            (g.eval(x + h, y).f - g.eval(x - h, y).f) / (2.0 * h);
        const double fy_fd =
            (g.eval(x, y + h).f - g.eval(x, y - h).f) / (2.0 * h);
        EXPECT_NEAR(s.fx, fx_fd, 1e-5 * (1.0 + std::fabs(fx_fd)))
            << where << " at (" << x << ", " << y << ")";
        EXPECT_NEAR(s.fy, fy_fd, 1e-5 * (1.0 + std::fabs(fy_fd)))
            << where << " at (" << x << ", " << y << ")";
    };

    // Interior cells, away from node boundaries.
    check(0.11, -0.23, "interior");
    check(0.42, 0.13, "interior");
    check(-0.07, -0.61, "interior");
    // Edge cells: the first/last interval along each axis, where the
    // interpolation stencil is one-sided.
    check(-0.45, -0.31, "x low edge");
    check(0.93, -0.42, "x high edge");
    check(0.21, -0.95, "y low edge");
    check(0.33, 0.44, "y high edge");
    // Corner cell: one-sided in both axes at once.
    check(-0.47, -0.97, "corner");
    check(0.95, 0.46, "corner");
    // Extrapolated region: the surface continues linearly, so the
    // analytic gradient must match the finite difference exactly there.
    check(-0.9, -0.2, "x below domain");
    check(1.4, -0.2, "x above domain");
    check(0.2, -1.5, "y below domain");
    check(0.2, 0.9, "y above domain");
    check(1.6, 1.1, "far corner extrapolation");
}

TEST(DeviceTable, OutputShapeOddAndSmooth) {
    const DeviceTable t(make_ntfet(), TableSpec{});
    const auto p = t.output_shape(0.3);
    const auto m = t.output_shape(-0.3);
    EXPECT_NEAR(p.f, -m.f, 1e-15);
    EXPECT_NEAR(p.df, m.df, 1e-15);
    const auto z = t.output_shape(0.0);
    EXPECT_NEAR(z.f, 0.0, 1e-15);
    EXPECT_NEAR(z.df, 1.0 / t.spec().v_out, 1e-12);
}

TEST(DeviceTable, MatchesAnalyticAcrossDecades) {
    // The output-function factorization keeps the stored surface smooth, so
    // the reconstruction tracks the source to a few percent across the
    // full 13-decade range INCLUDING the zero crossing at vds = 0.
    const auto analytic = make_ntfet();
    const auto table = build_table(analytic);
    Rng rng(17);
    for (int k = 0; k < 400; ++k) {
        const double vgs = rng.uniform(-1.2, 1.2);
        const double vds = rng.uniform(-1.2, 1.2);
        const double ia = analytic->iv(vgs, vds).ids;
        const double it = table->iv(vgs, vds).ids;
        EXPECT_NEAR(it, ia, std::fabs(ia) * 0.05 + 1e-19)
            << "vgs=" << vgs << " vds=" << vds;
    }
}

TEST(DeviceTable, AccurateInsideTheFirstVdsCell) {
    // The historical failure mode: currents within one grid cell of
    // vds = 0 were underestimated by many orders. Now they reconstruct to
    // a few percent.
    const auto analytic = make_ntfet();
    const auto table = build_table(analytic);
    Rng rng(19);
    for (int k = 0; k < 200; ++k) {
        const double vgs = rng.uniform(0.0, 1.2);
        const double vds = rng.uniform(-0.01, 0.01);
        const double ia = analytic->iv(vgs, vds).ids;
        const double it = table->iv(vgs, vds).ids;
        EXPECT_NEAR(it, ia, std::fabs(ia) * 0.08 + 1e-19)
            << "vgs=" << vgs << " vds=" << vds;
    }
}

TEST(DeviceTable, DerivativesConsistentWithReconstruction) {
    // Newton correctness requirement: gm/gds must be the exact derivatives
    // of the interpolated current surface.
    const auto table = build_table(make_ntfet());
    Rng rng(23);
    for (int k = 0; k < 150; ++k) {
        const double vgs = rng.uniform(-1.0, 1.0);
        const double vds = rng.uniform(-1.0, 1.0);
        const spice::IvSample s = table->iv(vgs, vds);
        const double h = 1e-7;
        const double gm_fd =
            (table->iv(vgs + h, vds).ids - table->iv(vgs - h, vds).ids) /
            (2 * h);
        const double gds_fd =
            (table->iv(vgs, vds + h).ids - table->iv(vgs, vds - h).ids) /
            (2 * h);
        // The separable monotone-Hermite scheme is nonlinear in its data,
        // so cross-derivatives are consistent to ~percent rather than
        // machine precision; that is ample for Newton.
        EXPECT_NEAR(s.gm, gm_fd, std::fabs(gm_fd) * 2e-2 + 1e-10)
            << "vgs=" << vgs << " vds=" << vds;
        EXPECT_NEAR(s.gds, gds_fd, std::fabs(gds_fd) * 2e-2 + 1e-10)
            << "vgs=" << vgs << " vds=" << vds;
    }
}

TEST(DeviceTable, ConductancesMatchAnalyticInOrder) {
    // Guards against the catastrophic failure mode (conductance starved by
    // ten orders of magnitude at the vds = 0 crossing): the tabulated gds
    // must stay within a small factor of the analytic one wherever the
    // latter is significant.
    const auto analytic = make_ntfet();
    const auto table = build_table(analytic);
    Rng rng(29);
    for (int k = 0; k < 200; ++k) {
        const double vgs = rng.uniform(-1.0, 1.0);
        const double vds = rng.uniform(-1.0, 1.0);
        const double gt = table->iv(vgs, vds).gds;
        const double ga = analytic->iv(vgs, vds).gds;
        if (ga < 1e-9)
            continue;
        EXPECT_GT(gt, 0.3 * ga) << "vgs=" << vgs << " vds=" << vds;
        EXPECT_LT(gt, 3.0 * ga) << "vgs=" << vgs << " vds=" << vds;
    }
}

TEST(DeviceTable, OnStateConductanceAtZeroVds) {
    // The latch-stability killer: an on device at vds = 0 must present its
    // full channel conductance, not the cliff-flattened slope.
    const auto analytic = make_ntfet();
    const auto table = build_table(analytic);
    const double g_true = analytic->iv(0.8, 0.0).gds;
    const double g_tab = table->iv(0.8, 0.0).gds;
    EXPECT_GT(g_true, 1e-6);
    EXPECT_NEAR(g_tab, g_true, g_true * 0.05);
}

TEST(DeviceTable, CapsInterpolatedPositive) {
    const auto table = build_table(make_ptfet());
    Rng rng(31);
    for (int k = 0; k < 100; ++k) {
        const spice::CvSample c =
            table->cv(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4));
        EXPECT_GT(c.cgs, 0.0);
        EXPECT_GT(c.cgd, 0.0);
    }
}

TEST(DeviceTable, AnchorsSurviveTabulation) {
    const auto table = build_table(make_ntfet());
    EXPECT_NEAR(table->iv(1.0, 1.0).ids, 1e-4, 1e-4 * 0.05);
    const double ioff = table->iv(0.0, 1.0).ids;
    EXPECT_GT(ioff, 1e-18);
    EXPECT_LT(ioff, 1e-16);
}

TEST(DeviceTable, NameMarksTabulated) {
    const auto table = build_table(make_ntfet());
    EXPECT_NE(std::string(table->name()).find("[tab]"), std::string::npos);
}

TEST(ModelSet, TabulatedFlagControlsTfetsOnly) {
    const ModelSet tab = make_model_set({}, true);
    const ModelSet ana = make_model_set({}, false);
    EXPECT_NE(std::string(tab.ntfet->name()).find("[tab]"),
              std::string::npos);
    EXPECT_EQ(std::string(ana.ntfet->name()).find("[tab]"),
              std::string::npos);
    // CMOS stays analytic in both (the paper's flow tabulates TFETs only).
    EXPECT_EQ(std::string(tab.nmos->name()), "nMOS");
}

// ---- Separable extraction: bitwise differential against the old loop ----

/// The three grids of one extraction, row-major [iy * nx + ix].
struct Grids {
    std::vector<double> t, cgs, cgd;
};

/// Oracle: the per-point extraction loop build_table ran before it
/// streamed rows through TransistorModel::sample_grid — one scalar iv()
/// and cv() call per grid point.
Grids per_point_extraction(const spice::TransistorModelPtr& source,
                           const TableSpec& spec) {
    const DeviceTable shape(source, spec); // axes, F(vds), compression
    const Grid2d& g = shape.t_grid();
    Grids out;
    for (std::size_t iy = 0; iy < g.ny(); ++iy) {
        const double vds = g.y_at(iy);
        const DeviceTable::OutputShape f = shape.output_shape(vds);
        for (std::size_t ix = 0; ix < g.nx(); ++ix) {
            const double vgs = g.x_at(ix);
            const spice::IvSample s = source->iv(vgs, vds);
            const double ratio =
                std::fabs(f.f) > 1e-9 ? s.ids / f.f : s.gds / f.df;
            out.t.push_back(shape.compress_ratio(ratio));
            const spice::CvSample c = source->cv(vgs, vds);
            out.cgs.push_back(c.cgs);
            out.cgd.push_back(c.cgd);
        }
    }
    return out;
}

/// A table with every node filled: evaluating two opposite corners grows
/// the filled rectangle to the whole grid.
std::shared_ptr<const DeviceTable> full_table(
    spice::TransistorModelPtr source, const TableSpec& spec = {}) {
    auto table = build_table(std::move(source), spec);
    (void)table->iv(spec.v_min, spec.v_min);
    (void)table->iv(spec.v_max, spec.v_max);
    return table;
}

Grids grids_of(const DeviceTable& table) {
    Grids out;
    const Grid2d& g = table.t_grid();
    for (std::size_t iy = 0; iy < g.ny(); ++iy)
        for (std::size_t ix = 0; ix < g.nx(); ++ix) {
            out.t.push_back(table.t_grid().at(ix, iy));
            out.cgs.push_back(table.cgs_grid().at(ix, iy));
            out.cgd.push_back(table.cgd_grid().at(ix, iy));
        }
    return out;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_extraction_identical(const spice::TransistorModelPtr& source,
                                 const TableSpec& spec = {}) {
    const Grids want = per_point_extraction(source, spec);
    const auto table = full_table(source, spec);
    const DeviceTable::NodeRect all = table->filled();
    ASSERT_EQ(all.x_hi - all.x_lo, spec.points);
    ASSERT_EQ(all.y_hi - all.y_lo, spec.points);
    const Grids got = grids_of(*table);
    ASSERT_EQ(got.t.size(), spec.points * spec.points);
    EXPECT_TRUE(bitwise_equal(got.t, want.t)) << source->name() << " T";
    EXPECT_TRUE(bitwise_equal(got.cgs, want.cgs)) << source->name() << " Cgs";
    EXPECT_TRUE(bitwise_equal(got.cgd, want.cgd)) << source->name() << " Cgd";
}

TfetParams tox_scaled(TfetParams p, double scale) {
    p.tox *= scale;
    return p;
}

TEST(SeparableExtraction, TfetPairBitwiseAcrossToxCorners) {
    for (double scale : {0.95, 1.0, 1.05}) {
        SCOPED_TRACE(scale);
        const TfetParams p = tox_scaled(TfetParams{}, scale);
        expect_extraction_identical(make_ntfet(p));
        expect_extraction_identical(make_ptfet(p)); // mirror path
    }
}

TEST(SeparableExtraction, CntfetFlavorAt360KBitwise) {
    TfetParams p = find_model_set("cntfet").tfet;
    p.temperature = 360.0;
    expect_extraction_identical(make_ntfet(p));
    expect_extraction_identical(make_ptfet(p));
}

TEST(SeparableExtraction, CoarseGridBitwise) {
    TableSpec coarse;
    coarse.points = 121;
    expect_extraction_identical(make_ntfet(), coarse);
    expect_extraction_identical(make_ptfet(), coarse);
}

TEST(SeparableExtraction, DefaultRowPathForMosfetsBitwise) {
    // MOSFETs do not override sample_grid: the default scalar loop (and,
    // for pMOS, the mirror around it) must equal the old extraction too.
    expect_extraction_identical(make_nmos());
    expect_extraction_identical(make_pmos());
}

TEST(SeparableExtraction, RowsMatchScalarEntryPoints) {
    // The row contract itself, off the table axes: each row arrives once,
    // in ascending order, with samples equal to iv()/cv() bit for bit.
    const std::vector<double> xs = {-1.2, -0.1, 0.0, 0.33, 0.8, 1.4};
    const std::vector<double> ys = {-1.0, -0.9, -0.2, 0.0, 0.05, 0.7};
    for (const spice::TransistorModelPtr& m : {make_ntfet(), make_ptfet()}) {
        std::size_t next_row = 0;
        m->sample_grid(
            xs.data(), xs.size(), ys.data(), ys.size(),
            [&](std::size_t iy, const spice::IvSample* iv,
                const spice::CvSample* cv) {
                EXPECT_EQ(iy, next_row++);
                for (std::size_t ix = 0; ix < xs.size(); ++ix) {
                    const spice::IvSample s = m->iv(xs[ix], ys[iy]);
                    const spice::CvSample c = m->cv(xs[ix], ys[iy]);
                    EXPECT_EQ(std::memcmp(&iv[ix], &s, sizeof s), 0)
                        << m->name() << " iv at " << ix << "," << iy;
                    EXPECT_EQ(std::memcmp(&cv[ix], &c, sizeof c), 0)
                        << m->name() << " cv at " << ix << "," << iy;
                }
            });
        EXPECT_EQ(next_row, ys.size());
    }
}

// ---- Lazy fill: fresh tables evaluate bitwise like fully filled ones ----

/// The model flavors whose tables the circuits use, one per source.
std::vector<std::pair<spice::TransistorModelPtr, TableSpec>> lazy_cases() {
    std::vector<std::pair<spice::TransistorModelPtr, TableSpec>> cases;
    for (double scale : {0.95, 1.0, 1.05}) {
        const TfetParams p = tox_scaled(TfetParams{}, scale);
        cases.emplace_back(make_ntfet(p), TableSpec{});
        cases.emplace_back(make_ptfet(p), TableSpec{});
    }
    const TfetParams cnt = find_model_set("cntfet").tfet;
    cases.emplace_back(make_ntfet(cnt), TableSpec{});
    cases.emplace_back(make_ptfet(cnt), TableSpec{});
    TableSpec coarse;
    coarse.points = 121;
    cases.emplace_back(make_ntfet(), coarse);
    cases.emplace_back(make_ptfet(), coarse);
    return cases;
}

template <class T>
bool same_bits(const T& a, const T& b) {
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Evaluate every point on a fresh table over `full`'s source — iv, cv,
/// then iv_many over all of them — and memcmp each result against the
/// fully filled table.
void expect_lazy_bitwise(const DeviceTable& full,
                         const spice::TransistorModelPtr& source,
                         const std::vector<double>& vgs,
                         const std::vector<double>& vds) {
    const TableSpec& spec = full.spec();
    const auto fresh = build_table(source, spec);
    ASSERT_EQ(fresh->filled().x_hi, 0u);
    for (std::size_t i = 0; i < vgs.size(); ++i) {
        EXPECT_TRUE(same_bits(fresh->iv(vgs[i], vds[i]),
                              full.iv(vgs[i], vds[i])))
            << source->name() << " iv at (" << vgs[i] << ", " << vds[i]
            << ")";
        EXPECT_TRUE(same_bits(fresh->cv(vgs[i], vds[i]),
                              full.cv(vgs[i], vds[i])))
            << source->name() << " cv at (" << vgs[i] << ", " << vds[i]
            << ")";
    }
    // iv_many on a second fresh table, so the batch path does the fills.
    const auto batch = build_table(source, spec);
    std::vector<spice::IvSample> got(vgs.size());
    batch->iv_many(vgs.data(), vds.data(), vgs.size(), got.data());
    for (std::size_t i = 0; i < vgs.size(); ++i)
        EXPECT_TRUE(same_bits(got[i], full.iv(vgs[i], vds[i])))
            << source->name() << " iv_many at (" << vgs[i] << ", " << vds[i]
            << ")";
}

TEST(LazyTable, RandomPointsBitwise) {
    for (const auto& [source, spec] : lazy_cases()) {
        SCOPED_TRACE(source->name());
        Rng rng(41);
        std::vector<double> vgs, vds;
        for (int k = 0; k < 300; ++k) {
            vgs.push_back(rng.uniform(spec.v_min, spec.v_max));
            vds.push_back(rng.uniform(spec.v_min, spec.v_max));
        }
        expect_lazy_bitwise(*full_table(source, spec), source, vgs, vds);
    }
}

TEST(LazyTable, StencilsStraddlingBlockEdgesBitwise) {
    // A cell whose stencil [i-1, i+2] crosses a block edge b needs nodes
    // on both sides: i in {b-2, b-1, b}. Each such cell is the first use
    // of its own fresh table, in both axes at once, so the rounding of
    // the first rectangle must take in the far side of the edge.
    for (const auto& [source, spec] : lazy_cases()) {
        SCOPED_TRACE(source->name());
        const auto full = full_table(source, spec);
        const Grid2d& g = full->t_grid();
        const double h = g.x_at(1) - g.x_at(0);
        for (std::size_t b = DeviceTable::kBlock; b + 1 < spec.points;
             b += DeviceTable::kBlock) {
            for (std::size_t i = b - 2; i <= b && i + 1 < spec.points; ++i) {
                const double v = g.x_at(i) + 0.37 * h;
                expect_lazy_bitwise(*full, source, {v}, {v});
                expect_lazy_bitwise(*full, source, {v}, {-v});
            }
        }
    }
}

TEST(LazyTable, PointsBeyondTheGridBitwise) {
    // Off-grid queries evaluate at the clamped point and extend linearly:
    // the edge cells, whose stencils are clipped to the grid, fill first.
    for (const auto& [source, spec] : lazy_cases()) {
        SCOPED_TRACE(source->name());
        const double lo = spec.v_min;
        const double hi = spec.v_max;
        expect_lazy_bitwise(*full_table(source, spec), source,
                            {lo - 0.4, hi + 0.3, 0.2, 0.2, lo - 1.0,
                             hi + 2.0, lo - 0.01, hi},
                            {0.1, -0.7, lo - 0.5, hi + 0.2, lo - 1.0,
                             hi + 2.0, hi + 0.01, lo});
    }
}

TEST(LazyTable, CellRangeQueriesFillUnderAQuarter) {
    // A 0-0.8 V cell drives its n-type devices with vgs, vds in
    // [0, 0.8] and its p-type devices with both in [-0.8, 0]: the filled
    // rectangle stays a small corner of the grid.
    const auto ntab = build_table(make_ntfet());
    const auto ptab = build_table(make_ptfet());
    Rng rng(43);
    for (int k = 0; k < 500; ++k) {
        const double a = rng.uniform(0.0, 0.8);
        const double b = rng.uniform(0.0, 0.8);
        (void)ntab->iv(a, b);
        (void)ntab->cv(a, b);
        (void)ptab->iv(-a, -b);
        (void)ptab->cv(-a, -b);
    }
    for (const auto* t : {ntab.get(), ptab.get()}) {
        const DeviceTable::NodeRect r = t->filled();
        const double n = static_cast<double>(t->spec().points);
        const double share = static_cast<double>(r.x_hi - r.x_lo) *
                             static_cast<double>(r.y_hi - r.y_lo) / (n * n);
        EXPECT_GT(share, 0.0) << t->name();
        EXPECT_LT(share, 0.25) << t->name();
    }
}

TEST(LazyTable, FirstUseRaceOnFourThreadsBitwise) {
    // Four threads start together on one fresh table, each walking its
    // own random points over the grid and beyond: fills race evaluations
    // and each other. Every result must equal the fully filled table's,
    // bit for bit.
    constexpr int kThreads = 4;
    constexpr int kPoints = 200;
    // A source no other test tabulates, and every round's table stays
    // alive, so no fresh table is allocated over the bits of an earlier
    // one: unfilled nodes must not happen to hold the right values.
    TfetParams p;
    p.temperature = 320.0; // moves every node, the p-i-n region included
    const spice::TransistorModelPtr source = make_ptfet(p);
    const auto full = full_table(source);
    std::vector<std::shared_ptr<const DeviceTable>> tables;
    for (int round = 0; round < 8; ++round) {
        const auto fresh = tables.emplace_back(build_table(source));
        std::vector<std::vector<double>> vgs(kThreads), vds(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            Rng rng(static_cast<std::uint64_t>(100 * round + t));
            for (int k = 0; k < kPoints; ++k) {
                vgs[t].push_back(rng.uniform(-1.6, 1.6));
                vds[t].push_back(rng.uniform(-1.6, 1.6));
            }
        }
        std::vector<std::vector<spice::IvSample>> iv(kThreads);
        std::vector<std::vector<spice::CvSample>> cv(kThreads);
        std::atomic<int> ready{0};
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < kThreads)
                    std::this_thread::yield();
                for (int k = 0; k < kPoints; ++k) {
                    iv[t].push_back(fresh->iv(vgs[t][k], vds[t][k]));
                    cv[t].push_back(fresh->cv(vgs[t][k], vds[t][k]));
                }
            });
        for (std::thread& th : pool)
            th.join();
        for (int t = 0; t < kThreads; ++t)
            for (int k = 0; k < kPoints; ++k) {
                ASSERT_TRUE(same_bits(iv[t][k],
                                      full->iv(vgs[t][k], vds[t][k])))
                    << "round " << round << " thread " << t << " point " << k;
                ASSERT_TRUE(same_bits(cv[t][k],
                                      full->cv(vgs[t][k], vds[t][k])))
                    << "round " << round << " thread " << t << " point " << k;
            }
    }
}

/// Forwards to a real model, except that one armed grid sweep holds
/// still until another thread reports an evaluation done (or a timeout
/// passes): a fill held open while that evaluation runs.
class PausingSource final : public spice::TransistorModel {
public:
    explicit PausingSource(spice::TransistorModelPtr inner)
        : inner_(std::move(inner)) {}

    spice::IvSample iv(double vgs, double vds) const override {
        return inner_->iv(vgs, vds);
    }
    spice::CvSample cv(double vgs, double vds) const override {
        return inner_->cv(vgs, vds);
    }
    const char* name() const override { return inner_->name(); }

    void sample_grid(const double* xs, std::size_t nx, const double* ys,
                     std::size_t ny,
                     const spice::GridRowSink& row) const override {
        if (armed_.exchange(false)) {
            std::unique_lock<std::mutex> lock(mutex_);
            in_fill_ = true;
            changed_.notify_all();
            changed_.wait_for(lock, std::chrono::milliseconds(50),
                              [this] { return evaluated_; });
        }
        inner_->sample_grid(xs, nx, ys, ny, row);
    }

    void arm() { armed_ = true; }
    void wait_until_filling() const {
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait(lock, [this] { return in_fill_; });
    }
    void evaluated() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        evaluated_ = true;
        changed_.notify_all();
    }

private:
    spice::TransistorModelPtr inner_;
    mutable std::atomic<bool> armed_{false};
    mutable std::mutex mutex_;
    mutable std::condition_variable changed_;
    mutable bool in_fill_ = false;
    mutable bool evaluated_ = false;
};

TEST(LazyTable, EvaluationDuringAFillWaitsForIt) {
    // One thread grows the table into the upper quadrant; its fill holds
    // still while this thread evaluates inside that quadrant. The
    // evaluation must wait for the fill (it finds the region unpublished
    // and queues on the grow lock), never read the half-written nodes.
    // A source no other test tabulates (see the four-thread test).
    TfetParams p;
    p.temperature = 330.0;
    const auto source = std::make_shared<PausingSource>(make_ptfet(p));
    const auto full = full_table(make_ptfet(p));
    const auto table = build_table(source);
    (void)table->iv(0.0, 0.0); // a small first rectangle
    source->arm();
    std::thread grower([&] { (void)table->iv(1.45, 1.45); });
    source->wait_until_filling();
    const spice::IvSample got = table->iv(1.2, 1.3);
    source->evaluated();
    grower.join();
    EXPECT_TRUE(same_bits(got, full->iv(1.2, 1.3)));
    EXPECT_EQ(table->filled().x_hi, 240u);
}

/// Forwards to a real model, except at one node, where the current (or,
/// with `in_cv`, the gate-drain capacitance) is `bad`.
class BadNodeSource final : public spice::TransistorModel {
public:
    BadNodeSource(spice::TransistorModelPtr inner, double vgs, double vds,
                  double bad, bool in_cv)
        : inner_(std::move(inner)), vgs_(vgs), vds_(vds), bad_(bad),
          in_cv_(in_cv) {}

    spice::IvSample iv(double vgs, double vds) const override {
        spice::IvSample s = inner_->iv(vgs, vds);
        if (!in_cv_ && vgs == vgs_ && vds == vds_)
            s.ids = s.gds = bad_;
        return s;
    }
    spice::CvSample cv(double vgs, double vds) const override {
        spice::CvSample s = inner_->cv(vgs, vds);
        if (in_cv_ && vgs == vgs_ && vds == vds_)
            s.cgd = bad_;
        return s;
    }
    const char* name() const override { return inner_->name(); }

private:
    spice::TransistorModelPtr inner_;
    double vgs_, vds_, bad_;
    bool in_cv_;
};

TEST(LazyTable, NonFiniteNodeFailsTheFillNamingIt) {
    // One bad node, far from where the first evaluations land: the table
    // works until an evaluation's fill reaches the node, then every such
    // evaluation fails with a diagnostic naming the table and the node,
    // never an answer interpolated from it.
    const TableSpec spec;
    const auto shape = build_table(make_ntfet(), spec);
    const double vgs = shape->t_grid().x_at(150);
    const double vds = shape->t_grid().y_at(130);
    for (const auto& [bad, in_cv] :
         {std::pair{std::numeric_limits<double>::quiet_NaN(), false},
          std::pair{std::numeric_limits<double>::infinity(), true}}) {
        SCOPED_TRACE(in_cv ? "inf Cgd" : "NaN current");
        const auto table = build_table(
            std::make_shared<BadNodeSource>(make_ntfet(), vgs, vds, bad,
                                            in_cv),
            spec);
        EXPECT_NO_THROW((void)table->iv(-1.0, -1.0));
        EXPECT_NO_THROW((void)table->cv(0.1, 0.2));
        std::ostringstream node;
        node.precision(17);
        node << "(" << vgs << ", " << vds << ")";
        for (int attempt = 0; attempt < 2; ++attempt) {
            try {
                (void)(in_cv ? table->cv(vgs + 0.003, vds - 0.004).cgd
                             : table->iv(vgs + 0.003, vds - 0.004).ids);
                ADD_FAILURE() << "evaluation beside the bad node returned";
            } catch (const contract_violation& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("nTFET[tab]"), std::string::npos) << what;
                EXPECT_NE(what.find(node.str()), std::string::npos) << what;
            }
        }
    }
}

// ---- Value-only C-V and cross-skipping I-V: bitwise against the ----
// ---- reference evaluation that computes the full gradient        ----

/// Probe points for one table: seeded random points inside it, points in
/// the edge cells (ix or iy at 0 and n-2, where the stencil extrapolates),
/// and points beyond [v_min, v_max].
std::vector<std::pair<double, double>> oracle_points(const DeviceTable& t,
                                                     std::uint64_t seed) {
    const TableSpec& spec = t.spec();
    const Grid2d& g = t.t_grid();
    const std::size_t n = spec.points;
    const double h = g.x_at(1) - g.x_at(0);
    std::vector<std::pair<double, double>> pts;
    Rng rng(seed);
    for (int k = 0; k < 300; ++k)
        pts.emplace_back(rng.uniform(spec.v_min, spec.v_max),
                         rng.uniform(spec.v_min, spec.v_max));
    const auto in_cell = [&](std::size_t i) {
        return g.x_at(i) + rng.uniform(0.0, 1.0) * h;
    };
    for (const std::size_t edge : {std::size_t{0}, n - 2}) {
        for (int k = 0; k < 20; ++k) {
            const auto other = static_cast<std::size_t>(
                rng.uniform(0.0, static_cast<double>(n - 1)));
            pts.emplace_back(in_cell(edge), in_cell(other));
            pts.emplace_back(in_cell(other), in_cell(edge));
        }
        pts.emplace_back(in_cell(edge), in_cell(edge));
        pts.emplace_back(in_cell(edge), in_cell(n - 2 - edge));
    }
    pts.emplace_back(spec.v_max, spec.v_max); // the upper edge node
    const double lo = spec.v_min;
    const double hi = spec.v_max;
    for (const auto& [a, b] : std::vector<std::pair<double, double>>{
             {lo - 0.4, 0.1}, {hi + 0.3, -0.7}, {0.2, lo - 0.5},
             {0.2, hi + 0.2}, {lo - 1.0, lo - 1.0}, {hi + 2.0, hi + 2.0},
             {lo - 0.01, hi + 0.01}, {hi, lo - 1e-9}})
        pts.emplace_back(a, b);
    return pts;
}

TEST(ValueOnlyCv, BitwiseAgainstFullGradientReference) {
    for (const auto& [source, spec] : lazy_cases()) {
        SCOPED_TRACE(source->name());
        const auto table = full_table(source, spec);
        std::size_t value_path = 0;
        for (const auto& [vgs, vds] : oracle_points(*table, 47)) {
            const Grid2d::Cell c = table->cgs_grid().locate(vgs, vds);
            value_path += table->cgs_grid().has_value_path(c) ? 1 : 0;
            const spice::CvSample got = table->cv(vgs, vds);
            // Both references: today's gradient path and the full one.
            const spice::CvSample via_eval{
                std::max(table->cgs_grid().eval(c).f, 1e-18),
                std::max(table->cgd_grid().eval(c).f, 1e-18)};
            const spice::CvSample via_ref{
                std::max(reference::eval(table->cgs_grid(), spec.v_min,
                                         spec.v_max, vgs, vds)
                             .f,
                         1e-18),
                std::max(reference::eval(table->cgd_grid(), spec.v_min,
                                         spec.v_max, vgs, vds)
                             .f,
                         1e-18)};
            EXPECT_TRUE(same_bits(got, via_eval))
                << "cv at (" << vgs << ", " << vds << ")";
            EXPECT_TRUE(same_bits(got, via_ref))
                << "cv at (" << vgs << ", " << vds << ")";
        }
        EXPECT_GT(value_path, 250u); // most random points take it
    }
}

/// iv()'s reconstruction of the current from a T-grid sample.
spice::IvSample reconstruct(const DeviceTable& table, double vds,
                            const Grid2d::Sample& t) {
    const DeviceTable::OutputShape out = table.output_shape(vds);
    const double tc = std::clamp(t.f, -600.0, 600.0);
    const double ex = std::exp(tc);
    const double exi = 1.0 / ex;
    const double sh = 0.5 * (ex - exi);
    const double ch = 0.5 * (ex + exi);
    const double ir = table.spec().i_ref;
    return {out.f * ir * sh, out.f * ir * ch * t.fx,
            out.df * ir * sh + out.f * ir * ch * t.fy};
}

TEST(CrossSkipIv, BitwiseAgainstFullGradientReference) {
    for (const auto& [source, spec] : lazy_cases()) {
        SCOPED_TRACE(source->name());
        const auto table = full_table(source, spec);
        const auto pts = oracle_points(*table, 53);
        std::vector<double> vgs, vds;
        for (const auto& [a, b] : pts) {
            vgs.push_back(a);
            vds.push_back(b);
        }
        std::vector<spice::IvSample> batch(pts.size());
        table->iv_many(vgs.data(), vds.data(), pts.size(), batch.data());
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const Grid2d::Sample ref = reference::eval(
                table->t_grid(), spec.v_min, spec.v_max, vgs[i], vds[i]);
            EXPECT_TRUE(
                same_bits(table->t_grid().eval(vgs[i], vds[i]), ref))
                << "T at (" << vgs[i] << ", " << vds[i] << ")";
            const spice::IvSample want = reconstruct(*table, vds[i], ref);
            EXPECT_TRUE(same_bits(table->iv(vgs[i], vds[i]), want))
                << "iv at (" << vgs[i] << ", " << vds[i] << ")";
            EXPECT_TRUE(same_bits(batch[i], want))
                << "iv_many at (" << vgs[i] << ", " << vds[i] << ")";
        }
    }
}

} // namespace
} // namespace tfetsram::device
