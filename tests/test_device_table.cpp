// Lookup-table model tests: grid interpolation exactness, asinh round trip,
// fidelity of the tabulated model against its analytic source across the
// full 13-decade current range, derivative continuity, and bitwise
// identity of the row-streamed (separable) extraction with the per-point
// iv()/cv() loop it replaced.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "device/grid2d.hpp"
#include "device/model_zoo.hpp"
#include "device/models.hpp"
#include "device/table_builder.hpp"
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
    const DeviceTable t("t", TableSpec{});
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
    const auto table = build_table(*analytic);
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
    const auto table = build_table(*analytic);
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
    const auto table = build_table(*make_ntfet());
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
    const auto table = build_table(*analytic);
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
    const auto table = build_table(*analytic);
    const double g_true = analytic->iv(0.8, 0.0).gds;
    const double g_tab = table->iv(0.8, 0.0).gds;
    EXPECT_GT(g_true, 1e-6);
    EXPECT_NEAR(g_tab, g_true, g_true * 0.05);
}

TEST(DeviceTable, CapsInterpolatedPositive) {
    const auto table = build_table(*make_ptfet());
    Rng rng(31);
    for (int k = 0; k < 100; ++k) {
        const spice::CvSample c =
            table->cv(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4));
        EXPECT_GT(c.cgs, 0.0);
        EXPECT_GT(c.cgd, 0.0);
    }
}

TEST(DeviceTable, AnchorsSurviveTabulation) {
    const auto table = build_table(*make_ntfet());
    EXPECT_NEAR(table->iv(1.0, 1.0).ids, 1e-4, 1e-4 * 0.05);
    const double ioff = table->iv(0.0, 1.0).ids;
    EXPECT_GT(ioff, 1e-18);
    EXPECT_LT(ioff, 1e-16);
}

TEST(DeviceTable, NameMarksTabulated) {
    const auto table = build_table(*make_ntfet());
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
Grids per_point_extraction(const spice::TransistorModel& source,
                           const TableSpec& spec) {
    const DeviceTable shape("oracle", spec); // axes, F(vds), compression
    const Grid2d& g = shape.t_grid();
    Grids out;
    for (std::size_t iy = 0; iy < g.ny(); ++iy) {
        const double vds = g.y_at(iy);
        const DeviceTable::OutputShape f = shape.output_shape(vds);
        for (std::size_t ix = 0; ix < g.nx(); ++ix) {
            const double vgs = g.x_at(ix);
            const spice::IvSample s = source.iv(vgs, vds);
            const double ratio =
                std::fabs(f.f) > 1e-9 ? s.ids / f.f : s.gds / f.df;
            out.t.push_back(shape.compress_ratio(ratio));
            const spice::CvSample c = source.cv(vgs, vds);
            out.cgs.push_back(c.cgs);
            out.cgd.push_back(c.cgd);
        }
    }
    return out;
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

void expect_extraction_identical(const spice::TransistorModel& source,
                                 const TableSpec& spec = {}) {
    const Grids want = per_point_extraction(source, spec);
    const Grids got = grids_of(*build_table(source, spec));
    ASSERT_EQ(got.t.size(), spec.points * spec.points);
    EXPECT_TRUE(bitwise_equal(got.t, want.t)) << source.name() << " T";
    EXPECT_TRUE(bitwise_equal(got.cgs, want.cgs)) << source.name() << " Cgs";
    EXPECT_TRUE(bitwise_equal(got.cgd, want.cgd)) << source.name() << " Cgd";
}

TfetParams tox_scaled(TfetParams p, double scale) {
    p.tox *= scale;
    return p;
}

TEST(SeparableExtraction, TfetPairBitwiseAcrossToxCorners) {
    for (double scale : {0.95, 1.0, 1.05}) {
        SCOPED_TRACE(scale);
        const TfetParams p = tox_scaled(TfetParams{}, scale);
        expect_extraction_identical(*make_ntfet(p));
        expect_extraction_identical(*make_ptfet(p)); // mirror path
    }
}

TEST(SeparableExtraction, CntfetFlavorAt360KBitwise) {
    TfetParams p = find_model_set("cntfet").tfet;
    p.temperature = 360.0;
    expect_extraction_identical(*make_ntfet(p));
    expect_extraction_identical(*make_ptfet(p));
}

TEST(SeparableExtraction, CoarseGridBitwise) {
    TableSpec coarse;
    coarse.points = 121;
    expect_extraction_identical(*make_ntfet(), coarse);
    expect_extraction_identical(*make_ptfet(), coarse);
}

TEST(SeparableExtraction, DefaultRowPathForMosfetsBitwise) {
    // MOSFETs do not override sample_grid: the default scalar loop (and,
    // for pMOS, the mirror around it) must equal the old extraction too.
    expect_extraction_identical(*make_nmos());
    expect_extraction_identical(*make_pmos());
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

} // namespace
} // namespace tfetsram::device
