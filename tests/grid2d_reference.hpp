#pragma once
// Test-only reference for Grid2d's interpolant: the evaluation that
// computes every value with its full gradient and cross derivative, on
// every cell, inside the table or not. The value-only capacitance path
// and the I-V path that skips the cross derivative inside the table must
// match it bit for bit (tests/test_device_table.cpp).

#include <cstddef>

#include "device/grid2d.hpp"

namespace tfetsram::device::reference {

struct Cubic {
    double f;
    double dfdt;
};

inline Cubic monotone_hermite(double p0, double p1, double p2, double p3,
                              double t) {
    const double s0 = p1 - p0;
    const double s1 = p2 - p1;
    const double s2 = p3 - p2;
    const auto limited = [](double a, double b) {
        if (a * b <= 0.0)
            return 0.0;
        return 2.0 * a * b / (a + b);
    };
    const double m1 = limited(s0, s1);
    const double m2 = limited(s1, s2);
    const double t2 = t * t;
    const double t3 = t2 * t;
    const double f = (2.0 * t3 - 3.0 * t2 + 1.0) * p1 +
                     (t3 - 2.0 * t2 + t) * m1 +
                     (-2.0 * t3 + 3.0 * t2) * p2 + (t3 - t2) * m2;
    const double dfdt = (6.0 * t2 - 6.0 * t) * p1 +
                        (3.0 * t2 - 4.0 * t + 1.0) * m1 +
                        (-6.0 * t2 + 6.0 * t) * p2 + (3.0 * t2 - 2.0 * t) * m2;
    return {f, dfdt};
}

struct CubicW {
    double f;
    double dfdt;
    double dq0, dq1, dq2, dq3;
    double ddq0, ddq1, ddq2, ddq3;
};

inline CubicW monotone_hermite_weights(double p0, double p1, double p2,
                                       double p3, double t) {
    const double s0 = p1 - p0;
    const double s1 = p2 - p1;
    const double s2 = p3 - p2;
    double m1 = 0.0, la1 = 0.0, lb1 = 0.0;
    if (s0 * s1 > 0.0) {
        const double d = s0 + s1;
        m1 = 2.0 * s0 * s1 / d;
        la1 = 2.0 * s1 * s1 / (d * d);
        lb1 = 2.0 * s0 * s0 / (d * d);
    }
    double m2 = 0.0, la2 = 0.0, lb2 = 0.0;
    if (s1 * s2 > 0.0) {
        const double d = s1 + s2;
        m2 = 2.0 * s1 * s2 / d;
        la2 = 2.0 * s2 * s2 / (d * d);
        lb2 = 2.0 * s1 * s1 / (d * d);
    }
    const double t2 = t * t;
    const double t3 = t2 * t;
    const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
    const double h10 = t3 - 2.0 * t2 + t;
    const double h01 = -2.0 * t3 + 3.0 * t2;
    const double h11 = t3 - t2;
    CubicW w;
    w.f = h00 * p1 + h10 * m1 + h01 * p2 + h11 * m2;
    w.dfdt = (6.0 * t2 - 6.0 * t) * p1 + (3.0 * t2 - 4.0 * t + 1.0) * m1 +
             (-6.0 * t2 + 6.0 * t) * p2 + (3.0 * t2 - 2.0 * t) * m2;
    w.dq0 = h10 * (-la1);
    w.dq1 = h00 + h10 * (la1 - lb1) + h11 * (-la2);
    w.dq2 = h01 + h10 * lb1 + h11 * (la2 - lb2);
    w.dq3 = h11 * lb2;
    const double h00p = 6.0 * t2 - 6.0 * t;
    const double h10p = 3.0 * t2 - 4.0 * t + 1.0;
    const double h01p = -6.0 * t2 + 6.0 * t;
    const double h11p = 3.0 * t2 - 2.0 * t;
    w.ddq0 = h10p * (-la1);
    w.ddq1 = h00p + h10p * (la1 - lb1) + h11p * (-la2);
    w.ddq2 = h01p + h10p * lb1 + h11p * (la2 - lb2);
    w.ddq3 = h11p * lb2;
    return w;
}

/// Node (gx, gy) of g, with linear extrapolation one node beyond each
/// edge.
inline double fetch(const Grid2d& g, std::ptrdiff_t gx, std::ptrdiff_t gy) {
    const auto nxi = static_cast<std::ptrdiff_t>(g.nx());
    const auto nyi = static_cast<std::ptrdiff_t>(g.ny());
    double wx0 = 1.0, wx1 = 0.0;
    std::ptrdiff_t gx0 = gx, gx1 = gx;
    if (gx < 0) {
        gx0 = 0;
        gx1 = 1;
        wx0 = 2.0;
        wx1 = -1.0;
    } else if (gx >= nxi) {
        gx0 = nxi - 1;
        gx1 = nxi - 2;
        wx0 = 2.0;
        wx1 = -1.0;
    }
    double wy0 = 1.0, wy1 = 0.0;
    std::ptrdiff_t gy0 = gy, gy1 = gy;
    if (gy < 0) {
        gy0 = 0;
        gy1 = 1;
        wy0 = 2.0;
        wy1 = -1.0;
    } else if (gy >= nyi) {
        gy0 = nyi - 1;
        gy1 = nyi - 2;
        wy0 = 2.0;
        wy1 = -1.0;
    }
    const auto v = [&g](std::ptrdiff_t a, std::ptrdiff_t b) {
        return g.at(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
    };
    return wx0 * (wy0 * v(gx0, gy0) + wy1 * v(gx0, gy1)) +
           wx1 * (wy0 * v(gx1, gy0) + wy1 * v(gx1, gy1));
}

/// g.eval(x, y) computed the full way. g must span [lo, hi] on both axes
/// (the reference needs the exact node-spacing reciprocals g uses).
inline Grid2d::Sample eval(const Grid2d& g, double lo, double hi, double x,
                           double y) {
    const Grid2d::Cell c = g.locate(x, y);
    const double inv_hx = 1.0 / ((hi - lo) / static_cast<double>(g.nx() - 1));
    const double inv_hy = 1.0 / ((hi - lo) / static_cast<double>(g.ny() - 1));
    const double tx = c.fx_pos - static_cast<double>(c.ix);
    const double ty = c.fy_pos - static_cast<double>(c.iy);
    double row_f[4];
    double row_fx[4];
    // Interior stencils read the nodes directly; the extrapolating fetch
    // would turn a -0.0 node into +0.0.
    const bool interior = c.ix >= 1 && c.ix + 2 < g.nx() && c.iy >= 1 &&
                          c.iy + 2 < g.ny();
    for (int r = 0; r < 4; ++r) {
        const auto gy = static_cast<std::ptrdiff_t>(c.iy) + r - 1;
        const auto gx = static_cast<std::ptrdiff_t>(c.ix);
        double p[4];
        for (int k = 0; k < 4; ++k)
            p[k] = interior ? g.at(c.ix + static_cast<std::size_t>(k) - 1,
                                   static_cast<std::size_t>(gy))
                            : fetch(g, gx + k - 1, gy);
        const Cubic h = monotone_hermite(p[0], p[1], p[2], p[3], tx);
        row_f[r] = h.f;
        row_fx[r] = h.dfdt * inv_hx;
    }
    const CubicW cy =
        monotone_hermite_weights(row_f[0], row_f[1], row_f[2], row_f[3], ty);
    const double fx = cy.dq0 * row_fx[0] + cy.dq1 * row_fx[1] +
                      cy.dq2 * row_fx[2] + cy.dq3 * row_fx[3];
    const double fxy = (cy.ddq0 * row_fx[0] + cy.ddq1 * row_fx[1] +
                        cy.ddq2 * row_fx[2] + cy.ddq3 * row_fx[3]) *
                       inv_hy;
    const double fy = cy.dfdt * inv_hy;
    if (c.x == c.xc && c.y == c.yc)
        return {cy.f, fx, fy};
    const double dx = c.x - c.xc;
    const double dy = c.y - c.yc;
    return {cy.f + fx * dx + fy * dy + fxy * dx * dy, fx + fxy * dy,
            fy + fxy * dx};
}

} // namespace tfetsram::device::reference
