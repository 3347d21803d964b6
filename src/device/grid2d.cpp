#include "device/grid2d.hpp"

#include <algorithm>
#include <cmath>

namespace tfetsram::device {

namespace {
/// Cubic Hermite basis at fractional position t in [0,1]: the weights of
/// p1, m1, p2 and m2 in the interpolated value.
Grid2d::Basis hermite_basis(double t) {
    const double t2 = t * t;
    const double t3 = t2 * t;
    return {2.0 * t3 - 3.0 * t2 + 1.0, t3 - 2.0 * t2 + t,
            -2.0 * t3 + 3.0 * t2, t3 - t2};
}

inline double hermite_value(const Grid2d::Basis& b, double p1, double m1,
                            double p2, double m2) {
    return b.h00 * p1 + b.h10 * m1 + b.h01 * p2 + b.h11 * m2;
}

/// Harmonic-mean node slope of the row pass: zero where the secants
/// a and b disagree in sign or one vanishes. A NaN secant gives NaN.
inline double row_slope(double a, double b) {
    if (a * b <= 0.0)
        return 0.0;
    return 2.0 * a * b / (a + b);
}

/// The same slope as the y-pass tests it (s0 * s1 > 0): a NaN secant
/// gives zero here. Table nodes are finite (DeviceTable rejects others at
/// fill time), so the two tests agree on every table.
inline double column_slope(double a, double b) {
    if (a * b > 0.0)
        return 2.0 * a * b / (a + b);
    return 0.0;
}

/// Monotone (Fritsch-Carlson) cubic Hermite interpolation of p0..p3 at
/// fractional position t in [0,1] between p1 and p2; returns value and
/// d/dt. Node slopes are the harmonic mean of adjacent secants (zero at
/// local extrema), which guarantees no overshoot — essential where the
/// asinh-compressed current crosses its near-logarithmic cliff at vds = 0 —
/// while staying C1 across cells and reproducing linear data exactly.
struct Cubic {
    double f;
    double dfdt;
};
inline Cubic monotone_hermite(double p0, double p1, double p2, double p3,
                              double t) {
    const double m1 = row_slope(p1 - p0, p2 - p1);
    const double m2 = row_slope(p2 - p1, p3 - p2);
    const double t2 = t * t;
    const double f = hermite_value(hermite_basis(t), p1, m1, p2, m2);
    const double dfdt = (6.0 * t2 - 6.0 * t) * p1 +
                        (3.0 * t2 - 4.0 * t + 1.0) * m1 +
                        (-6.0 * t2 + 6.0 * t) * p2 + (3.0 * t2 - 2.0 * t) * m2;
    return {f, dfdt};
}

/// The same interpolant with the partial derivatives of its value with
/// respect to the four data points. The cross derivative of the surface
/// needs them: f = H(row_f(tx); ty), so df/dtx = sum_r dH/dq_r * row_f'_r —
/// the harmonic-mean limiter makes H nonlinear in its data, and
/// re-limiting the already-differentiated row slopes (the scheme this
/// replaced) yields a different, inconsistent derivative.
struct CubicW {
    double f;
    double dfdt;
    double dq0, dq1, dq2, dq3;     ///< d f / d p_r at fixed t
    double ddq0, ddq1, ddq2, ddq3; ///< d^2 f / (dt dp_r): the cross
                                   ///< derivative of the surface needs
                                   ///< these for d fx / dy; computed only
                                   ///< when kCross
};
template <bool kCross>
inline CubicW monotone_hermite_weights(double p0, double p1, double p2,
                                       double p3, double t) {
    const double s0 = p1 - p0;
    const double s1 = p2 - p1;
    const double s2 = p3 - p2;
    // L(a, b) = 2ab/(a+b) on a*b > 0, else 0; its partials on the smooth
    // branch are dL/da = 2 b^2/(a+b)^2 and dL/db = 2 a^2/(a+b)^2 (both 0
    // on the clamped branch, matching the zero slope there).
    const double m1 = column_slope(s0, s1);
    double la1 = 0.0, lb1 = 0.0;
    if (s0 * s1 > 0.0) {
        const double d = s0 + s1;
        la1 = 2.0 * s1 * s1 / (d * d);
        lb1 = 2.0 * s0 * s0 / (d * d);
    }
    const double m2 = column_slope(s1, s2);
    double la2 = 0.0, lb2 = 0.0;
    if (s1 * s2 > 0.0) {
        const double d = s1 + s2;
        la2 = 2.0 * s2 * s2 / (d * d);
        lb2 = 2.0 * s1 * s1 / (d * d);
    }
    const double t2 = t * t;
    const Grid2d::Basis b = hermite_basis(t);
    CubicW w{};
    w.f = hermite_value(b, p1, m1, p2, m2);
    w.dfdt = (6.0 * t2 - 6.0 * t) * p1 + (3.0 * t2 - 4.0 * t + 1.0) * m1 +
             (-6.0 * t2 + 6.0 * t) * p2 + (3.0 * t2 - 2.0 * t) * m2;
    // Chain rule through m1(p0,p1,p2) and m2(p1,p2,p3): s0 = p1-p0 etc.
    w.dq0 = b.h10 * (-la1);
    w.dq1 = b.h00 + b.h10 * (la1 - lb1) + b.h11 * (-la2);
    w.dq2 = b.h01 + b.h10 * lb1 + b.h11 * (la2 - lb2);
    w.dq3 = b.h11 * lb2;
    if constexpr (kCross) {
        // t-derivatives of the weights (la/lb do not depend on t): these
        // give d/dt of df/dp_r, i.e. the mixed partial the 2-D cross
        // derivative is assembled from.
        const double h00p = 6.0 * t2 - 6.0 * t;
        const double h10p = 3.0 * t2 - 4.0 * t + 1.0;
        const double h01p = -6.0 * t2 + 6.0 * t;
        const double h11p = 3.0 * t2 - 2.0 * t;
        w.ddq0 = h10p * (-la1);
        w.ddq1 = h00p + h10p * (la1 - lb1) + h11p * (-la2);
        w.ddq2 = h01p + h10p * lb1 + h11p * (la2 - lb2);
        w.ddq3 = h11p * lb2;
    }
    return w;
}
} // namespace

Grid2d::Grid2d(double x0, double x1, std::size_t nx, double y0, double y1,
               std::size_t ny)
    : x0_(x0), x1_(x1), y0_(y0), y1_(y1), nx_(nx), ny_(ny),
      data_(std::make_unique_for_overwrite<double[]>(nx * ny)) {
    TFET_EXPECTS(nx >= 4 && ny >= 4);
    TFET_EXPECTS(x1 > x0 && y1 > y0);
    hx_ = (x1 - x0) / static_cast<double>(nx - 1);
    hy_ = (y1 - y0) / static_cast<double>(ny - 1);
    inv_hx_ = 1.0 / hx_;
    inv_hy_ = 1.0 / hy_;
}

double Grid2d::x_at(std::size_t ix) const {
    TFET_EXPECTS(ix < nx_);
    return x0_ + hx_ * static_cast<double>(ix);
}

double Grid2d::y_at(std::size_t iy) const {
    TFET_EXPECTS(iy < ny_);
    return y0_ + hy_ * static_cast<double>(iy);
}

double& Grid2d::at(std::size_t ix, std::size_t iy) {
    TFET_EXPECTS(ix < nx_ && iy < ny_);
    return data_[iy * nx_ + ix];
}

double Grid2d::at(std::size_t ix, std::size_t iy) const {
    TFET_EXPECTS(ix < nx_ && iy < ny_);
    return data_[iy * nx_ + ix];
}

template <bool kCross>
Grid2d::InnerSample Grid2d::eval_inside(const Cell& c) const {
    const std::size_t ix = c.ix;
    const std::size_t iy = c.iy;
    const double tx = c.fx_pos - static_cast<double>(ix);
    const double ty = c.fy_pos - static_cast<double>(iy);

    double row_f[4];
    double row_fx[4];
    if (ix >= 1 && ix + 2 < nx_ && iy >= 1 && iy + 2 < ny_) {
        // Interior fast path: the whole 4x4 stencil is on-grid, so the
        // samples read straight out of the row-major store. This is the
        // branch the device tables take almost always (241x241 grids) and
        // the one the batched evaluator leans on.
        const double* base = data_.get() + (iy - 1) * nx_ + (ix - 1);
        for (int r = 0; r < 4; ++r) {
            const double* p = base + static_cast<std::size_t>(r) * nx_;
            const Cubic h = monotone_hermite(p[0], p[1], p[2], p[3], tx);
            row_f[r] = h.f;
            row_fx[r] = h.dfdt * inv_hx_;
        }
    } else {
        // Fetch with linear extrapolation one sample beyond each edge, so
        // the stencil reproduces linear surfaces exactly at the boundary
        // (clamped padding would flatten them).
        auto fetch = [this](std::ptrdiff_t gx, std::ptrdiff_t gy) {
            const auto nxi = static_cast<std::ptrdiff_t>(nx_);
            const auto nyi = static_cast<std::ptrdiff_t>(ny_);
            double wx0 = 1.0;
            double wx1 = 0.0;
            std::ptrdiff_t gx0 = gx;
            std::ptrdiff_t gx1 = gx;
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
            double wy0 = 1.0;
            double wy1 = 0.0;
            std::ptrdiff_t gy0 = gy;
            std::ptrdiff_t gy1 = gy;
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
            auto v = [this](std::ptrdiff_t a, std::ptrdiff_t b) {
                return at(static_cast<std::size_t>(a),
                          static_cast<std::size_t>(b));
            };
            return wx0 * (wy0 * v(gx0, gy0) + wy1 * v(gx0, gy1)) +
                   wx1 * (wy0 * v(gx1, gy0) + wy1 * v(gx1, gy1));
        };
        for (int r = 0; r < 4; ++r) {
            const auto gy = static_cast<std::ptrdiff_t>(iy) + r - 1;
            const auto gx = static_cast<std::ptrdiff_t>(ix);
            const double p0 = fetch(gx - 1, gy);
            const double p1 = fetch(gx, gy);
            const double p2 = fetch(gx + 1, gy);
            const double p3 = fetch(gx + 2, gy);
            const Cubic h = monotone_hermite(p0, p1, p2, p3, tx);
            row_f[r] = h.f;
            row_fx[r] = h.dfdt * inv_hx_;
        }
    }

    // y-pass with data partials: f = H(row_f; ty), so the exact surface
    // partials are df/dy = dH/dt / hy and df/dx = sum_r dH/drow_f[r] *
    // row_fx[r] — the derivatives of the same interpolant the value comes
    // from, which is what keeps the Newton Jacobian consistent with the
    // residual.
    const CubicW cy = monotone_hermite_weights<kCross>(
        row_f[0], row_f[1], row_f[2], row_f[3], ty);
    const double fx = cy.dq0 * row_fx[0] + cy.dq1 * row_fx[1] +
                      cy.dq2 * row_fx[2] + cy.dq3 * row_fx[3];
    double fxy = 0.0;
    if constexpr (kCross)
        fxy = (cy.ddq0 * row_fx[0] + cy.ddq1 * row_fx[1] +
               cy.ddq2 * row_fx[2] + cy.ddq3 * row_fx[3]) *
              inv_hy_;
    return {cy.f, fx, cy.dfdt * inv_hy_, fxy};
}

Grid2d::Sample Grid2d::eval(const Cell& c) const {
    if (c.x == c.xc && c.y == c.yc) {
        // Inside the table nothing reads the cross derivative.
        const InnerSample s = eval_inside<false>(c);
        return {s.f, s.fx, s.fy};
    }
    // Bilinear extension beyond the table keeps Newton iterates finite.
    // The boundary slope varies along the edge, so the cross term is what
    // makes the reported fx/fy the exact partials of this extension — a
    // pure f += fx*dx + fy*dy continuation would hand Newton a Jacobian
    // inconsistent with the residual beside the table edges.
    const InnerSample s = eval_inside<true>(c);
    const double dx = c.x - c.xc;
    const double dy = c.y - c.yc;
    return {s.f + s.fx * dx + s.fy * dy + s.fxy * dx * dy,
            s.fx + s.fxy * dy, s.fy + s.fxy * dx};
}

Grid2d::ValueBasis Grid2d::value_basis(const Cell& c) {
    return {hermite_basis(c.fx_pos - static_cast<double>(c.ix)),
            hermite_basis(c.fy_pos - static_cast<double>(c.iy))};
}

double Grid2d::value(const Cell& c, const ValueBasis& b) const {
    // eval_inside's interior fast path and its y-pass, reduced to the
    // value: the same row_slope/column_slope/hermite_value arithmetic in
    // the same order, so the result is bitwise eval(c).f.
    const double* base = data_.get() + (c.iy - 1) * nx_ + (c.ix - 1);
    double row_f[4];
    for (int r = 0; r < 4; ++r) {
        const double* p = base + static_cast<std::size_t>(r) * nx_;
        row_f[r] = hermite_value(b.x, p[1], row_slope(p[1] - p[0], p[2] - p[1]),
                                 p[2], row_slope(p[2] - p[1], p[3] - p[2]));
    }
    return hermite_value(
        b.y, row_f[1], column_slope(row_f[1] - row_f[0], row_f[2] - row_f[1]),
        row_f[2], column_slope(row_f[2] - row_f[1], row_f[3] - row_f[2]));
}

} // namespace tfetsram::device
