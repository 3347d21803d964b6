#pragma once
// Uniform 2-D grid with C1 (Catmull-Rom bicubic) interpolation and analytic
// gradients. This is the numerical core of the lookup-table device model:
// Newton iteration needs continuous first derivatives, which bilinear
// interpolation cannot provide.

#include <algorithm>
#include <cstddef>
#include <memory>

#include "util/contracts.hpp"

namespace tfetsram::device {

class Grid2d {
public:
    /// Grid over [x0, x1] x [y0, y1] with nx * ny samples (nx, ny >= 4).
    /// Node storage starts uninitialised: the owner writes every node it
    /// will read (DeviceTable fills only the region its evaluations visit,
    /// so nodes it never fills are never touched and never become
    /// resident).
    Grid2d(double x0, double x1, std::size_t nx, double y0, double y1,
           std::size_t ny);

    [[nodiscard]] std::size_t nx() const { return nx_; }
    [[nodiscard]] std::size_t ny() const { return ny_; }
    [[nodiscard]] double x_at(std::size_t ix) const;
    [[nodiscard]] double y_at(std::size_t iy) const;

    double& at(std::size_t ix, std::size_t iy);
    [[nodiscard]] double at(std::size_t ix, std::size_t iy) const;

    /// Interpolated value and gradient.
    struct Sample {
        double f;
        double fx;
        double fy;
    };

    /// Where an evaluation at (x, y) reads the grid: the point clamped
    /// into the domain, its position in units of the node spacing, and the
    /// cell (ix, iy) it falls in. The interpolant reads the 4x4 stencil
    /// [ix-1, ix+2] x [iy-1, iy+2], clipped to the grid (edge cells
    /// extrapolate linearly from the two outermost nodes).
    struct Cell {
        double x, y;           ///< the query point, possibly off-grid
        double xc, yc;         ///< clamped into [x0, x1] x [y0, y1]
        double fx_pos, fy_pos; ///< clamped position / node spacing
        std::size_t ix, iy;    ///< cell index, ix <= nx-2, iy <= ny-2
    };

    /// Locate the cell eval(x, y) reads. Split out so a caller can act on
    /// the stencil before the read (DeviceTable fills it on first use)
    /// without computing the index twice.
    [[nodiscard]] Cell locate(double x, double y) const {
        Cell c;
        c.x = x;
        c.y = y;
        c.xc = std::clamp(x, x0_, x1_);
        c.yc = std::clamp(y, y0_, y1_);
        // Clamp so the upper edge evaluates in the last cell. Multiplying
        // by the precomputed reciprocal steps keeps hardware divides out
        // of the per-iterate device-evaluation hot loop.
        c.fx_pos = (c.xc - x0_) * inv_hx_;
        c.fy_pos = (c.yc - y0_) * inv_hy_;
        c.ix = std::min(static_cast<std::size_t>(std::max(c.fx_pos, 0.0)),
                        nx_ - 2);
        c.iy = std::min(static_cast<std::size_t>(std::max(c.fy_pos, 0.0)),
                        ny_ - 2);
        return c;
    }

    /// Evaluate at (x, y). Outside the domain the surface continues
    /// linearly along the boundary gradient, so Newton excursions beyond
    /// the table stay well-behaved. fx/fy are the exact partial
    /// derivatives of the interpolated surface f — Newton's Jacobian must
    /// differentiate the same function the residual evaluates.
    [[nodiscard]] Sample eval(double x, double y) const {
        return eval(locate(x, y));
    }

    /// eval() at a point already located; bitwise equal to eval(c.x, c.y).
    [[nodiscard]] Sample eval(const Cell& c) const;

    /// Cubic Hermite basis at one fractional position in a cell: the
    /// weights of the two node values and two node slopes in the value.
    struct Basis {
        double h00, h10, h01, h11;
    };
    /// The x and y basis of a located cell. It depends on the cell alone,
    /// so grids of one geometry share it.
    struct ValueBasis {
        Basis x, y;
    };
    [[nodiscard]] static ValueBasis value_basis(const Cell& c);

    /// Whether value() may serve cell c: the point lies inside the domain
    /// and the cell's 4x4 stencil is on-grid. Edge cells extrapolate their
    /// stencil, and the extension beyond the domain needs the gradient;
    /// both stay on eval(c).
    [[nodiscard]] bool has_value_path(const Cell& c) const {
        return c.x == c.xc && c.y == c.yc && c.ix >= 1 && c.ix + 2 < nx_ &&
               c.iy >= 1 && c.iy + 2 < ny_;
    }

    /// eval(c).f, bitwise, without the gradient: the four row values and
    /// the y-pass value only. Requires has_value_path(c); b is
    /// value_basis(c).
    [[nodiscard]] double value(const Cell& c, const ValueBasis& b) const;

private:
    /// Sample plus the cross second derivative d2f/dxdy at the same point.
    /// The linear extension beyond the table needs it: the boundary slope
    /// varies along the edge, so without the cross term the reported
    /// gradient would not be the derivative of the extended surface.
    struct InnerSample {
        double f;
        double fx;
        double fy;
        double fxy;
    };
    /// fxy is computed only when kCross: nothing inside the table reads
    /// it.
    template <bool kCross>
    [[nodiscard]] InnerSample eval_inside(const Cell& c) const;

    double x0_, x1_, y0_, y1_;
    std::size_t nx_, ny_;
    double hx_, hy_;
    double inv_hx_, inv_hy_; ///< reciprocals: the hot path multiplies
    std::unique_ptr<double[]> data_; // row-major: [iy * nx + ix]
};

} // namespace tfetsram::device
