#pragma once
// Uniform 2-D grid with C1 (Catmull-Rom bicubic) interpolation and analytic
// gradients. This is the numerical core of the lookup-table device model:
// Newton iteration needs continuous first derivatives, which bilinear
// interpolation cannot provide.

#include <cstddef>
#include <vector>

#include "util/contracts.hpp"

namespace tfetsram::device {

class Grid2d {
public:
    /// Grid over [x0, x1] x [y0, y1] with nx * ny samples (nx, ny >= 4).
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

    /// Evaluate at (x, y). Outside the domain the surface continues
    /// linearly along the boundary gradient, so Newton excursions beyond
    /// the table stay well-behaved. fx/fy are the exact partial
    /// derivatives of the interpolated surface f — Newton's Jacobian must
    /// differentiate the same function the residual evaluates.
    [[nodiscard]] Sample eval(double x, double y) const;

    /// Batched evaluation: out[i] = eval(xs[i], ys[i]) for i in [0, n).
    /// Today this is a plain scalar loop over eval() — one entry point the
    /// batched device path can later vectorize (no fused SoA pass yet).
    /// Must stay bitwise-identical to n scalar eval() calls.
    void eval_many(const double* xs, const double* ys, std::size_t n,
                   Sample* out) const;

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
    [[nodiscard]] InnerSample eval_inside(double x, double y) const;

    double x0_, x1_, y0_, y1_;
    std::size_t nx_, ny_;
    double hx_, hy_;
    double inv_hx_, inv_hy_; ///< reciprocals: the hot path multiplies
    std::vector<double> data_; // row-major: [iy * nx + ix]
};

} // namespace tfetsram::device
