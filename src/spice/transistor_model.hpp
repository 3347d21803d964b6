#pragma once
// The contract between the circuit engine and device physics: a transistor
// model supplies the channel current (with partial derivatives) and the two
// terminal capacitances, all normalized per micron of width. Concrete models
// (analytic TFET/MOSFET physics and the lookup-table flavor the paper's
// Verilog-A flow uses) live in src/device.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace tfetsram::spice {

/// Channel current and its partial derivatives at one bias point,
/// per micron of device width. Current is taken positive drain->source.
struct IvSample {
    double ids;  ///< drain-source current [A/um]
    double gm;   ///< d ids / d vgs [S/um]
    double gds;  ///< d ids / d vds [S/um]
};

/// Terminal capacitances at one bias point, per micron of width.
struct CvSample {
    double cgs; ///< gate-source capacitance [F/um]
    double cgd; ///< gate-drain capacitance [F/um]
};

/// Consumer of one row of a grid sweep: iv[ix] and cv[ix] are the samples
/// at (xs[ix], ys[iy]) for ix in [0, nx). The pointers are valid only for
/// the duration of the call.
using GridRowSink = std::function<void(std::size_t iy, const IvSample* iv,
                                       const CvSample* cv)>;

/// Abstract transistor characteristics. Implementations must be smooth
/// enough for Newton iteration (C1 in both arguments) and defined for all
/// real (vgs, vds) — including reverse bias, where TFET physics differs
/// fundamentally from MOSFETs.
class TransistorModel {
public:
    virtual ~TransistorModel() = default;

    /// I-V characteristic with derivatives.
    [[nodiscard]] virtual IvSample iv(double vgs, double vds) const = 0;

    /// Batched I-V: out[i] = iv(vgs[i], vds[i]) for i in [0, n). The
    /// default loops the scalar entry point; table-backed models override
    /// with a structure-of-arrays pass over their grids (the per-iterate
    /// hot loop at array scale). Overrides MUST be bitwise-identical to
    /// the scalar path — the dense/sparse differential suite asserts exact
    /// Jacobian equality across assembly backends.
    virtual void iv_many(const double* vgs, const double* vds, std::size_t n,
                         IvSample* out) const {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = iv(vgs[i], vds[i]);
    }

    /// C-V characteristic. Must be a pure function of (vgs, vds):
    /// Transistor reuses its last sample when asked again at the same
    /// bias, bit for bit.
    [[nodiscard]] virtual CvSample cv(double vgs, double vds) const = 0;

    /// Sample I-V and C-V over the tensor grid xs (vgs) x ys (vds), handing
    /// `row` one row (fixed vds, every vgs) at a time in ascending iy. The
    /// default loops the scalar entry points; separable models override it
    /// to hoist per-axis factors out of the inner loop (table extraction,
    /// docs/DEVICE_MODEL.md §3). Overrides MUST be bitwise-identical to
    /// iv()/cv() at every grid point and must not buffer the whole grid.
    virtual void sample_grid(const double* xs, std::size_t nx,
                             const double* ys, std::size_t ny,
                             const GridRowSink& row) const {
        std::vector<IvSample> iv_row(nx);
        std::vector<CvSample> cv_row(nx);
        for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t ix = 0; ix < nx; ++ix) {
                iv_row[ix] = iv(xs[ix], ys[iy]);
                cv_row[ix] = cv(xs[ix], ys[iy]);
            }
            row(iy, iv_row.data(), cv_row.data());
        }
    }

    /// Short human-readable name for reports ("nTFET", "pMOS", ...).
    [[nodiscard]] virtual const char* name() const = 0;
};

using TransistorModelPtr = std::shared_ptr<const TransistorModel>;

} // namespace tfetsram::spice
