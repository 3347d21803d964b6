#pragma once
// Lookup-table transistor model — the circuit-simulation flow of the paper:
// "the I-V and C-V TFET data are stored in two-dimensional lookup tables,
// which are then used by Verilog-A to implement a lookup table based model"
// (Sec. 2).
//
// Storage uses output-function factorization: the raw current I(vgs, vds)
// spans ~13 decades and, worse, passes through zero along vds = 0 with a
// near-logarithmic cliff that no polynomial interpolant can follow. The
// table therefore stores
//     T(vgs, vds) = asinh( I / (F(vds) * i_ref) ),
// where F(vds) = sign(vds) * (1 - exp(-|vds|/v0)) is a fixed, device-
// independent output shape that absorbs the linear zero crossing. T is
// smooth through vds = 0 (its value there is the channel conductance times
// v0, asinh-compressed), so
//     I  = F * i_ref * sinh(T)
// reconstructs with high relative accuracy everywhere, and the chain-rule
// derivatives of this expression are *exactly* the derivatives of the
// interpolant — Newton sees a consistent C1 system.
//
// Tables fill lazily (docs/DEVICE_MODEL.md §3): a table keeps its source
// model and samples a node only when an evaluation first needs it. Node
// values are pointwise pure, so every evaluation is bitwise what a fully
// filled table gives, whichever order the nodes were filled in.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "device/grid2d.hpp"
#include "spice/transistor_model.hpp"

namespace tfetsram::device {

/// Grid extent/resolution of an extracted device table.
struct TableSpec {
    double v_min = -1.5;     ///< lower bias bound on both axes [V]
    double v_max = 1.5;      ///< upper bias bound on both axes [V]
    std::size_t points = 241; ///< samples per axis (odd => vds = 0 on-grid)
    double i_ref = 1e-18;    ///< asinh compression reference current [A/um]
    double v_out = 0.15;     ///< output-shape voltage scale v0 [V]
};

/// Tabulated TransistorModel over `source`, usually made by build_table()
/// in table_builder.hpp. x-axis = vgs, y-axis = vds.
///
/// The filled part of the T, Cgs and Cgd grids is one node rectangle. An
/// evaluation locates its cell once and checks that the cell's 4x4
/// stencil lies inside the rectangle (one acquire load and four integer
/// compares). On a miss the rectangle grows under a mutex to its join with
/// the stencil, rounded out to kBlock-node blocks; the new strips are
/// sampled through source.sample_grid and the new bounds published with a
/// release store. Evaluations may run on any number of threads at once.
class DeviceTable final : public spice::TransistorModel {
public:
    /// Fill granularity: a grown rectangle's bounds are multiples of this
    /// (or the grid's edges).
    static constexpr std::size_t kBlock = 16;

    /// An empty table over `source`: no node is sampled until an
    /// evaluation needs it. spec.points must fit the packed 16-bit bounds.
    DeviceTable(spice::TransistorModelPtr source, const TableSpec& spec);

    [[nodiscard]] spice::IvSample iv(double vgs, double vds) const override;
    [[nodiscard]] spice::CvSample cv(double vgs, double vds) const override;
    [[nodiscard]] const char* name() const override { return name_.c_str(); }

    /// Batched I-V: a scalar loop of T-grid evaluations followed by the
    /// sinh/cosh reconstruction, bitwise equal to n scalar iv() calls.
    /// This is the array-scale hot loop the DeviceEvalBatch drives once
    /// per Newton iterate.
    void iv_many(const double* vgs, const double* vds, std::size_t n,
                 spice::IvSample* out) const override;

    [[nodiscard]] const TableSpec& spec() const { return spec_; }

    /// Node rectangle [x_lo, x_hi) x [y_lo, y_hi) filled so far (empty
    /// when x_lo == x_hi).
    struct NodeRect {
        std::size_t x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
    };
    [[nodiscard]] NodeRect filled() const;

    /// Raw grids, exposed for tests. Only nodes inside filled() hold
    /// values; the rest are uninitialised.
    [[nodiscard]] const Grid2d& t_grid() const { return t_grid_; }
    [[nodiscard]] const Grid2d& cgs_grid() const { return cgs_grid_; }
    [[nodiscard]] const Grid2d& cgd_grid() const { return cgd_grid_; }

    /// The fixed output shape F(vds) and its derivative.
    struct OutputShape {
        double f;
        double df;
    };
    [[nodiscard]] OutputShape output_shape(double vds) const;

    /// Compression used at fill time: T = asinh(ratio / i_ref).
    [[nodiscard]] double compress_ratio(double ratio) const;

private:
    /// Cells whose stencil lies inside the filled rectangle:
    /// [ix_lo, ix_hi] x [iy_lo, iy_hi], packed into one atomic word.
    struct Window {
        std::uint16_t ix_lo, ix_hi, iy_lo, iy_hi;
    };
    static_assert(std::atomic<Window>::is_always_lock_free);

    /// Make sure the stencil of cell c is filled: the check every
    /// evaluation pays, with grow() as the rare slow path.
    void require(const Grid2d::Cell& c) const {
        const Window w = window_.load(std::memory_order_acquire);
        if (c.ix < w.ix_lo || c.ix > w.ix_hi || c.iy < w.iy_lo ||
            c.iy > w.iy_hi) [[unlikely]]
            grow(c.ix, c.iy);
    }
    void grow(std::size_t ix, std::size_t iy) const;
    /// Sample the source over nodes [x0, x1) x [y0, y1) into the grids.
    /// Throws contract_violation, naming the table and the node, if the
    /// source yields a non-finite T, Cgs or Cgd.
    void fill(std::size_t x0, std::size_t x1, std::size_t y0,
              std::size_t y1) const;
    [[noreturn]] void reject_node(double vgs, double vds, double t,
                                  const spice::CvSample& cv) const;
    [[nodiscard]] Window window_of(const NodeRect& r) const;

    std::string name_;
    TableSpec spec_;
    spice::TransistorModelPtr source_;
    std::vector<double> axis_; ///< node voltages, shared by both axes
    // The grids and filled_ are written only by grow(), under grow_mutex_,
    // and only outside the published rectangle; readers read only inside
    // it, after the acquire load of window_ that made it visible.
    mutable Grid2d t_grid_;
    mutable Grid2d cgs_grid_;
    mutable Grid2d cgd_grid_;
    mutable std::mutex grow_mutex_;
    mutable NodeRect filled_;
    mutable std::atomic<Window> window_;
};

} // namespace tfetsram::device
