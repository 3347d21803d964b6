#include "device/device_table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace tfetsram::device {

namespace {

const spice::TransistorModel& checked(const spice::TransistorModelPtr& m) {
    TFET_EXPECTS(m != nullptr);
    return *m;
}

} // namespace

DeviceTable::DeviceTable(spice::TransistorModelPtr source,
                         const TableSpec& spec)
    : name_(std::string(checked(source).name()) + "[tab]"), spec_(spec),
      source_(std::move(source)),
      t_grid_(spec.v_min, spec.v_max, spec.points, spec.v_min, spec.v_max,
              spec.points),
      cgs_grid_(spec.v_min, spec.v_max, spec.points, spec.v_min, spec.v_max,
                spec.points),
      cgd_grid_(spec.v_min, spec.v_max, spec.points, spec.v_min, spec.v_max,
                spec.points),
      window_(window_of(NodeRect{})) {
    TFET_EXPECTS(spec.i_ref > 0.0);
    TFET_EXPECTS(spec.v_out > 0.0);
    TFET_EXPECTS(spec.points >= 5);
    TFET_EXPECTS(spec.points < std::numeric_limits<std::uint16_t>::max());
    axis_.resize(spec.points);
    for (std::size_t i = 0; i < spec.points; ++i)
        axis_[i] = t_grid_.x_at(i);
}

DeviceTable::Window DeviceTable::window_of(const NodeRect& r) const {
    if (r.x_lo == r.x_hi) // empty: no cell passes
        return {std::numeric_limits<std::uint16_t>::max(), 0,
                std::numeric_limits<std::uint16_t>::max(), 0};
    // Cell i reads nodes [i-1, i+2] clipped to the grid, so it is covered
    // when i-1 >= lo (any i if lo is the grid's first node) and
    // i+2 < hi (any i <= n-2 if hi is past the grid's last node).
    const std::size_t n = spec_.points;
    const auto lo = [](std::size_t l) {
        return static_cast<std::uint16_t>(l == 0 ? 0 : l + 1);
    };
    const auto hi = [n](std::size_t h) {
        return static_cast<std::uint16_t>(h == n ? n - 2 : h - 3);
    };
    return {lo(r.x_lo), hi(r.x_hi), lo(r.y_lo), hi(r.y_hi)};
}

DeviceTable::NodeRect DeviceTable::filled() const {
    const std::lock_guard<std::mutex> lock(grow_mutex_);
    return filled_;
}

void DeviceTable::grow(std::size_t ix, std::size_t iy) const {
    const std::lock_guard<std::mutex> lock(grow_mutex_);
    const std::size_t n = spec_.points;
    // The stencil [i-1, i+2], clipped to the grid, as half-open ranges.
    NodeRect want{ix == 0 ? 0 : ix - 1, std::min(ix + 3, n),
                  iy == 0 ? 0 : iy - 1, std::min(iy + 3, n)};
    const NodeRect old = filled_;
    const bool empty = old.x_lo == old.x_hi;
    if (!empty) {
        if (want.x_lo >= old.x_lo && want.x_hi <= old.x_hi &&
            want.y_lo >= old.y_lo && want.y_hi <= old.y_hi)
            return; // another thread filled it while this one waited
        want.x_lo = std::min(want.x_lo, old.x_lo);
        want.x_hi = std::max(want.x_hi, old.x_hi);
        want.y_lo = std::min(want.y_lo, old.y_lo);
        want.y_hi = std::max(want.y_hi, old.y_hi);
    }
    const auto down = [](std::size_t v) { return v / kBlock * kBlock; };
    const auto up = [n](std::size_t v) {
        return std::min((v + kBlock - 1) / kBlock * kBlock, n);
    };
    const NodeRect next{down(want.x_lo), up(want.x_hi), down(want.y_lo),
                        up(want.y_hi)};
    if (empty) {
        fill(next.x_lo, next.x_hi, next.y_lo, next.y_hi);
    } else {
        // next minus old: full-width strips below and above, then the
        // left and right strips beside the old rows.
        fill(next.x_lo, next.x_hi, next.y_lo, old.y_lo);
        fill(next.x_lo, next.x_hi, old.y_hi, next.y_hi);
        fill(next.x_lo, old.x_lo, old.y_lo, old.y_hi);
        fill(old.x_hi, next.x_hi, old.y_lo, old.y_hi);
    }
    filled_ = next;
    window_.store(window_of(next), std::memory_order_release);
}

void DeviceTable::fill(std::size_t x0, std::size_t x1, std::size_t y0,
                       std::size_t y1) const {
    if (x0 >= x1 || y0 >= y1)
        return;
    const std::size_t nx = x1 - x0;
    // Rows stream straight into the three grids: no scratch beyond the
    // source's own row buffers.
    source_->sample_grid(
        axis_.data() + x0, nx, axis_.data() + y0, y1 - y0,
        [&](std::size_t row, const spice::IvSample* iv,
            const spice::CvSample* cv) {
            const std::size_t iy = y0 + row;
            const OutputShape out = output_shape(axis_[iy]);
            for (std::size_t k = 0; k < nx; ++k) {
                double ratio = 0.0;
                if (std::fabs(out.f) > 1e-9) {
                    ratio = iv[k].ids / out.f;
                } else {
                    // At (and numerically near) vds = 0 the current and
                    // the output shape both vanish; the ratio limit is the
                    // channel conductance divided by F'(0) = 1/v_out.
                    ratio = iv[k].gds / out.df;
                }
                const double t = compress_ratio(ratio);
                if (!std::isfinite(t) || !std::isfinite(cv[k].cgs) ||
                    !std::isfinite(cv[k].cgd)) [[unlikely]]
                    reject_node(axis_[x0 + k], axis_[iy], t, cv[k]);
                t_grid_.at(x0 + k, iy) = t;
                cgs_grid_.at(x0 + k, iy) = cv[k].cgs;
                cgd_grid_.at(x0 + k, iy) = cv[k].cgd;
            }
        });
}

void DeviceTable::reject_node(double vgs, double vds, double t,
                              const spice::CvSample& cv) const {
    // A non-finite node would flow into every interpolant whose stencil
    // touches it, and the row and y-pass limiters treat NaN differently:
    // fail here, naming the node, rather than answer wrongly later.
    std::ostringstream os;
    os.precision(17);
    os << "device table " << name_ << ": non-finite node at (vgs, vds) = ("
       << vgs << ", " << vds << ") V: T = " << t << ", Cgs = " << cv.cgs
       << ", Cgd = " << cv.cgd;
    throw contract_violation(os.str());
}

DeviceTable::OutputShape DeviceTable::output_shape(double vds) const {
    const double a = std::fabs(vds) / spec_.v_out;
    const double e = std::exp(-std::min(a, 700.0));
    const double mag = 1.0 - e;
    return {vds >= 0.0 ? mag : -mag, e / spec_.v_out};
}

double DeviceTable::compress_ratio(double ratio) const {
    return std::asinh(ratio / spec_.i_ref);
}

spice::IvSample DeviceTable::iv(double vgs, double vds) const {
    const Grid2d::Cell c = t_grid_.locate(vgs, vds);
    require(c);
    const Grid2d::Sample t = t_grid_.eval(c);
    const OutputShape out = output_shape(vds);
    // Guard the exponentials against pathological extrapolation far
    // off-grid. sinh and cosh come from a single exp (one libm call per
    // sample instead of two — this pair is the per-transistor arithmetic
    // of the Newton hot loop).
    const double tc = std::clamp(t.f, -600.0, 600.0);
    const double ex = std::exp(tc);
    const double exi = 1.0 / ex;
    const double sh = 0.5 * (ex - exi);
    const double ch = 0.5 * (ex + exi);
    const double ir = spec_.i_ref;
    spice::IvSample s;
    s.ids = out.f * ir * sh;
    // Exact derivatives of the reconstruction: Newton sees the same
    // surface it is solving.
    s.gm = out.f * ir * ch * t.fx;
    s.gds = out.df * ir * sh + out.f * ir * ch * t.fy;
    return s;
}

void DeviceTable::iv_many(const double* vgs, const double* vds, std::size_t n,
                          spice::IvSample* out) const {
    // Scratch per thread: models are shared across worker threads, and the
    // batch path must stay allocation-free in the Newton hot loop.
    thread_local std::vector<Grid2d::Sample> t_scratch;
    if (t_scratch.size() < n)
        t_scratch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Grid2d::Cell c = t_grid_.locate(vgs[i], vds[i]);
        require(c);
        t_scratch[i] = t_grid_.eval(c);
    }
    const double ir = spec_.i_ref;
    for (std::size_t i = 0; i < n; ++i) {
        // Same arithmetic as iv(), in the same order — the differential
        // suites assert bitwise agreement between the paths.
        const Grid2d::Sample& t = t_scratch[i];
        const OutputShape out_shape = output_shape(vds[i]);
        const double tc = std::clamp(t.f, -600.0, 600.0);
        const double ex = std::exp(tc);
        const double exi = 1.0 / ex;
        const double sh = 0.5 * (ex - exi);
        const double ch = 0.5 * (ex + exi);
        out[i].ids = out_shape.f * ir * sh;
        out[i].gm = out_shape.f * ir * ch * t.fx;
        out[i].gds = out_shape.df * ir * sh + out_shape.f * ir * ch * t.fy;
    }
}

spice::CvSample DeviceTable::cv(double vgs, double vds) const {
    // The three grids share one geometry: one located cell serves both.
    const Grid2d::Cell c = cgs_grid_.locate(vgs, vds);
    require(c);
    // Capacitances need values only. Almost every call lands inside the
    // table on a cell with an on-grid stencil, where both grids share one
    // x/y basis and skip the gradient; the rest need eval()'s gradient for
    // the edge extrapolation and the extension beyond the table.
    double cgs = 0.0;
    double cgd = 0.0;
    if (cgs_grid_.has_value_path(c)) {
        const Grid2d::ValueBasis b = Grid2d::value_basis(c);
        cgs = cgs_grid_.value(c, b);
        cgd = cgd_grid_.value(c, b);
    } else {
        cgs = cgs_grid_.eval(c).f;
        cgd = cgd_grid_.eval(c).f;
    }
    // Interpolation undershoot must not produce a negative capacitance.
    return {std::max(cgs, 1e-18), std::max(cgd, 1e-18)};
}

} // namespace tfetsram::device
