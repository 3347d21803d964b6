#pragma once
// Process-variation modeling (Sec. 4.3). Following the paper, only the
// TFET gate-insulator thickness varies: channel-length variation has
// negligible TFET impact [13] and random dopant fluctuation is suppressed
// by the nearly intrinsic channel. Thickness is "controlled to within 5 %"
// [13], modeled as a truncated Gaussian (3 sigma = bound).

#include "device/models.hpp"
#include "util/rng.hpp"

namespace tfetsram::mc {

struct VariationSpec {
    device::TfetParams base;        ///< nominal TFET
    double tox_bound_frac = 0.05;   ///< hard +/- bound as fraction of nominal
    double tox_sigma_frac = 0.05 / 3.0; ///< Gaussian sigma as fraction
    bool tabulated = true;          ///< re-extract lookup tables per sample
    device::TableSpec table_spec;   ///< extraction grid when tabulated
};

/// Draws per-sample model sets with perturbed TFET oxide thickness. The
/// MOSFET baseline is left at nominal (the paper varies only the TFETs).
///
/// A draw is two steps: sample_tox() consumes the RNG (the only random
/// part), and draw_at_tox() makes that thickness's lookup tables (pure in
/// tox, never touches an RNG; they fill lazily as the sample's solves
/// visit each bias region). The Monte-Carlo engines take the cheap Tox
/// stream up front and make each sample's tables in the worker that
/// evaluates it (docs/YIELD.md), so peak memory scales with the worker
/// lanes, not the sample count.
class TfetVariationSampler {
public:
    explicit TfetVariationSampler(const VariationSpec& spec);

    /// One Monte-Carlo draw.
    struct Draw {
        device::ModelSet models;
        double tox; ///< sampled thickness [m]
    };

    /// One truncated-Gaussian thickness draw [m].
    [[nodiscard]] double sample_tox(Rng& rng) const;

    /// The model set at a given thickness: draw_at_tox(sample_tox(rng)).
    [[nodiscard]] Draw sample(Rng& rng) const;

    /// Deterministic thickness at a standardized deviation u: tox =
    /// nominal * (1 + tox_sigma_frac * u), deliberately NOT truncated at
    /// the +/- bound — the importance-sampling yield estimator owns the
    /// sampling density and must reach tails the truncated Monte-Carlo
    /// draw assigns zero mass. tox is floored at 5 % of nominal so a
    /// pathological |u| cannot build a non-physical device.
    [[nodiscard]] double tox_at(double u) const;

    /// draw_at_tox(tox_at(u)).
    [[nodiscard]] Draw sample_at(double u) const;

    /// Build the per-sample model set at thickness `tox` (the TFET pair
    /// re-extracted when the spec is tabulated).
    [[nodiscard]] Draw draw_at_tox(double tox) const;

    [[nodiscard]] const VariationSpec& spec() const { return spec_; }

private:
    VariationSpec spec_;
    device::ModelSet nominal_mosfets_;
};

} // namespace tfetsram::mc
