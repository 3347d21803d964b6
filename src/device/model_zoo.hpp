#pragma once
// Named device-model families ("model sets") the cell zoo draws from. A
// ModelSetSpec bundles the TFET calibration of one technology flavor with
// a cache version tag; make_model_set_at instantiates it at a corner
// (temperature, oxide-thickness scale). The registry ships the paper's
// standard Si TFET calibration plus a CNTFET-flavored variant with the
// higher drive / higher leakage / lower gate capacitance characteristic of
// carbon-nanotube devices.

#include <string>
#include <vector>

#include "device/models.hpp"

namespace tfetsram::device {

/// One named technology flavor.
struct ModelSetSpec {
    std::string name;    ///< registry key, e.g. "tfet-std"
    std::string version; ///< cache tag; bump when the calibration changes
    TfetParams tfet;     ///< calibration the TFET pair is built from
};

/// Every registered model set, stable order (static storage).
const std::vector<ModelSetSpec>& model_zoo();

/// Look up a model set by name; throws std::invalid_argument when unknown.
const ModelSetSpec& find_model_set(const std::string& name);

/// Instantiate a model-set spec at a corner. `tox_scale` multiplies the
/// gate-oxide thickness (the Tox corner axis: > 1 is a thick/slow oxide);
/// the MOSFET baseline pair tracks the temperature only. TFETs are
/// tabulated when `tabulated` is true (the standard flow).
ModelSet make_model_set_at(const ModelSetSpec& spec, double temperature,
                           double tox_scale = 1.0, bool tabulated = true);

/// The same corner instantiation from a bare TFET calibration — the one
/// builder behind every corner model set (signoff, temperature ablation,
/// the zoo).
ModelSet make_model_set_at(const TfetParams& tfet, double temperature,
                           double tox_scale = 1.0, bool tabulated = true);

} // namespace tfetsram::device
