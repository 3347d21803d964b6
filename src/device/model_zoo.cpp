#include "device/model_zoo.hpp"

#include <stdexcept>

#include "device/table_builder.hpp"

namespace tfetsram::device {

namespace {

ModelSetSpec make_std_spec() {
    ModelSetSpec s;
    s.name = "tfet-std";
    s.version = kModelSetVersion;
    s.tfet = TfetParams{}; // the paper's Si calibration
    return s;
}

ModelSetSpec make_cntfet_spec() {
    ModelSetSpec s;
    s.name = "cntfet";
    s.version = "cntfet-2026.1";
    // CNTFET flavor: ballistic transport buys ~4x the drive at the same
    // footprint, the small-bandgap tube leaks two orders worse, and the
    // wrap-gate geometry roughly halves the gate capacitance. The band-to-
    // band kernel shape (swing, saturation) is kept from the Si anchors.
    s.tfet.i_on = 4e-4;
    s.tfet.i_off = 1e-15;
    s.tfet.c_gate = 0.08e-15;
    return s;
}

} // namespace

const std::vector<ModelSetSpec>& model_zoo() {
    static const std::vector<ModelSetSpec> zoo = {make_std_spec(),
                                                  make_cntfet_spec()};
    return zoo;
}

const ModelSetSpec& find_model_set(const std::string& name) {
    for (const ModelSetSpec& s : model_zoo())
        if (s.name == name)
            return s;
    throw std::invalid_argument("find_model_set: unknown model set '" + name +
                                "'");
}

ModelSet make_model_set_at(const ModelSetSpec& spec, double temperature,
                           double tox_scale, bool tabulated) {
    return make_model_set_at(spec.tfet, temperature, tox_scale, tabulated);
}

ModelSet make_model_set_at(const TfetParams& tfet, double temperature,
                           double tox_scale, bool tabulated) {
    TFET_EXPECTS(tox_scale > 0.0);
    TfetParams tp = tfet;
    tp.temperature = temperature;
    tp.tox = tfet.tox * tox_scale;

    MosfetParams nmos;
    nmos.temperature = temperature;
    MosfetParams pmos = pmos_defaults();
    pmos.temperature = temperature;

    ModelSet set;
    set.ntfet = make_ntfet(tp);
    set.ptfet = make_ptfet(tp);
    if (tabulated) {
        set.ntfet = build_table(set.ntfet);
        set.ptfet = build_table(set.ptfet);
    }
    set.nmos = make_nmos(nmos);
    set.pmos = make_pmos(pmos);
    return set;
}

} // namespace tfetsram::device
