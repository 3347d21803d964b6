#include "device/models.hpp"

#include "device/table_builder.hpp"

namespace tfetsram::device {

MirrorModel::MirrorModel(spice::TransistorModelPtr inner, std::string name)
    : inner_(std::move(inner)), name_(std::move(name)) {
    TFET_EXPECTS(inner_ != nullptr);
}

spice::IvSample MirrorModel::iv(double vgs, double vds) const {
    const spice::IvSample m = inner_->iv(-vgs, -vds);
    // I_p(vgs,vds) = -I_n(-vgs,-vds):
    //   dI_p/dvgs = -dI_n/dvgs_n * (-1) = +gm_n, and likewise for gds.
    return {-m.ids, m.gm, m.gds};
}

spice::CvSample MirrorModel::cv(double vgs, double vds) const {
    return inner_->cv(-vgs, -vds);
}

void MirrorModel::iv_many(const double* vgs, const double* vds, std::size_t n,
                          spice::IvSample* out) const {
    thread_local std::vector<double> neg_vgs;
    thread_local std::vector<double> neg_vds;
    if (neg_vgs.size() < n) {
        neg_vgs.resize(n);
        neg_vds.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        neg_vgs[i] = -vgs[i];
        neg_vds[i] = -vds[i];
    }
    inner_->iv_many(neg_vgs.data(), neg_vds.data(), n, out);
    // Same transform as the scalar iv(): current negates, derivatives keep
    // their sign (two chain-rule negations cancel).
    for (std::size_t i = 0; i < n; ++i)
        out[i].ids = -out[i].ids;
}

void MirrorModel::sample_grid(const double* xs, std::size_t nx,
                              const double* ys, std::size_t ny,
                              const spice::GridRowSink& row) const {
    std::vector<double> neg_xs(nx);
    std::vector<double> neg_ys(ny);
    for (std::size_t ix = 0; ix < nx; ++ix)
        neg_xs[ix] = -xs[ix];
    for (std::size_t iy = 0; iy < ny; ++iy)
        neg_ys[iy] = -ys[iy];
    std::vector<spice::IvSample> flipped(nx);
    inner_->sample_grid(
        neg_xs.data(), nx, neg_ys.data(), ny,
        [&](std::size_t iy, const spice::IvSample* iv,
            const spice::CvSample* cv) {
            // The scalar iv() transform; C-V passes through unchanged.
            for (std::size_t ix = 0; ix < nx; ++ix)
                flipped[ix] = {-iv[ix].ids, iv[ix].gm, iv[ix].gds};
            row(iy, flipped.data(), cv);
        });
}

spice::TransistorModelPtr make_ntfet(const TfetParams& params) {
    return std::make_shared<TfetModel>(params);
}

spice::TransistorModelPtr make_ptfet(const TfetParams& params) {
    return std::make_shared<MirrorModel>(make_ntfet(params), "pTFET");
}

spice::TransistorModelPtr make_nmos(const MosfetParams& params) {
    return std::make_shared<MosfetModel>(params);
}

MosfetParams pmos_defaults() {
    MosfetParams p;
    p.i_spec = 1.0e-5; // hole mobility deficit vs. the 2e-5 nMOS default
    return p;
}

spice::TransistorModelPtr make_pmos(const MosfetParams& params) {
    return std::make_shared<MirrorModel>(
        std::make_shared<MosfetModel>(params), "pMOS");
}

ModelSet make_model_set(const TfetParams& tfet_params, bool tabulated,
                        const TableSpec& spec) {
    ModelSet set;
    set.ntfet = make_ntfet(tfet_params);
    set.ptfet = make_ptfet(tfet_params);
    if (tabulated) {
        set.ntfet = build_table(set.ntfet, spec);
        set.ptfet = build_table(set.ptfet, spec);
    }
    set.nmos = make_nmos();
    set.pmos = make_pmos();
    return set;
}

} // namespace tfetsram::device
