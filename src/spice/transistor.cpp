#include "spice/transistor.hpp"

#include <algorithm>

#include "spice/eval_batch.hpp"
#include "spice/solution.hpp"

namespace tfetsram::spice {

namespace {
// Floor on the channel output conductance stamped into the Jacobian. Keeps
// the matrix well-conditioned when a device is deeply off without visibly
// perturbing currents (1 fS across 1 V is 1e-15 A).
constexpr double kGdsFloor = 1e-15;
} // namespace

Transistor::Transistor(std::string label, TransistorModelPtr model,
                       NodeId drain, NodeId gate, NodeId source,
                       double width_um)
    : Device(std::move(label)), model_(std::move(model)), d_(drain), g_(gate),
      s_(source), width_um_(width_um) {
    TFET_EXPECTS(model_ != nullptr);
    TFET_EXPECTS(width_um > 0.0);
    TFET_EXPECTS(drain != source);
}

void Transistor::stamp(Stamper& st, const AnalysisState& as,
                       const la::Vector& x) {
    if (st.pattern_only()) {
        // Symbolic pass: only the touched positions matter, so skip the
        // model evaluation (table lookups dominate pattern building on
        // large arrays) and register the channel + capacitor stamps with
        // placeholder values.
        st.add_transconductance(d_, s_, g_, s_, 0.0);
        st.add_conductance(d_, s_, 0.0);
        st.add_current(d_, s_, 0.0);
        if (as.mode == AnalysisMode::kTransient) {
            st.add_conductance(g_, s_, 0.0);
            st.add_current(g_, s_, 0.0);
            st.add_conductance(g_, d_, 0.0);
            st.add_current(g_, d_, 0.0);
        }
        return;
    }

    const double vgs = branch_voltage(x, g_, s_);
    const double vds = branch_voltage(x, d_, s_);

    // Assembly precomputes every transistor's sample in one batched sweep
    // (DeviceEvalBatch evaluates at the same x this stamp sees, with
    // bitwise-identical arithmetic). The scalar fallback covers pattern
    // discovery and any stamping outside the assemble() entry points.
    const IvSample iv = (batch_ != nullptr && batch_->ready())
                            ? batch_->sample(batch_slot_)
                            : model_->iv(vgs, vds);
    const double ids = iv.ids * width_um_;
    const double gm = iv.gm * width_um_;
    const double gds = std::max(iv.gds * width_um_, kGdsFloor);

    // Linearized channel: Ids ~= ids + gm*(dvgs) + gds*(dvds), flowing D->S.
    st.add_transconductance(d_, s_, g_, s_, gm);
    st.add_conductance(d_, s_, gds);
    const double ieq = ids - gm * vgs - gds * vds;
    st.add_current(d_, s_, ieq);

    if (as.mode == AnalysisMode::kTransient) {
        const CvSample cv = model_->cv(vgs, vds);
        stamp_cap(st, as, g_, s_, cv.cgs * width_um_, cgs_state_);
        stamp_cap(st, as, g_, d_, cv.cgd * width_um_, cgd_state_);
    }
}

void Transistor::stamp_cap(Stamper& st, const AnalysisState& as, NodeId a,
                           NodeId b, double farads,
                           const CapState& cs) const {
    TFET_EXPECTS(as.dt > 0.0);
    const bool use_trap = as.integrator == Integrator::kTrapezoidal &&
                          !as.first_transient_step;
    double geq = 0.0;
    double ieq = 0.0;
    if (use_trap) {
        geq = 2.0 * farads / as.dt;
        ieq = -(geq * cs.v_prev + cs.i_prev);
    } else {
        geq = farads / as.dt;
        ieq = -geq * cs.v_prev;
    }
    st.add_conductance(a, b, geq);
    st.add_current(a, b, ieq);
}

void Transistor::accept_cap(const AnalysisState& as, double v_new,
                            double farads, CapState& cs) {
    const bool use_trap = as.integrator == Integrator::kTrapezoidal &&
                          !as.first_transient_step;
    if (use_trap) {
        const double geq = 2.0 * farads / as.dt;
        cs.i_prev = geq * (v_new - cs.v_prev) - cs.i_prev;
    } else {
        cs.i_prev = farads / as.dt * (v_new - cs.v_prev);
    }
    cs.v_prev = v_new;
}

void Transistor::begin_transient(const la::Vector& x0) {
    cgs_state_ = {branch_voltage(x0, g_, s_), 0.0};
    cgd_state_ = {branch_voltage(x0, g_, d_), 0.0};
}

void Transistor::accept_step(const AnalysisState& as, const la::Vector& x) {
    const double vgs = branch_voltage(x, g_, s_);
    const double vds = branch_voltage(x, d_, s_);
    const CvSample cv = model_->cv(vgs, vds);
    accept_cap(as, vgs, cv.cgs * width_um_, cgs_state_);
    accept_cap(as, branch_voltage(x, g_, d_), cv.cgd * width_um_, cgd_state_);
}

double Transistor::drain_current(const la::Vector& x) const {
    const double vgs = branch_voltage(x, g_, s_);
    const double vds = branch_voltage(x, d_, s_);
    return model_->iv(vgs, vds).ids * width_um_;
}

double Transistor::power(const la::Vector& x) const {
    return drain_current(x) * branch_voltage(x, d_, s_);
}

} // namespace tfetsram::spice
