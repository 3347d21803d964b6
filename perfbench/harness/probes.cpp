// Unit-cost probes: each times one public layer function on a circuit or
// model table the workload itself uses, so per-layer shares can be
// computed as exact counts x measured unit cost.

#include <cmath>

#include "harness.hpp"
#include "la/lu.hpp"
#include "la/sparse_lu.hpp"
#include "spice/mna.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace perfbench {

UnitCosts probe_circuit(spice::Circuit& circuit,
                        const spice::SimContext& ctx) {
    const la::Vector x = circuit.workspace().x_new;
    TFET_EXPECTS(x.size() == circuit.num_unknowns());
    const spice::ScopedContext bind(ctx);
    // Nearly every assembly of these workloads is a transient step, whose
    // stamps add the device capacitances (a C-V evaluation per device).
    spice::AnalysisState as;
    as.mode = spice::AnalysisMode::kTransient;
    as.dt = 1e-12;
    const double gmin = ctx.options().gmin;
    la::Vector rhs;
    UnitCosts costs;
    if (ctx.select_kind(circuit.num_unknowns()) == spice::SolverKind::kDense) {
        la::Matrix jac;
        costs.assemble_us =
            1e6 * median_call_s(
                      [&] { spice::assemble(circuit, as, x, gmin, jac, rhs); });
        la::LuFactorization lu;
        costs.factor_us = 1e6 * median_call_s([&] {
                              TFET_ASSERT(lu.factor_in_place(jac));
                          });
    } else {
        // The workspace's own matrix: assembly replays its memoized stamp
        // plan only for that target, as the Newton loop does.
        la::SparseMatrix& jac = circuit.workspace().sjac;
        TFET_EXPECTS(jac.finalized());
        costs.assemble_us =
            1e6 * median_call_s(
                      [&] { spice::assemble(circuit, as, x, gmin, jac, rhs); });
        // Newton refactors one analyzed pattern every iterate, so the
        // steady-state refactor is the unit; the first one pays the pivot
        // search and is excluded.
        la::SparseLu lu;
        lu.analyze(jac);
        TFET_ASSERT(lu.refactor(jac));
        costs.factor_us =
            1e6 * median_call_s([&] { TFET_ASSERT(lu.refactor(jac)); });
    }
    return costs;
}

double probe_iv_many_ns(const spice::TransistorModel& model,
                        std::uint64_t seed, double vmax) {
    constexpr std::size_t kBiases = 4096;
    Rng rng(seed);
    std::vector<double> vgs(kBiases);
    std::vector<double> vds(kBiases);
    for (std::size_t i = 0; i < kBiases; ++i) {
        vgs[i] = rng.uniform(-vmax, vmax);
        vds[i] = rng.uniform(-vmax, vmax);
    }
    std::vector<spice::IvSample> out(kBiases);
    const double per_call = median_call_s([&] {
        model.iv_many(vgs.data(), vds.data(), kBiases, out.data());
    });
    return 1e9 * per_call / static_cast<double>(kBiases);
}

} // namespace perfbench
