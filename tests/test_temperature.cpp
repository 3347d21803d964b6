// Temperature-dependence tests: the TFET's swing and leakage barely move
// with temperature while the MOSFET's kT/q physics degrades both — the
// second pillar (after steep swing) of the TFET low-power story.

#include <gtest/gtest.h>

#include <cmath>

#include "device/models.hpp"
#include "device/table_builder.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"

namespace tfetsram::device {
namespace {

double mosfet_swing(double temperature) {
    MosfetParams p;
    p.temperature = temperature;
    const MosfetModel m(p);
    const double i1 = m.iv(0.10, 0.8).ids;
    const double i2 = m.iv(0.20, 0.8).ids;
    return 0.1 / std::log10(i2 / i1);
}

double tfet_swing(double temperature) {
    TfetParams p;
    p.temperature = temperature;
    const TfetModel m(p);
    const double i1 = m.iv(0.05, 0.8).ids;
    const double i2 = m.iv(0.15, 0.8).ids;
    return 0.1 / std::log10(i2 / i1);
}

TEST(Temperature, MosfetSwingScalesWithKt) {
    const double s300 = mosfet_swing(300.0);
    const double s400 = mosfet_swing(400.0);
    EXPECT_NEAR(s400 / s300, 400.0 / 300.0, 0.05);
}

TEST(Temperature, TfetSwingNearlyTemperatureIndependent) {
    const double s300 = tfet_swing(300.0);
    const double s400 = tfet_swing(400.0);
    EXPECT_NEAR(s400 / s300, 1.0, 0.05);
}

TEST(Temperature, MosfetLeakageExplodesTfetBarelyMoves) {
    MosfetParams mp;
    const double i_mos_300 = MosfetModel(mp).iv(0.0, 0.8).ids;
    mp.temperature = 400.0;
    const double i_mos_400 = MosfetModel(mp).iv(0.0, 0.8).ids;
    // kT/q swing + VT shift: orders of magnitude at 100 K delta.
    EXPECT_GT(i_mos_400 / i_mos_300, 50.0);

    TfetParams tp;
    const double i_tfet_300 = TfetModel(tp).iv(0.0, 0.8).ids;
    tp.temperature = 400.0;
    const double i_tfet_400 = TfetModel(tp).iv(0.0, 0.8).ids;
    EXPECT_LT(i_tfet_400 / i_tfet_300, 2.0);
}

TEST(Temperature, PinDiodeThermallyActivated) {
    TfetParams tp;
    const double i_300 = -TfetModel(tp).iv(0.0, -0.6).ids;
    tp.temperature = 350.0;
    const double i_350 = -TfetModel(tp).iv(0.0, -0.6).ids;
    EXPECT_GT(i_350 / i_300, 50.0) << "junction leakage must be activated";
}

TEST(Temperature, OnCurrentsShiftGently) {
    TfetParams tp;
    tp.temperature = 400.0;
    const double ion = TfetModel(tp).iv(1.0, 1.0).ids;
    EXPECT_NEAR(ion, 1.2e-4, 0.15e-4); // +20 % from bandgap narrowing

    // MOSFET: below the zero-temperature-coefficient gate voltage the VT
    // shift wins (current rises with T); at high overdrive mobility
    // degradation wins (current falls) — both classic behaviours.
    MosfetParams mp;
    mp.temperature = 400.0;
    const MosfetModel hot(mp);
    const MosfetModel cold{MosfetParams{}};
    EXPECT_GT(hot.iv(0.7, 0.8).ids, cold.iv(0.7, 0.8).ids)
        << "below ZTC: VT shift dominates";
    EXPECT_LT(hot.iv(1.2, 0.8).ids, cold.iv(1.2, 0.8).ids)
        << "above ZTC: mobility degradation dominates";
}

TEST(Temperature, CellStaticPowerContrast) {
    // The system-level consequence: at 400 K the CMOS cell's leakage grows
    // by orders of magnitude while the TFET cell barely moves, widening
    // the paper's 6-order gap.
    auto cell_power = [](bool tfet, double temperature) {
        TfetParams tp;
        tp.temperature = temperature;
        MosfetParams nmos;
        nmos.temperature = temperature;
        MosfetParams pmos = pmos_defaults();
        pmos.temperature = temperature;
        ModelSet set;
        set.ntfet = build_table(make_ntfet(tp));
        set.ptfet = build_table(make_ptfet(tp));
        set.nmos = make_nmos(nmos);
        set.pmos = make_pmos(pmos);
        sram::CellConfig cfg = tfet
                                   ? sram::proposed_design(0.8, set).config
                                   : sram::cmos_design(0.8, set).config;
        sram::SramCell cell = sram::build_cell(cfg);
        return sram::worst_hold_static_power(cell, {});
    };
    const double p_tfet_300 = cell_power(true, 300.0);
    const double p_tfet_400 = cell_power(true, 400.0);
    const double p_cmos_300 = cell_power(false, 300.0);
    const double p_cmos_400 = cell_power(false, 400.0);
    EXPECT_LT(p_tfet_400 / p_tfet_300, 3.0);
    EXPECT_GT(p_cmos_400 / p_cmos_300, 30.0);
}

} // namespace
} // namespace tfetsram::device
