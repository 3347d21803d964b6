// Differential test of the WLcrit search on real cells: for every cell-zoo
// design, with no write assist and with each of the four, at the nominal
// corner, and for sixteen +/-5 % Tox samples of the Fig. 9 cell (inward
// pTFET access, beta = 2) with each write assist,
// sram::critical_wordline_pulse must equal the plain bisection
// (tests/wlcrit_reference.hpp) bit for bit. The search assumes the write
// outcome is monotone in pulse width; this is where that assumption is
// checked against the simulator.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "device/model_zoo.hpp"
#include "device/models.hpp"
#include "mc/variation.hpp"
#include "sram/cell.hpp"
#include "sram/cell_zoo.hpp"
#include "sram/metrics.hpp"
#include "util/rng.hpp"
#include "wlcrit_reference.hpp"

namespace tfetsram::sram {
namespace {

std::vector<Assist> none_and_write_assists() {
    std::vector<Assist> a = {Assist::kNone};
    for (Assist wa : kWriteAssists)
        a.push_back(wa);
    return a;
}

void expect_same_wlcrit(const CellConfig& config, Assist assist) {
    const MetricOptions opts;
    SramCell searched = build_cell(config);
    SramCell reference = build_cell(config);
    const double got = critical_wordline_pulse(searched, assist, opts);
    const double want =
        testing::reference_wordline_pulse(reference, assist, opts);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "search " << got << " vs bisection " << want;
}

TEST(WlcritDiff, ZooDesignsWithEveryWriteAssist) {
    for (const ZooEntry& entry : cell_zoo()) {
        const device::ModelSet models = device::make_model_set_at(
            device::find_model_set(entry.model_set), 300.0);
        const DesignSpec design = make_zoo_design(entry, 0.8, models);
        for (Assist a : none_and_write_assists()) {
            SCOPED_TRACE(entry.id + " " + to_string(a));
            expect_same_wlcrit(design.config, a);
        }
    }
}

TEST(WlcritDiff, ToxSamplesOfTheFig9Cell) {
    CellConfig config;
    config.kind = CellKind::kTfet6T;
    config.access = AccessDevice::kInwardP;
    config.beta = 2.0;
    const mc::TfetVariationSampler sampler{mc::VariationSpec{}};
    Rng rng(1);
    for (int i = 0; i < 16; ++i) {
        const mc::TfetVariationSampler::Draw draw = sampler.sample(rng);
        config.models = draw.models;
        for (Assist a : kWriteAssists) {
            SCOPED_TRACE("sample " + std::to_string(i) + " tox=" +
                         std::to_string(draw.tox) + " " + to_string(a));
            expect_same_wlcrit(config, a);
        }
    }
}

} // namespace
} // namespace tfetsram::sram
