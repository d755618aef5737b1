/**
 * @file
 * Tests for the PDM schedule: Vernier level structure, periodicity in
 * the trigger index, and the degenerate fixed-reference mode.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "itdr/pdm.hh"

namespace divot {
namespace {

constexpr double kFs = 156.25e6;

TEST(PdmSchedule, DisabledGivesFixedReference)
{
    PdmConfig cfg;
    cfg.enabled = false;
    cfg.fixedReference = 1.5e-3;
    PdmSchedule pdm(cfg, kFs);
    EXPECT_EQ(pdm.levelCount(), 1u);
    EXPECT_DOUBLE_EQ(pdm.referenceAt(0.0), 1.5e-3);
    EXPECT_DOUBLE_EQ(pdm.referenceAt(1.23e-6), 1.5e-3);
    EXPECT_DOUBLE_EQ(pdm.modulationFrequency(), 0.0);
    const auto levels = pdm.levelsAt(0.5e-9);
    ASSERT_EQ(levels.size(), 1u);
    EXPECT_DOUBLE_EQ(levels[0], 1.5e-3);
}

TEST(PdmSchedule, ModulationFrequencyFromVernierRatio)
{
    PdmConfig cfg;  // defaults: p=17, q=18
    PdmSchedule pdm(cfg, kFs);
    EXPECT_NEAR(pdm.modulationFrequency(),
                kFs * static_cast<double>(cfg.q) /
                    static_cast<double>(cfg.p), 1.0);
    EXPECT_EQ(pdm.levelCount(), cfg.p);
}

TEST(PdmSchedule, ReferencePeriodicInPTriggers)
{
    PdmConfig cfg;
    PdmSchedule pdm(cfg, kFs);
    const double t_s = 1.0 / kFs;
    const double t0 = 0.8e-9;
    for (unsigned r = 0; r < 5; ++r) {
        const double a = pdm.referenceAt(r * t_s + t0);
        const double b =
            pdm.referenceAt((r + cfg.p) * t_s + t0);
        EXPECT_NEAR(a, b, 1e-12);
    }
}

TEST(PdmSchedule, LevelsMatchReferencesAtConsecutiveTriggers)
{
    PdmConfig cfg;
    PdmSchedule pdm(cfg, kFs);
    const double t_s = 1.0 / kFs;
    const double t0 = 1.7e-9;
    const auto levels = pdm.levelsAt(t0);
    ASSERT_EQ(levels.size(), cfg.p);
    for (unsigned r = 0; r < cfg.p; ++r)
        EXPECT_NEAR(levels[r], pdm.referenceAt(r * t_s + t0), 1e-12);
}

TEST(PdmSchedule, LevelsDistinctAtGenericOffset)
{
    PdmConfig cfg;
    PdmSchedule pdm(cfg, kFs);
    const auto levels = pdm.levelsAt(0.9e-9);
    std::set<long> distinct;
    for (double v : levels)
        distinct.insert(std::lround(v * 1e12));
    EXPECT_EQ(distinct.size(), cfg.p);
}

TEST(PdmSchedule, LevelsBoundedByAmplitude)
{
    PdmConfig cfg;
    PdmSchedule pdm(cfg, kFs);
    for (double t0 = 0.0; t0 < 4e-9; t0 += 0.33e-9) {
        for (double v : pdm.levelsAt(t0)) {
            EXPECT_LE(std::fabs(v - cfg.center),
                      cfg.amplitude + 1e-12);
        }
    }
}

TEST(PdmSchedule, NonCoprimeConfigRejected)
{
    PdmConfig bad;
    bad.p = 4;
    bad.q = 6;
    EXPECT_DEATH(PdmSchedule(bad, kFs), "coprime");
}

TEST(PdmSchedule, BadClockRejected)
{
    // The clock is checked before the triangle frequency is derived
    // from it, so each bad clock is named as the clock.
    for (const double bad : {0.0, std::nan(""), HUGE_VAL, -HUGE_VAL})
        EXPECT_DEATH(PdmSchedule(PdmConfig{}, bad), "clock frequency");
}

TEST(PdmSchedule, NonFiniteFixedReferenceRejected)
{
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        for (const bool enabled : {true, false}) {
            PdmConfig cfg;
            cfg.enabled = enabled;
            cfg.fixedReference = bad;
            EXPECT_DEATH(PdmSchedule(cfg, kFs), "fixedReference");
        }
    }
}

} // namespace
} // namespace divot
