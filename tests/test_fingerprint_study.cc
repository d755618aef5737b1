/**
 * @file
 * Tests for the genuine/impostor campaign driver behind Figs. 7-8.
 * These run small campaigns; the benches run the paper-scale ones.
 */

#include <gtest/gtest.h>

#include <limits>

#include "fingerprint/study.hh"
#include "util/stats.hh"

namespace divot {
namespace {

StudyConfig
smallConfig()
{
    StudyConfig cfg;
    cfg.lines = 3;
    cfg.enrollReps = 6;
    cfg.genuinePerLine = 10;
    cfg.impostorPerPair = 3;
    return cfg;
}

TEST(Study, RoomTemperatureSeparatesCleanly)
{
    GenuineImpostorStudy study(smallConfig(), Rng(1));
    const StudyResult res = study.run();
    ASSERT_EQ(res.genuine.size(), 30u);
    ASSERT_EQ(res.impostor.size(), 18u);
    RunningStats g, i;
    g.addAll(res.genuine);
    i.addAll(res.impostor);
    EXPECT_GT(g.mean(), 0.5);
    EXPECT_LT(i.mean(), 0.35);
    EXPECT_GT(g.min(), i.max());
    EXPECT_NEAR(res.roc.eer, 0.0, 1e-9);
    EXPECT_GT(res.decidability, 3.0);
    EXPECT_GT(res.totalBusCycles, 0u);
}

TEST(Study, TemperatureSwingDegradesGenuine)
{
    StudyConfig room = smallConfig();
    StudyConfig oven = smallConfig();
    oven.environment.temperatureC = 23.0;
    oven.environment.temperatureSwingHiC = 75.0;
    const auto res_room = GenuineImpostorStudy(room, Rng(2)).run();
    const auto res_oven = GenuineImpostorStudy(oven, Rng(2)).run();
    RunningStats g_room, g_oven, i_room, i_oven;
    g_room.addAll(res_room.genuine);
    g_oven.addAll(res_oven.genuine);
    i_room.addAll(res_room.impostor);
    i_oven.addAll(res_oven.impostor);
    // Genuine distribution moves left (Fig. 8)...
    EXPECT_LT(g_oven.mean(), g_room.mean());
    // ...while the impostor distribution barely moves.
    EXPECT_NEAR(i_oven.mean(), i_room.mean(), 0.1);
}

TEST(Study, VibrationDegradesDecidability)
{
    StudyConfig calm = smallConfig();
    StudyConfig shaky = smallConfig();
    shaky.environment.vibrationStrain = 1.5e-2;
    const auto res_calm = GenuineImpostorStudy(calm, Rng(3)).run();
    const auto res_shaky = GenuineImpostorStudy(shaky, Rng(3)).run();
    EXPECT_LT(res_shaky.decidability, res_calm.decidability);
}

TEST(Study, MultiWireFusionSharpensSeparation)
{
    StudyConfig one = smallConfig();
    StudyConfig three = smallConfig();
    three.wires = 3;
    // Stress the environment so single-wire separation is imperfect.
    one.environment.vibrationStrain = 5e-3;
    three.environment.vibrationStrain = 5e-3;
    const auto res1 = GenuineImpostorStudy(one, Rng(4)).run();
    const auto res3 = GenuineImpostorStudy(three, Rng(4)).run();
    RunningStats i1, i3;
    i1.addAll(res1.impostor);
    i3.addAll(res3.impostor);
    // Geometric-mean fusion drives impostor scores down.
    EXPECT_LT(i3.mean(), i1.mean());
}

TEST(Study, LinesFabricatedPerWire)
{
    StudyConfig cfg = smallConfig();
    cfg.wires = 2;
    GenuineImpostorStudy study(cfg, Rng(5));
    EXPECT_EQ(study.lines().size(), cfg.lines * cfg.wires);
}

TEST(Study, ConfigValidation)
{
    StudyConfig bad = smallConfig();
    bad.lines = 1;
    EXPECT_DEATH(GenuineImpostorStudy(bad, Rng(6)), "at least 2");
    StudyConfig bad2 = smallConfig();
    bad2.wires = 0;
    EXPECT_DEATH(GenuineImpostorStudy(bad2, Rng(7)), "wire");

    // Each bad value dies with a message naming its field, before any
    // line is fabricated or any pool worker runs.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double v : {nan, inf, -inf, 0.0}) {
        StudyConfig length = smallConfig();
        length.lineLength = v;
        EXPECT_DEATH(GenuineImpostorStudy(length, Rng(8)), "lineLength")
            << v;
        StudyConfig segment = smallConfig();
        segment.segmentLength = v;
        EXPECT_DEATH(GenuineImpostorStudy(segment, Rng(8)),
                     "segmentLength")
            << v;
    }
    for (const double v : {nan, inf, -inf, -0.1}) {
        StudyConfig load = smallConfig();
        load.loadImpedanceSigma = v;
        EXPECT_DEATH(GenuineImpostorStudy(load, Rng(8)),
                     "loadImpedanceSigma")
            << v;
    }
    StudyConfig enroll = smallConfig();
    enroll.enrollReps = 0;
    EXPECT_DEATH(GenuineImpostorStudy(enroll, Rng(8)), "enrollReps");
    StudyConfig genuine = smallConfig();
    genuine.genuinePerLine = 0;
    EXPECT_DEATH(GenuineImpostorStudy(genuine, Rng(8)), "genuinePerLine");
    StudyConfig impostor = smallConfig();
    impostor.impostorPerPair = 0;
    EXPECT_DEATH(GenuineImpostorStudy(impostor, Rng(8)),
                 "impostorPerPair");
}

} // namespace
} // namespace divot
