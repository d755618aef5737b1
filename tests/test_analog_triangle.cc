/**
 * @file
 * Tests for the PDM triangle source and the Vernier reference-level
 * schedule (Fig. 3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>

#include "analog/triangle.hh"
#include "util/rng.hh"

namespace divot {
namespace {

TEST(TriangleWave, PeriodicAndBounded)
{
    TriangleWave tri(2e-3, 1e6, 0.0);
    const double period = 1e-6;
    for (double t = 0.0; t < 3e-6; t += 7e-9) {
        const double v = tri.valueAt(t);
        EXPECT_LE(std::fabs(v), 2e-3 + 1e-12);
        EXPECT_NEAR(tri.valueAt(t + period), v, 1e-9);
    }
}

TEST(TriangleWave, IdealShapeKeyPoints)
{
    TriangleWave tri(1.0, 1.0, 0.0);
    EXPECT_NEAR(tri.valueAt(0.0), -1.0, 1e-12);   // trough at phase 0
    EXPECT_NEAR(tri.valueAt(0.25), 0.0, 1e-12);   // midpoint rising
    EXPECT_NEAR(tri.valueAt(0.5), 1.0, 1e-12);    // crest
    EXPECT_NEAR(tri.valueAt(0.75), 0.0, 1e-12);   // midpoint falling
}

TEST(TriangleWave, CenterOffset)
{
    TriangleWave tri(1e-3, 1e6, 5e-3);
    double lo = 1e9, hi = -1e9;
    for (double t = 0.0; t < 1e-6; t += 1e-9) {
        lo = std::min(lo, tri.valueAt(t));
        hi = std::max(hi, tri.valueAt(t));
    }
    EXPECT_NEAR(lo, 4e-3, 1e-5);
    EXPECT_NEAR(hi, 6e-3, 1e-5);
}

TEST(TriangleWave, RcShapingKeepsSpanAndMonotonicity)
{
    TriangleWave tri(1.0, 1.0, 0.0, 0.3);
    // Quasi-triangle still spans [-1, 1]...
    EXPECT_NEAR(tri.valueAt(0.0), -1.0, 1e-9);
    EXPECT_NEAR(tri.valueAt(0.5), 1.0, 1e-9);
    // ...and stays monotone on each half period.
    double prev = tri.valueAt(0.0);
    for (double u = 0.01; u <= 0.5; u += 0.01) {
        const double v = tri.valueAt(u);
        EXPECT_GE(v, prev - 1e-12);
        prev = v;
    }
}

TEST(TriangleWave, SampledPeriodCoversOnePeriod)
{
    TriangleWave tri(1.0, 1e6);
    const Waveform w = tri.sampledPeriod(1e-8);
    EXPECT_EQ(w.size(), 100u);
    EXPECT_NEAR(w[0], -1.0, 1e-9);
}

/** One FNV-1a 64 step over the bytes of `value`. */
uint64_t
fnv1a(uint64_t h, double value)
{
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Pinned bytes of valueAt(): FNV-1a over the reference voltage at
 * the phases a rewrite of the phase or shape arithmetic could treat
 * differently — signed zeros, exact integer and half-integer phases
 * either side of zero, phases past 2^52 (where every double is an
 * integer), and a seeded sweep of t * f from 1e-3 up to ~1e7 on both
 * signs — for the ideal triangle and three RC shapings. A second
 * wave at the iTDR's default PDM frequency sees the same phases
 * through the division t = x / f_m.
 */
TEST(TrianglePins, ValueBitsAcrossShapingAndPhase)
{
    const double special[] = {
        0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75,
        1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 17.0, -17.0,
        1e7, -1e7, 1e7 + 0.5, -1e7 - 0.5, 9999999.75, -9999999.75,
        std::nextafter(1.0, 0.0), std::nextafter(-1.0, 0.0),
        std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
        0x1p52, -0x1p52, 0x1p52 + 1.0, -0x1p52 - 1.0, 0x1p60, -0x1p60,
        0x1p-1074, -0x1p-1074};
    const double scales[] = {1e-3, 1e-1, 1.0, 1e1, 1e3, 1e5, 1e6, 1e7};
    const double fm = 156.25e6 * 18.0 / 17.0;
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const double rc : {0.0, 0.15, 0.5, 2.0}) {
        const TriangleWave unit(1.0, 1.0, 0.0, rc);
        const TriangleWave pdm(8e-3, fm, 0.25e-3, rc);
        for (const double x : special) {
            h = fnv1a(h, unit.valueAt(x));
            h = fnv1a(h, pdm.valueAt(x / fm));
        }
        Rng pick(41);
        for (int k = 0; k < 4000; ++k) {
            const double x = pick.uniform(-1.0, 1.0) * scales[k % 8];
            h = fnv1a(h, unit.valueAt(x));
            h = fnv1a(h, pdm.valueAt(x / fm));
        }
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, h);
    EXPECT_EQ(h, 0xb1ea8d9c515152a0ULL) << hex;
}

TEST(TriangleWave, Validation)
{
    EXPECT_DEATH(TriangleWave(-1.0, 1.0), "amplitude");
    EXPECT_DEATH(TriangleWave(1.0, 0.0), "frequency");
    EXPECT_DEATH(TriangleWave(1.0, 1.0, 0.0, 5.0), "rc_shaping");
    // NaN passes a plain `x < 0` check; every field must name itself.
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        EXPECT_DEATH(TriangleWave(bad, 1.0), "amplitude");
        EXPECT_DEATH(TriangleWave(1.0, bad), "frequency");
        EXPECT_DEATH(TriangleWave(1.0, 1.0, bad), "center");
        EXPECT_DEATH(TriangleWave(1.0, 1.0, 0.0, bad), "rc_shaping");
    }
}

TEST(VernierLevels, PaperExampleFiveLevels)
{
    // Fig. 3: 5 f_m = 6 f_s => five distinct reference voltages. (At
    // t0 exactly on a triangle vertex the symmetric phases collide,
    // so probe at a generic waveform offset as the figure does.)
    TriangleWave tri(1.0, 6.0);  // f_m = 6 with f_s = 5
    const auto levels = vernierReferenceLevels(tri, 5, 6, 0.013);
    ASSERT_EQ(levels.size(), 5u);
    std::set<long> distinct;
    for (double v : levels)
        distinct.insert(std::lround(v * 1e9));
    EXPECT_EQ(distinct.size(), 5u);
}

TEST(VernierLevels, LevelsRepeatAfterPeriodP)
{
    TriangleWave tri(1.0, 12.0);
    const auto a = vernierReferenceLevels(tri, 11, 12, 0.1);
    // Level r equals tri at r*T_s + t0; r = p wraps to r = 0.
    const double t_s = (1.0 / 12.0) * 12.0 / 11.0;
    EXPECT_NEAR(tri.valueAt(11.0 * t_s + 0.1), a[0], 1e-9);
}

TEST(VernierLevels, SpreadCoversTriangleSpan)
{
    TriangleWave tri(1.0, 6.0);
    const auto levels = vernierReferenceLevels(tri, 5, 6, 0.0);
    const auto [lo, hi] = std::minmax_element(levels.begin(),
                                              levels.end());
    // Five phases of a triangle cover most of its swing.
    EXPECT_LT(*lo, -0.5);
    EXPECT_GT(*hi, 0.5);
}

TEST(VernierLevels, NonCoprimeRejected)
{
    TriangleWave tri(1.0, 6.0);
    EXPECT_DEATH(vernierReferenceLevels(tri, 4, 6, 0.0), "coprime");
    EXPECT_DEATH(vernierReferenceLevels(tri, 0, 6, 0.0), "positive");
}

/** Any coprime (p, q) yields exactly p distinct levels. */
class VernierSweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(VernierSweep, DistinctLevelCountEqualsP)
{
    const auto [p, q] = GetParam();
    TriangleWave tri(1.0, static_cast<double>(q));
    const auto levels = vernierReferenceLevels(tri, p, q, 0.037);
    std::set<long> distinct;
    for (double v : levels)
        distinct.insert(std::lround(v * 1e9));
    EXPECT_EQ(distinct.size(), p);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, VernierSweep,
    ::testing::Values(std::make_pair(3u, 4u), std::make_pair(5u, 6u),
                      std::make_pair(7u, 8u), std::make_pair(11u, 12u),
                      std::make_pair(5u, 7u), std::make_pair(9u, 11u)));

} // namespace
} // namespace divot
