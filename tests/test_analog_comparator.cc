/**
 * @file
 * Tests for the comparator: the APC foundation. The empirical strobe
 * frequency must match the analytic Phi probability — that identity
 * is Eq. (1) of the paper.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analog/comparator.hh"
#include "util/math.hh"

namespace divot {
namespace {

TEST(Comparator, ZeroNoiseIsDeterministic)
{
    ComparatorParams p;
    p.noiseSigma = 0.0;
    Comparator c(p, Rng(1));
    EXPECT_TRUE(c.strobe(1e-3, 0.0));
    EXPECT_FALSE(c.strobe(-1e-3, 0.0));
    EXPECT_DOUBLE_EQ(c.probabilityHigh(1e-3, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(c.probabilityHigh(-1e-3, 0.0), 0.0);
}

TEST(Comparator, ProbabilityHighIsGaussianCdf)
{
    ComparatorParams p;
    p.noiseSigma = 1e-3;
    Comparator c(p, Rng(2));
    EXPECT_NEAR(c.probabilityHigh(0.0, 0.0), 0.5, 1e-12);
    EXPECT_NEAR(c.probabilityHigh(1e-3, 0.0), normalCdf(1.0), 1e-12);
    EXPECT_NEAR(c.probabilityHigh(-2e-3, 0.0), normalCdf(-2.0), 1e-12);
}

/** Eq. (1): strobe frequency converges to the analytic probability. */
class StrobeFrequency : public ::testing::TestWithParam<double>
{
};

TEST_P(StrobeFrequency, MatchesAnalyticProbability)
{
    const double v_sig = GetParam();
    ComparatorParams p;
    p.noiseSigma = 1e-3;
    Comparator c(p, Rng(42));
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += c.strobe(v_sig, 0.0);
    const double expected = c.probabilityHigh(v_sig, 0.0);
    EXPECT_NEAR(static_cast<double>(hits) / n, expected,
                4.0 * std::sqrt(expected * (1 - expected) / n) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    VoltageSweep, StrobeFrequency,
    ::testing::Values(-2e-3, -1e-3, -0.5e-3, 0.0, 0.5e-3, 1e-3, 2e-3));

TEST(Comparator, OffsetShiftsDecision)
{
    ComparatorParams p;
    p.noiseSigma = 1e-3;
    p.inputOffset = 0.5e-3;
    Comparator c(p, Rng(3));
    EXPECT_NEAR(c.probabilityHigh(-0.5e-3, 0.0), 0.5, 1e-12);
}

TEST(Comparator, ReferenceInputSubtracts)
{
    ComparatorParams p;
    p.noiseSigma = 1e-3;
    Comparator c(p, Rng(4));
    EXPECT_NEAR(c.probabilityHigh(2e-3, 2e-3), 0.5, 1e-12);
    EXPECT_NEAR(c.probabilityHigh(3e-3, 2e-3),
                c.probabilityHigh(1e-3, 0.0), 1e-12);
}

TEST(Comparator, MetastableBandFlipsCoins)
{
    ComparatorParams p;
    p.noiseSigma = 0.0;
    p.metastableBand = 1e-3;
    Comparator c(p, Rng(5));
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += c.strobe(0.0, 0.0);  // dead center of the band
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.5, 0.02);
    // Outside the band: deterministic again.
    EXPECT_TRUE(c.strobe(2e-3, 0.0));
}

TEST(Comparator, StrobeAnalyticMatchesBatchStatistics)
{
    // The binomial aggregate and the per-trial batch sample the same
    // law: over many bins their mean hit counts must agree within CI
    // bounds, at a fraction of the draws.
    ComparatorParams p;
    p.noiseSigma = 1e-3;
    Comparator sampled(p, Rng(31));
    Comparator analytic(p, Rng(32));
    const std::vector<double> levels = {-1.5e-3, -0.5e-3, 0.5e-3,
                                        1.5e-3};
    const unsigned per_level = 40;
    const unsigned trials =
        per_level * static_cast<unsigned>(levels.size());
    std::vector<double> refs(trials);
    for (unsigned k = 0; k < trials; ++k)
        refs[k] = levels[k % levels.size()];
    const int bins = 400;
    double sum_s = 0.0, sum_a = 0.0;
    for (int i = 0; i < bins; ++i) {
        sum_s += sampled.strobeBatch(0.3e-3, refs.data(), trials);
        sum_a += analytic.strobeAnalytic(0.3e-3, levels.data(),
                                         levels.size(), per_level);
    }
    double expected = 0.0;
    for (double ref : levels)
        expected += per_level * sampled.probabilityHigh(0.3e-3, ref);
    const double se = std::sqrt(expected) / std::sqrt(double(bins));
    EXPECT_NEAR(sum_s / bins, expected, 6.0 * se);
    EXPECT_NEAR(sum_a / bins, expected, 6.0 * se);
}

TEST(Comparator, StrobeAnalyticSaturatedLevelsAreExact)
{
    // Far outside the noise the analytic path must return exact
    // all-or-nothing counts (and consume no draws for them).
    ComparatorParams p;
    p.noiseSigma = 1e-3;
    Comparator c(p, Rng(33));
    const std::vector<double> lo = {-0.5, -0.25};  // p = 1 both
    const std::vector<double> hi = {0.5, 0.25};    // p = 0 both
    EXPECT_EQ(c.strobeAnalytic(0.0, lo.data(), lo.size(), 10), 20u);
    EXPECT_EQ(c.strobeAnalytic(0.0, hi.data(), hi.size(), 10), 0u);
}

TEST(Comparator, StrobeAnalyticMetastableBandIsCoinFlip)
{
    ComparatorParams p;
    p.noiseSigma = 0.0;
    p.metastableBand = 1e-3;
    Comparator c(p, Rng(34));
    const std::vector<double> levels = {0.0};  // dead center
    double hits = 0.0;
    const int bins = 2000;
    const unsigned per_level = 16;
    for (int i = 0; i < bins; ++i)
        hits += c.strobeAnalytic(0.0, levels.data(), 1, per_level);
    EXPECT_NEAR(hits / (double(bins) * per_level), 0.5, 0.02);
}

TEST(Comparator, ParameterValidation)
{
    ComparatorParams bad;
    bad.noiseSigma = -1.0;
    EXPECT_DEATH(Comparator(bad, Rng(6)), "sigma");
    ComparatorParams bad2;
    bad2.metastableBand = -1.0;
    EXPECT_DEATH(Comparator(bad2, Rng(7)), "metastable");
}

TEST(Comparator, StrobeBatchMatchesScalarStrobes)
{
    // strobeBatch promises the draws of n scalar strobe() calls on
    // each of its paths — block noise, noiseless, and the metastable
    // fallback: equal hit counts per bin, and twins that strobe the
    // same afterwards. Odd batch lengths leave a cached normal behind.
    ComparatorParams noisy;
    noisy.noiseSigma = 1e-3;
    noisy.inputOffset = 0.2e-3;
    ComparatorParams silent;
    silent.noiseSigma = 0.0;
    ComparatorParams metastable;
    metastable.noiseSigma = 1e-3;
    metastable.metastableBand = 0.4e-3;
    std::vector<double> refs(171);
    for (std::size_t i = 0; i < refs.size(); ++i)
        refs[i] = (static_cast<double>(i % 17) - 8.0) * 0.25e-3;
    for (const ComparatorParams &params : {noisy, silent, metastable}) {
        Comparator batch(params, Rng(31)), scalar(params, Rng(31));
        unsigned bin = 0;
        for (const std::size_t n : {170u, 1u, 0u, 17u, 171u, 170u, 3u}) {
            const double v_sig = (static_cast<double>(bin % 5) - 2.0) * 0.6e-3;
            unsigned want = 0;
            for (std::size_t i = 0; i < n; ++i)
                want += scalar.strobe(v_sig, refs[i]) ? 1u : 0u;
            EXPECT_EQ(batch.strobeBatch(v_sig, refs.data(), n), want)
                << "sigma " << params.noiseSigma << " band "
                << params.metastableBand << " bin " << bin;
            ++bin;
        }
        // At dv = 0 each strobe reads a fresh draw: the sign of a
        // normal, or a coin flip inside the metastable band.
        for (int k = 0; k < 64; ++k) {
            EXPECT_EQ(batch.strobe(0.0, params.inputOffset),
                      scalar.strobe(0.0, params.inputOffset))
                << "sigma " << params.noiseSigma << " band "
                << params.metastableBand << " draw " << k;
        }
    }
}

} // namespace
} // namespace divot
