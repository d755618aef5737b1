/**
 * @file
 * Tests for the comparator: the APC foundation. The empirical strobe
 * frequency must match the analytic Phi probability — that identity
 * is Eq. (1) of the paper.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
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
    // NaN passes a plain `x < 0` check; every field must name itself.
    for (const double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        ComparatorParams sigma;
        sigma.noiseSigma = v;
        EXPECT_DEATH(Comparator(sigma, Rng(6)), "noise sigma");
        ComparatorParams band;
        band.metastableBand = v;
        EXPECT_DEATH(Comparator(band, Rng(7)), "metastable band");
        ComparatorParams offset;
        offset.inputOffset = v;
        EXPECT_DEATH(Comparator(offset, Rng(8)), "input offset");
    }
}

/** Strobes one bin through Comparator::strobeBatch. */
using BatchStrobe = std::function<unsigned(Comparator &, double v_sig,
                                           const double *v_ref,
                                           std::size_t n)>;

/** One bin of the batch oracle: a signal and one reference per strobe. */
struct OracleBin
{
    double vSig;
    std::vector<double> refs;
};

/** The bins every parameter set runs: the reference sequence of a
 *  17-level Vernier period at +-2 sigma, cut to lengths that start and
 *  end on either half of a polar pair (odd lengths leave a cached
 *  normal for the next bin), with the signal moving between bins. */
std::vector<OracleBin>
levelBins(double sigma)
{
    std::vector<double> refs(171);
    for (std::size_t i = 0; i < refs.size(); ++i)
        refs[i] = (static_cast<double>(i % 17) - 8.0) * 0.25 * sigma;
    std::vector<OracleBin> bins;
    for (const std::size_t n : {170u, 1u, 0u, 17u, 171u, 170u, 3u}) {
        const double v_sig =
            (static_cast<double>(bins.size() % 5) - 2.0) * 0.6 * sigma;
        bins.push_back({v_sig, std::vector<double>(refs.begin(),
                                                   refs.begin() + n)});
    }
    return bins;
}

/**
 * strobeBatch promises the draws of n scalar strobe() calls on each of
 * its paths: equal hit counts per bin, and twins that strobe the same
 * afterwards.
 */
void
expectBatchMatchesScalar(const ComparatorParams &params, uint64_t seed,
                         const std::vector<OracleBin> &bins,
                         const BatchStrobe &batchStrobe)
{
    Comparator batch(params, Rng(seed)), scalar(params, Rng(seed));
    for (std::size_t b = 0; b < bins.size(); ++b) {
        const OracleBin &bin = bins[b];
        unsigned want = 0;
        for (const double ref : bin.refs)
            want += scalar.strobe(bin.vSig, ref) ? 1u : 0u;
        EXPECT_EQ(batchStrobe(batch, bin.vSig, bin.refs.data(),
                              bin.refs.size()),
                  want)
            << "sigma " << params.noiseSigma << " band "
            << params.metastableBand << " bin " << b;
    }
    // At dv = 0 each strobe reads a fresh draw: the sign of a normal,
    // or a coin flip inside the metastable band.
    for (int k = 0; k < 64; ++k) {
        EXPECT_EQ(batch.strobe(0.0, params.inputOffset),
                  scalar.strobe(0.0, params.inputOffset))
            << "sigma " << params.noiseSigma << " band "
            << params.metastableBand << " draw " << k;
    }
}

/**
 * Bins whose decisions rest on the last bit: strobe j's reference sits
 * on its tie, v_sig + offset + sigma * g_j, where g_j is the normal
 * that strobe draws (a twin Rng of the comparator's seed replays the
 * stream, one normal per strobe), then one ulp above and one ulp below
 * it. The bin lengths are odd and even, so the ties also fall on
 * cached normals.
 */
std::vector<OracleBin>
tieBins(const ComparatorParams &params, uint64_t seed)
{
    Rng twin(seed);
    std::vector<OracleBin> bins;
    const double toward[] = {0.0, HUGE_VAL, -HUGE_VAL};
    for (std::size_t b = 0; b < 6; ++b) {
        OracleBin bin{(static_cast<double>(b % 3) - 1.0) * 0.7e-3, {}};
        const double base = bin.vSig + params.inputOffset;
        for (std::size_t j = 0; j < 170 + b % 2; ++j) {
            const double tie = base + params.noiseSigma * twin.gaussian();
            bin.refs.push_back(b % 3 == 0
                                   ? tie
                                   : std::nextafter(tie, toward[b % 3]));
        }
        bins.push_back(std::move(bin));
    }
    return bins;
}

TEST(Comparator, StrobeBatchMatchesScalarStrobes)
{
    const BatchStrobe batchStrobe = [](Comparator &c, double v_sig,
                                       const double *v_ref,
                                       std::size_t n) {
        return c.strobeBatch(v_sig, v_ref, n);
    };
    // Each of strobeBatch's paths: block noise, noiseless, and the
    // metastable fallback.
    ComparatorParams noisy;
    noisy.noiseSigma = 1e-3;
    noisy.inputOffset = 0.2e-3;
    ComparatorParams silent;
    silent.noiseSigma = 0.0;
    ComparatorParams metastable;
    metastable.noiseSigma = 1e-3;
    metastable.metastableBand = 0.4e-3;
    for (const ComparatorParams &params : {noisy, silent, metastable})
        expectBatchMatchesScalar(params, 31, levelBins(1e-3), batchStrobe);

    // Strobes on their ties and one ulp either side.
    expectBatchMatchesScalar(noisy, 37, tieBins(noisy, 37), batchStrobe);

    // The signal swept over +-20 sigma around the levels: from every
    // strobe decided by the signal, through the levels, to every
    // strobe decided by it again.
    std::vector<OracleBin> sweep;
    const std::vector<double> levels = levelBins(1e-3)[4].refs;
    for (int k = -40; k <= 40; ++k)
        sweep.push_back({k * 0.5e-3,
                         std::vector<double>(levels.begin(),
                                             levels.end() - (k & 1))});
    expectBatchMatchesScalar(noisy, 41, sweep, batchStrobe);

    // Noise far below and far above unit scale, with the signal and
    // the levels scaled to match.
    for (const double sigma : {1e-200, 1e200}) {
        ComparatorParams extreme;
        extreme.noiseSigma = sigma;
        extreme.inputOffset = 0.2 * sigma;
        expectBatchMatchesScalar(extreme, 43, levelBins(sigma),
                                 batchStrobe);
    }
}

TEST(Comparator, StrobeBatchMatchesScalarStrobesOnEveryTarget)
{
    // The same inputs through each runnable kernel table: the count
    // of every target is the scalar strobes' count.
    std::vector<const StrobeKernels *> targets = {scalarStrobeKernels()};
    if (simdTargetSupported(SimdTarget::Avx2))
        targets.push_back(avx2StrobeKernels());
    if (simdTargetSupported(SimdTarget::Neon))
        targets.push_back(neonStrobeKernels());
    ComparatorParams noisy;
    noisy.noiseSigma = 1e-3;
    noisy.inputOffset = 0.2e-3;
    for (const StrobeKernels *kernels : targets) {
        SCOPED_TRACE(kernels->name);
        const BatchStrobe batchStrobe =
            [kernels](Comparator &c, double v_sig, const double *v_ref,
                      std::size_t n) {
                return c.strobeBatch(v_sig, v_ref, n, *kernels);
            };
        expectBatchMatchesScalar(noisy, 31, levelBins(1e-3), batchStrobe);
        expectBatchMatchesScalar(noisy, 37, tieBins(noisy, 37),
                                 batchStrobe);
        for (const double sigma : {1e-200, 1e-100, 1e100, 1e200}) {
            ComparatorParams extreme;
            extreme.noiseSigma = sigma;
            extreme.inputOffset = 0.2 * sigma;
            expectBatchMatchesScalar(extreme, 43, levelBins(sigma),
                                     batchStrobe);
        }
    }
}

} // namespace
} // namespace divot
