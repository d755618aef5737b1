/**
 * @file
 * Tests for the deterministic RNG: reproducibility, stream
 * independence, and distribution moments.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hh"
#include "util/stats.hh"

namespace divot {
namespace {

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    RunningStats s;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        s.add(u);
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, UniformIntBoundsAndCoverage)
{
    Rng rng(17);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate)
{
    Rng rng(21);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, ForkedStreamsIndependent)
{
    Rng parent(31);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    // Streams should not be identical...
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
    // ...and correlation of uniforms should be negligible.
    Rng c = parent.fork(3);
    Rng d = parent.fork(4);
    std::vector<double> xs, ys;
    for (int i = 0; i < 20000; ++i) {
        xs.push_back(c.uniform());
        ys.push_back(d.uniform());
    }
    EXPECT_LT(std::fabs(pearson(xs, ys)), 0.03);
}

TEST(Rng, SameTagSuccessiveForksDiffer)
{
    Rng parent(33);
    Rng a = parent.fork(42);
    Rng b = parent.fork(42);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BinomialDegenerateCases)
{
    Rng rng(41);
    const uint64_t before = Rng(41).next();
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, -0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
    EXPECT_EQ(rng.binomial(100, 1.5), 100u);
    // Degenerate draws consume no stream state.
    EXPECT_EQ(rng.next(), before);
}

TEST(Rng, BinomialBounds)
{
    Rng rng(43);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t k = rng.binomial(37, 0.3);
        ASSERT_LE(k, 37u);
    }
}

/** Exact-moment checks on both sides of the small/large-n seam. */
class BinomialMoments
    : public ::testing::TestWithParam<std::pair<uint64_t, double>>
{
};

TEST_P(BinomialMoments, MeanAndVarianceMatch)
{
    const uint64_t n = GetParam().first;
    const double p = GetParam().second;
    Rng rng(45 + n);
    RunningStats s;
    const int reps = 200000;
    for (int i = 0; i < reps; ++i)
        s.add(static_cast<double>(rng.binomial(n, p)));
    const double mean = static_cast<double>(n) * p;
    const double var = mean * (1.0 - p);
    // CI bounds: the sample mean of `reps` draws has stddev
    // sqrt(var/reps); the sample variance estimate is looser. The
    // normal-cutoff branch adds O(1) rounding variance, covered by
    // the +0.3 allowance.
    EXPECT_NEAR(s.mean(), mean, 5.0 * std::sqrt(var / reps) + 1e-9);
    EXPECT_NEAR(s.variance(), var, 0.05 * var + 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    SmallAndLargeN, BinomialMoments,
    ::testing::Values(std::make_pair<uint64_t, double>(1, 0.5),
                      std::make_pair<uint64_t, double>(10, 0.13),
                      std::make_pair<uint64_t, double>(10, 0.87),
                      std::make_pair<uint64_t, double>(64, 0.31),
                      std::make_pair<uint64_t, double>(65, 0.31),
                      std::make_pair<uint64_t, double>(400, 0.07),
                      std::make_pair<uint64_t, double>(1000, 0.5)));

TEST(Rng, BinomialAlgorithmSeamContinuous)
{
    // The exact-inversion side (n = cutoff) and the normal-cutoff
    // side (n = cutoff + 1) of the seam must describe one smoothly
    // varying family: their standardized sample means both sit within
    // CI bounds of the shared analytic law.
    const double p = 0.4;
    for (uint64_t n : {Rng::binomialInversionCutoff,
                       Rng::binomialInversionCutoff + 1}) {
        Rng rng(47);
        RunningStats s;
        const int reps = 100000;
        for (int i = 0; i < reps; ++i)
            s.add(static_cast<double>(rng.binomial(n, p)));
        const double mean = static_cast<double>(n) * p;
        const double sd = std::sqrt(mean * (1.0 - p));
        const double z =
            (s.mean() - mean) / (sd / std::sqrt(double(reps)));
        EXPECT_LT(std::fabs(z), 5.0) << "n=" << n;
    }
}

TEST(Rng, BinomialDeterministicUnderForkStable)
{
    const Rng parent(49);
    Rng a = parent.forkStable(7);
    Rng b = parent.forkStable(7);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t n = 1 + (static_cast<uint64_t>(i) % 200);
        const double p = 0.01 + 0.98 * (i % 97) / 97.0;
        ASSERT_EQ(a.binomial(n, p), b.binomial(n, p)) << i;
    }
    // ...and the derivation is insensitive to unrelated child forks.
    Rng c = parent.forkStable(7);
    Rng noise = parent.forkStable(8);
    (void)noise.binomial(100, 0.5);
    Rng d = parent.forkStable(7);
    EXPECT_EQ(c.binomial(50, 0.25), d.binomial(50, 0.25));
}

TEST(Rng, PolarPairsFill)
{
    // Every pair is accepted (inside the unit disc, off its center),
    // and its scaled components are standard normals.
    Rng rng(35);
    std::vector<double> uv(1000);
    rng.polarPairs(uv.data(), uv.size() / 2);
    RunningStats s;
    for (std::size_t k = 0; k < uv.size(); k += 2) {
        const double r2 = uv[k] * uv[k] + uv[k + 1] * uv[k + 1];
        ASSERT_GT(r2, 0.0) << k;
        ASSERT_LT(r2, 1.0) << k;
        const double m = polarScale(uv[k], uv[k + 1]);
        s.add(uv[k] * m);
        s.add(uv[k + 1] * m);
    }
    EXPECT_NEAR(s.mean(), 0.0, 0.15);
    EXPECT_NEAR(s.stddev(), 1.0, 0.15);
}

/** Bit pattern of a double, so a comparison tells -0.0 from 0.0. */
uint64_t
bitsOf(double x)
{
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

TEST(Rng, PolarPairsMatchScalarDraws)
{
    // A block of n pairs is the rejection loops of 2n scalar
    // gaussian() calls: each pair scaled by polarScale gives their two
    // normals bit for bit, and the draws after the block agree too. A
    // normal cached before the block stays cached through it.
    for (const bool cached : {false, true}) {
        for (std::size_t pairs = 0; pairs <= 150; ++pairs) {
            Rng block(900 + pairs), scalar(900 + pairs);
            double held = 0.0;
            if (cached) {
                ASSERT_EQ(bitsOf(block.gaussian()),
                          bitsOf(scalar.gaussian()));
                held = scalar.gaussian();
            }
            std::vector<double> uv(2 * pairs);
            block.polarPairs(uv.data(), pairs);
            for (std::size_t k = 0; k < uv.size(); k += 2) {
                const double m = polarScale(uv[k], uv[k + 1]);
                ASSERT_EQ(bitsOf(uv[k] * m), bitsOf(scalar.gaussian()))
                    << "pairs " << pairs << " cached " << cached << " k "
                    << k;
                ASSERT_EQ(bitsOf(uv[k + 1] * m), bitsOf(scalar.gaussian()))
                    << "pairs " << pairs << " cached " << cached << " k "
                    << k;
            }
            ASSERT_EQ(block.hasCachedNormal(), cached);
            if (cached) {
                ASSERT_EQ(bitsOf(block.gaussian()), bitsOf(held));
            }
            for (int k = 0; k < 5; ++k) {
                ASSERT_EQ(bitsOf(block.gaussian()), bitsOf(scalar.gaussian()))
                    << "pairs " << pairs << " cached " << cached
                    << " next " << k;
            }
        }
    }
}

} // namespace
} // namespace divot
