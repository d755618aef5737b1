/**
 * @file
 * Tests for the manufacturing-variation model: marginal statistics,
 * spatial correlation, uniqueness across draws, determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "txline/manufacturing.hh"
#include "util/stats.hh"

namespace divot {
namespace {

TEST(CorrelatedProfile, MarginalStatistics)
{
    Rng rng(1);
    const auto p = correlatedGaussianProfile(20000, 0.05, 8.0, rng);
    RunningStats s;
    s.addAll(p);
    EXPECT_NEAR(s.mean(), 0.0, 0.005);
    EXPECT_NEAR(s.stddev(), 0.05, 0.005);
}

TEST(CorrelatedProfile, NeighborsCorrelateDistantPointsDont)
{
    Rng rng(2);
    const auto p = correlatedGaussianProfile(50000, 1.0, 10.0, rng);
    auto corr_at_lag = [&](std::size_t lag) {
        std::vector<double> a(p.begin(), p.end() - lag);
        std::vector<double> b(p.begin() + lag, p.end());
        return pearson(a, b);
    };
    EXPECT_GT(corr_at_lag(1), 0.95);
    EXPECT_GT(corr_at_lag(10), 0.5);
    EXPECT_LT(corr_at_lag(100), 0.1);
}

TEST(CorrelatedProfile, SmallKernelApproachesWhite)
{
    Rng rng(3);
    const auto p = correlatedGaussianProfile(20000, 1.0, 1e-6, rng);
    std::vector<double> a(p.begin(), p.end() - 1);
    std::vector<double> b(p.begin() + 1, p.end());
    EXPECT_LT(pearson(a, b), 0.2);
}

TEST(ManufacturingProcess, ProfileCentersOnNominal)
{
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(5));
    const auto z = fab.drawImpedanceProfile(0.25, 0.5e-3);
    ASSERT_EQ(z.size(), 500u);
    RunningStats s;
    s.addAll(z);
    EXPECT_NEAR(s.mean(), params.nominalImpedance,
                params.nominalImpedance * 0.02);
    EXPECT_NEAR(s.stddev(),
                params.nominalImpedance * params.relativeSigma,
                params.nominalImpedance * params.relativeSigma * 0.5);
    for (double v : z)
        EXPECT_GT(v, 0.0);
}

TEST(ManufacturingProcess, DrawsShareOnlyTheCommonMode)
{
    // Lines from the same lot correlate by exactly the configured
    // panel-level common-mode fraction — the PUF property is in the
    // remaining independent component.
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(7));
    const auto a = fab.drawImpedanceProfile(1.0, 0.5e-3);
    const auto b = fab.drawImpedanceProfile(1.0, 0.5e-3);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_NEAR(pearson(a, b), params.commonModeFraction, 0.15);
}

TEST(ManufacturingProcess, ZeroCommonModeDecorrelates)
{
    ProcessParams params;
    params.commonModeFraction = 0.0;
    ManufacturingProcess fab(params, Rng(7));
    const auto a = fab.drawImpedanceProfile(1.0, 0.5e-3);
    const auto b = fab.drawImpedanceProfile(1.0, 0.5e-3);
    EXPECT_LT(std::fabs(pearson(a, b)), 0.2);
}

TEST(ManufacturingProcess, DeterministicBySeed)
{
    ManufacturingProcess fab1(ProcessParams{}, Rng(9));
    ManufacturingProcess fab2(ProcessParams{}, Rng(9));
    const auto a = fab1.drawImpedanceProfile(0.1, 0.5e-3);
    const auto b = fab2.drawImpedanceProfile(0.1, 0.5e-3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ManufacturingProcess, RejectsBadGeometry)
{
    ManufacturingProcess fab(ProcessParams{}, Rng(11));
    EXPECT_DEATH(fab.drawImpedanceProfile(0.0, 0.5e-3), "geometry");
    EXPECT_DEATH(fab.drawImpedanceProfile(0.1, 0.0), "geometry");
    EXPECT_DEATH(fab.drawImpedanceProfile(0.001, 0.01), "geometry");
    // Non-finite inputs: NaN fails every comparison, and the segment
    // count must come from a finite ratio.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
        EXPECT_DEATH(fab.drawImpedanceProfile(bad, 0.5e-3), "geometry")
            << "length " << bad;
        EXPECT_DEATH(fab.drawImpedanceProfile(0.1, bad), "geometry")
            << "segment " << bad;
    }
}

TEST(ManufacturingProcess, RejectsBadParams)
{
    ProcessParams bad;
    bad.relativeSigma = 0.9;
    EXPECT_DEATH(ManufacturingProcess(bad, Rng(1)), "relativeSigma");
    ProcessParams bad2;
    bad2.nominalImpedance = -1.0;
    EXPECT_DEATH(ManufacturingProcess(bad2, Rng(1)), "impedance");
}

/** Correlation length sweep: longer correlation => smoother profile. */
class SmoothnessSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SmoothnessSweep, LongerCorrelationSmoother)
{
    const double corr = GetParam();
    Rng rng(13);
    const auto p = correlatedGaussianProfile(20000, 1.0, corr, rng);
    // Mean squared first difference shrinks as correlation grows.
    double msd = 0.0;
    for (std::size_t i = 1; i < p.size(); ++i)
        msd += (p[i] - p[i - 1]) * (p[i] - p[i - 1]);
    msd /= static_cast<double>(p.size() - 1);
    // Theory: for unit-variance smooth process, msd ~ (1/corr)^2
    // scale; just check monotone trend against a reference.
    Rng rng2(13);
    const auto q = correlatedGaussianProfile(20000, 1.0, corr * 4.0,
                                             rng2);
    double msd_smooth = 0.0;
    for (std::size_t i = 1; i < q.size(); ++i)
        msd_smooth += (q[i] - q[i - 1]) * (q[i] - q[i - 1]);
    msd_smooth /= static_cast<double>(q.size() - 1);
    EXPECT_LT(msd_smooth, msd);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SmoothnessSweep,
                         ::testing::Values(2.0, 4.0, 8.0, 16.0));

} // namespace
} // namespace divot
