/**
 * @file
 * Tests for the SIMD strobe kernels (DESIGN.md §13): the determinism
 * contract (scalar == pre-kernel engine, binomial bit-identity across
 * targets, target-invariant draw schedule), the AVX2 Phi error bound,
 * the DIVOT_SIMD dispatch rules, and the SoA sweep's equivalence to
 * the per-bin analytic loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "analog/comparator.hh"
#include "fault/fault.hh"
#include "itdr/itdr.hh"
#include "itdr/kernels/kernels.hh"
#include "itdr/kernels/soa.hh"
#include "txline/manufacturing.hh"
#include "txline/txline.hh"
#include "util/math.hh"

namespace divot {
namespace {

/** Every kernel table compiled in AND runnable on this machine. */
std::vector<const StrobeKernels *>
runnableKernelSets()
{
    std::vector<const StrobeKernels *> sets = {scalarStrobeKernels()};
    if (simdTargetSupported(SimdTarget::Avx2))
        sets.push_back(avx2StrobeKernels());
    if (simdTargetSupported(SimdTarget::Neon))
        sets.push_back(neonStrobeKernels());
    return sets;
}

/** A bins x levels reference grid plus per-bin signals spanning
 *  saturated, interior, and boundary lanes. */
struct GridFixture
{
    static constexpr std::size_t bins = 24;
    static constexpr std::size_t levels = 17;
    std::vector<double> vSig, ref;

    GridFixture()
    {
        Rng r(123);
        vSig.resize(bins);
        ref.resize(bins * levels);
        for (std::size_t i = 0; i < bins; ++i) {
            // Mix deep-saturated bins with interior ones.
            vSig[i] = (i % 3 == 0 ? 20e-3 : 0.0) +
                (static_cast<double>(i) - 12.0) * 0.4e-3;
            for (std::size_t j = 0; j < levels; ++j) {
                ref[i * levels + j] =
                    -8e-3 + 1e-3 * static_cast<double>(j) +
                    r.uniform(-0.1e-3, 0.1e-3);
            }
        }
    }
};

TEST(KernelGrid, ScalarMatchesNormalCdfSaturated)
{
    GridFixture f;
    const double inv_sigma = 1.0 / 0.5e-3;
    const double offset = 0.2e-3;
    std::vector<double> p(f.bins * f.levels);
    scalarStrobeKernels()->apcProbabilityGrid(
        f.vSig.data(), offset, inv_sigma, f.ref.data(), p.data(),
        f.bins, f.levels);
    for (std::size_t i = 0; i < f.bins; ++i) {
        for (std::size_t j = 0; j < f.levels; ++j) {
            const double z = (f.vSig[i] + offset - f.ref[i * f.levels + j]) *
                inv_sigma;
            EXPECT_EQ(p[i * f.levels + j], normalCdfSaturated(z));
        }
    }
}

TEST(KernelGrid, NoiselessStepOnEveryTarget)
{
    GridFixture f;
    for (const StrobeKernels *k : runnableKernelSets()) {
        std::vector<double> p(f.bins * f.levels, -1.0);
        k->apcProbabilityGrid(f.vSig.data(), 0.0, 0.0, f.ref.data(),
                              p.data(), f.bins, f.levels);
        for (std::size_t i = 0; i < f.bins; ++i) {
            for (std::size_t j = 0; j < f.levels; ++j) {
                const double dv =
                    f.vSig[i] - f.ref[i * f.levels + j];
                EXPECT_EQ(p[i * f.levels + j], dv > 0.0 ? 1.0 : 0.0)
                    << k->name;
            }
        }
    }
}

/** Vector Phi must stay within 5e-7 of scalar in the interior and be
 *  exactly 0.0 / 1.0 (scalar-equal) past +-8 sigma — exact saturation
 *  is what keeps the draw schedule target-invariant. */
TEST(KernelGrid, VectorPhiWithinBoundAndExactlySaturated)
{
    GridFixture f;
    const double inv_sigma = 1.0 / 0.5e-3;
    std::vector<double> ps(f.bins * f.levels), pv(f.bins * f.levels);
    scalarStrobeKernels()->apcProbabilityGrid(
        f.vSig.data(), 0.0, inv_sigma, f.ref.data(), ps.data(),
        f.bins, f.levels);
    for (const StrobeKernels *k : runnableKernelSets()) {
        if (k->target == SimdTarget::Scalar)
            continue;
        k->apcProbabilityGrid(f.vSig.data(), 0.0, inv_sigma,
                              f.ref.data(), pv.data(), f.bins,
                              f.levels);
        for (std::size_t l = 0; l < ps.size(); ++l) {
            const double z =
                (f.vSig[l / f.levels] - f.ref[l]) * inv_sigma;
            if (z >= 8.0 || z <= -8.0) {
                EXPECT_EQ(pv[l], ps[l])
                    << k->name << " saturated lane " << l;
            } else {
                EXPECT_NEAR(pv[l], ps[l], 5e-7)
                    << k->name << " interior lane " << l;
            }
        }
    }
}

/** The binomial kernel is bit-identical across every target, and
 *  leaves the Rng in the same state (same number of uniforms, in the
 *  same lane order). */
TEST(KernelBinomial, BitIdenticalAcrossTargets)
{
    GridFixture f;
    const double inv_sigma = 1.0 / 0.5e-3;
    std::vector<double> p(f.bins * f.levels);
    scalarStrobeKernels()->apcProbabilityGrid(
        f.vSig.data(), 0.0, inv_sigma, f.ref.data(), p.data(), f.bins,
        f.levels);

    Rng ref_rng(77);
    std::vector<unsigned> ref_k(p.size(), 0xdeadu);
    scalarStrobeKernels()->binomialLane(ref_rng, p.data(), 10,
                                        ref_k.data(), p.size());
    for (const StrobeKernels *k : runnableKernelSets()) {
        Rng rng(77);
        std::vector<unsigned> got(p.size(), 0xbeefu);
        k->binomialLane(rng, p.data(), 10, got.data(), p.size());
        EXPECT_EQ(got, ref_k) << k->name;
        // Post-call stream state must match exactly.
        for (int d = 0; d < 8; ++d)
            EXPECT_EQ(rng.next(), ref_rng.next()) << k->name;
        // re-sync ref_rng for the next target
        ref_rng = Rng(77);
        std::vector<unsigned> scratch(p.size());
        scalarStrobeKernels()->binomialLane(ref_rng, p.data(), 10,
                                            scratch.data(), p.size());
    }
}

TEST(KernelBinomial, MatchesSequentialRngBinomial)
{
    GridFixture f;
    const double inv_sigma = 1.0 / 0.5e-3;
    std::vector<double> p(f.bins * f.levels);
    scalarStrobeKernels()->apcProbabilityGrid(
        f.vSig.data(), 0.0, inv_sigma, f.ref.data(), p.data(), f.bins,
        f.levels);
    Rng a(9), b(9);
    std::vector<unsigned> got(p.size());
    scalarStrobeKernels()->binomialLane(a, p.data(), 10, got.data(),
                                        p.size());
    for (std::size_t l = 0; l < p.size(); ++l) {
        EXPECT_EQ(got[l],
                  static_cast<unsigned>(b.binomial(10, p[l])))
            << "lane " << l;
    }
    EXPECT_EQ(a.next(), b.next());
}

/** Degenerate lanes (p <= 0, p >= 1) must not consume draws on any
 *  target — the Rng::binomial contract, lane-wise. */
TEST(KernelBinomial, DegenerateLanesConsumeNoDraws)
{
    std::vector<double> p = {0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0,
                             0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0,
                             1.0};
    for (const StrobeKernels *k : runnableKernelSets()) {
        Rng rng(5);
        std::vector<unsigned> got(p.size(), 42u);
        k->binomialLane(rng, p.data(), 12, got.data(), p.size());
        for (std::size_t l = 0; l < p.size(); ++l)
            EXPECT_EQ(got[l], p[l] >= 1.0 ? 12u : 0u) << k->name;
        EXPECT_EQ(rng.next(), Rng(5).next())
            << k->name << " consumed a draw on degenerate input";
    }
}

TEST(KernelBinomial, LargeTrialsFallBackIdentically)
{
    // trials > binomialInversionCutoff: every target must defer to
    // the scalar per-lane path (normal-cutoff draws).
    std::vector<double> p = {0.3, 0.0, 0.9, 0.5, 1.0, 0.01, 0.72};
    Rng ref_rng(31);
    std::vector<unsigned> ref_k(p.size());
    scalarStrobeKernels()->binomialLane(ref_rng, p.data(), 1000,
                                        ref_k.data(), p.size());
    for (const StrobeKernels *k : runnableKernelSets()) {
        Rng rng(31);
        std::vector<unsigned> got(p.size());
        k->binomialLane(rng, p.data(), 1000, got.data(), p.size());
        EXPECT_EQ(got, ref_k) << k->name;
        EXPECT_EQ(rng.next(), ref_rng.next()) << k->name;
        ref_rng = Rng(31);
        std::vector<unsigned> scratch(p.size());
        scalarStrobeKernels()->binomialLane(ref_rng, p.data(), 1000,
                                            scratch.data(), p.size());
    }
}

TEST(KernelTile, PeriodicTilingExactOnEveryTarget)
{
    std::vector<double> period(17);
    for (std::size_t j = 0; j < period.size(); ++j)
        period[j] = std::sin(static_cast<double>(j));
    for (const StrobeKernels *k : runnableKernelSets()) {
        for (std::size_t n : {0ul, 5ul, 17ul, 170ul, 173ul}) {
            std::vector<double> out(n, -7.0);
            k->tilePeriodic(period.data(), period.size(), out.data(),
                            n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(out[i], period[i % period.size()])
                    << k->name << " n=" << n << " i=" << i;
        }
    }
}

/** The SoA sweep with the scalar kernel set performs exactly the
 *  libm calls and Rng draws of per-bin strobeAnalytic calls: same
 *  hits, same final comparator stream. */
TEST(KernelSoA, ScalarSweepMatchesPerBinAnalytic)
{
    GridFixture f;
    ComparatorParams params;
    params.noiseSigma = 0.5e-3;
    params.inputOffset = 0.1e-3;

    Comparator perBin(params, Rng(41));
    std::vector<unsigned> want(f.bins);
    for (std::size_t i = 0; i < f.bins; ++i) {
        want[i] = perBin.strobeAnalytic(
            f.vSig[i], f.ref.data() + i * f.levels, f.levels, 10);
    }

    Comparator sweep(params, Rng(41));
    StrobeSoA soa;
    soa.resize(f.bins, f.levels);
    for (std::size_t i = 0; i < f.bins; ++i)
        soa.vSig[i] = f.vSig[i];
    sweep.strobeAnalyticSoA(*scalarStrobeKernels(), f.ref.data(),
                            f.bins, f.levels, 10, soa);
    for (std::size_t i = 0; i < f.bins; ++i)
        EXPECT_EQ(soa.hits[i], want[i]) << "bin " << i;
    // Identical stream state afterwards: the next strobes agree.
    for (int s = 0; s < 32; ++s)
        EXPECT_EQ(sweep.strobe(0.0, 0.0), perBin.strobe(0.0, 0.0));
}

class DispatchEnv : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *prev = std::getenv("DIVOT_SIMD");
        if (prev != nullptr)
            saved_ = prev;
        hadEnv_ = prev != nullptr;
    }
    void TearDown() override
    {
        if (hadEnv_)
            setenv("DIVOT_SIMD", saved_.c_str(), 1);
        else
            unsetenv("DIVOT_SIMD");
    }

  private:
    std::string saved_;
    bool hadEnv_ = false;
};

TEST_F(DispatchEnv, EnvForcesScalarOverConfig)
{
    setenv("DIVOT_SIMD", "scalar", 1);
    EXPECT_EQ(resolveSimdTarget(SimdTarget::Auto), SimdTarget::Scalar);
    EXPECT_EQ(resolveSimdTarget(SimdTarget::Avx2), SimdTarget::Scalar);
    EXPECT_EQ(strobeKernels(SimdTarget::Auto).target,
              SimdTarget::Scalar);
}

TEST_F(DispatchEnv, AutoResolvesToASupportedTarget)
{
    unsetenv("DIVOT_SIMD");
    const SimdTarget t = resolveSimdTarget(SimdTarget::Auto);
    EXPECT_NE(t, SimdTarget::Auto);
    EXPECT_TRUE(simdTargetSupported(t)) << simdTargetName(t);
    EXPECT_EQ(strobeKernels(SimdTarget::Auto).target, t);
}

TEST_F(DispatchEnv, UnknownEnvValueFallsBackToRequested)
{
    setenv("DIVOT_SIMD", "sse9", 1);
    const SimdTarget t = resolveSimdTarget(SimdTarget::Scalar);
    EXPECT_EQ(t, SimdTarget::Scalar);
}

TEST_F(DispatchEnv, UnsupportedForcedTargetFallsBackToScalar)
{
    unsetenv("DIVOT_SIMD");
    // At most one of AVX2/NEON can be supported on one machine; the
    // other must fall back to scalar rather than crash.
    if (!simdTargetSupported(SimdTarget::Avx2)) {
        EXPECT_EQ(resolveSimdTarget(SimdTarget::Avx2),
                  SimdTarget::Scalar);
    }
    if (!simdTargetSupported(SimdTarget::Neon)) {
        EXPECT_EQ(resolveSimdTarget(SimdTarget::Neon),
                  SimdTarget::Scalar);
    }
}

/** Full-instrument determinism per dispatch target. */
class ItdrKernelHarness
{
  public:
    static TransmissionLine makeLine()
    {
        ProcessParams pp;
        ManufacturingProcess proc(pp, Rng(7));
        auto z = proc.drawImpedanceProfile(0.05, 0.5e-3);
        return TransmissionLine(std::move(z), 0.5e-3, pp.velocity,
                                50.0, 50.3, pp.lossNeperPerMeter,
                                "kernel-test");
    }

    static Waveform measureOnce(SimdTarget simd,
                                const FaultPlan &faults = FaultPlan{})
    {
        ItdrConfig cfg;
        cfg.strobeModel = StrobeModel::Binomial;
        cfg.simd = simd;
        ITdr itdr(cfg, Rng(11));
        FaultInjector injector(faults, Rng(13));
        itdr.attachFaultInjector(&injector);
        TransmissionLine line = makeLine();
        return itdr.measure(line).iip;
    }
};

TEST_F(DispatchEnv, MeasureDeterministicPerTarget)
{
    unsetenv("DIVOT_SIMD");
    // Clean, and under a frame whose PLL dropouts and counter flips
    // both draw per-bin decisions from one stream.
    const FaultPlan dropout_flip =
        FaultPlan{}.pllDropout(0, 0, 0.15).counterBitFlip(0, 0, 0.35);
    for (const FaultPlan &faults : {FaultPlan{}, dropout_flip}) {
        for (const StrobeKernels *k : runnableKernelSets()) {
            const Waveform a =
                ItdrKernelHarness::measureOnce(k->target, faults);
            const Waveform b =
                ItdrKernelHarness::measureOnce(k->target, faults);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i], b[i]) << k->name << " faults "
                                      << faults.specs().size() << " bin "
                                      << i;
            }
        }
    }
}

TEST_F(DispatchEnv, EnvForcedScalarMatchesConfigScalar)
{
    unsetenv("DIVOT_SIMD");
    const Waveform cfg_scalar =
        ItdrKernelHarness::measureOnce(SimdTarget::Scalar);
    setenv("DIVOT_SIMD", "scalar", 1);
    const Waveform env_scalar =
        ItdrKernelHarness::measureOnce(SimdTarget::Auto);
    ASSERT_EQ(cfg_scalar.size(), env_scalar.size());
    for (std::size_t i = 0; i < cfg_scalar.size(); ++i)
        EXPECT_EQ(cfg_scalar[i], env_scalar[i]) << "bin " << i;
}

} // namespace
} // namespace divot
