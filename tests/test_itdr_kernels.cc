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
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <tuple>
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

/** One polarStrobeHits call's inputs: pairs, references, a signal. */
struct PolarCase
{
    std::vector<double> uv, ref;
    double base;
    double sigma;
    const char *what;
};

/** Pairs the generator rarely yields, on its 2^-52 grid: a zero
 *  component, a component of 2^-52, s one ulp below 1, and s = 2^-104
 *  and 2^-103. */
const std::vector<double> kRarePairs = {
    0.0, 0.5, -0.6, 0.0, 0x1.0p-52, 0.3, -0x1.0p-52, -0.9,
    0x1.ffffffffffffep-1, 0x1.3988e08p-26,
    -0x1.ffffffffffffep-1, -0x1.3988e08p-26,
    0x1.0p-52, 0.0, -0x1.0p-52, 0x1.0p-52,
};

/** Strobe j's noise as the scalar kernel computes it. */
double
polarNoise(const std::vector<double> &uv, std::size_t j, double sigma)
{
    return sigma * (uv[j] * polarScale(uv[j & ~std::size_t{1}], uv[j | 1]));
}

std::vector<PolarCase>
polarCases(double sigma)
{
    std::vector<double> uv = kRarePairs;
    uv.resize(kRarePairs.size() + 2 * 300);
    Rng rng(61);
    rng.polarPairs(uv.data() + kRarePairs.size(), 300);
    const std::size_t n = uv.size();
    std::vector<PolarCase> cases;

    // The signal from 20 sigma below the 17 levels at +-2 sigma to 20
    // sigma above them: the sign and both bounds decide.
    for (int k = -80; k <= 80; ++k) {
        PolarCase c{uv, std::vector<double>(n), k * 0.25 * sigma, sigma,
                    "sweep"};
        for (std::size_t j = 0; j < n; ++j)
            c.ref[j] = (static_cast<double>(j % 17) - 8.0) * 0.25 * sigma;
        cases.push_back(std::move(c));
    }
    // Differences from far below the noise to far above it, where
    // d^2 underflows or overflows.
    PolarCase spread{uv, std::vector<double>(n), 0.0, sigma, "spread"};
    for (std::size_t j = 0; j < n; ++j) {
        const double d = sigma * std::pow(10.0, static_cast<double>(
                                                    j % 61) * 5.0 - 150.0);
        spread.ref[j] = j % 2 == 0 ? d : -d;
    }
    cases.push_back(std::move(spread));
    // Signed zeros, infinities and NaN as the difference d.
    const double inf = HUGE_VAL;
    for (const auto &[base, ref, what] :
         {std::tuple{0.3 * sigma, 0.3 * sigma, "d = +0"},
          std::tuple{-0.0, 0.0, "d = -0"},
          std::tuple{0.3 * sigma, -inf, "d = +inf"},
          std::tuple{0.3 * sigma, inf, "d = -inf"},
          std::tuple{0.3 * sigma, std::nan(""), "d = NaN"},
          std::tuple{std::nan(""), 0.0, "base = NaN"}}) {
        cases.push_back({uv, std::vector<double>(n, ref), base, sigma, what});
    }
    // Each strobe's reference on its tie, base + noise, and one ulp
    // above and below it: only the exact expression decides these.
    for (const double base : {0.3 * sigma, -1.1 * sigma, 0.0}) {
        for (const double toward : {0.0, inf, -inf}) {
            PolarCase c{uv, std::vector<double>(n), base, sigma,
                        toward == 0.0 ? "tie" : "tie +-1 ulp"};
            for (std::size_t j = 0; j < n; ++j) {
                const double tie = base + polarNoise(uv, j, sigma);
                c.ref[j] = toward == 0.0 ? tie : std::nextafter(tie, toward);
            }
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

/**
 * The polar strobe count of every runnable target equals the scalar
 * kernel's, per vector of four strobes and over whole calls (whose
 * lengths leave a pair for the tail), at unit-scale noise, at the ends
 * of the AVX2 kernel's sigma range, and beyond them.
 */
TEST(KernelPolar, HitsEqualScalarOnEveryTarget)
{
    const StrobeKernels &scalar = *scalarStrobeKernels();
    for (const double sigma : {1e-3, 1e-100, 1e100, 1e-150, 1e150}) {
        for (const PolarCase &c : polarCases(sigma)) {
            const std::size_t n = c.uv.size();
            for (const StrobeKernels *k : runnableKernelSets()) {
                for (std::size_t j = 0; j + 4 <= n; j += 4) {
                    ASSERT_EQ(k->polarStrobeHits(c.uv.data() + j,
                                                 c.ref.data() + j, 4,
                                                 c.base, sigma),
                              scalar.polarStrobeHits(c.uv.data() + j,
                                                     c.ref.data() + j, 4,
                                                     c.base, sigma))
                        << k->name << " " << c.what << " sigma " << sigma
                        << " base " << c.base << " strobe " << j;
                }
                for (const std::size_t len : {n, n - 2}) {
                    EXPECT_EQ(k->polarStrobeHits(c.uv.data(), c.ref.data(),
                                                 len, c.base, sigma),
                              scalar.polarStrobeHits(c.uv.data(),
                                                     c.ref.data(), len,
                                                     c.base, sigma))
                        << k->name << " " << c.what << " sigma " << sigma
                        << " base " << c.base << " n " << len;
                }
            }
        }
    }
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
                                const FaultPlan &faults = FaultPlan{},
                                StrobeModel model = StrobeModel::Binomial)
    {
        ItdrConfig cfg;
        cfg.strobeModel = model;
        cfg.simd = simd;
        ITdr itdr(cfg, Rng(11));
        FaultInjector injector(faults, Rng(13));
        itdr.attachFaultInjector(&injector);
        TransmissionLine line = makeLine();
        return itdr.measure(line).iip;
    }
};

/** Bit pattern of a double, so a comparison tells -0.0 from 0.0. */
uint64_t
bitsOf(double x)
{
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

TEST_F(DispatchEnv, MeasureDeterministicPerTarget)
{
    unsetenv("DIVOT_SIMD");
    // Clean, and under a frame whose PLL dropouts and counter flips
    // both draw per-bin decisions from one stream.
    const FaultPlan dropout_flip =
        FaultPlan{}.pllDropout(0, 0, 0.15).counterBitFlip(0, 0, 0.35);
    for (const StrobeModel model :
         {StrobeModel::Binomial, StrobeModel::Sampled}) {
        const bool sampled = model == StrobeModel::Sampled;
        for (const FaultPlan &faults : {FaultPlan{}, dropout_flip}) {
            // The Sampled engine's bytes are the same on every target.
            const Waveform scalar = ItdrKernelHarness::measureOnce(
                SimdTarget::Scalar, faults, model);
            for (const StrobeKernels *k : runnableKernelSets()) {
                const Waveform a =
                    ItdrKernelHarness::measureOnce(k->target, faults, model);
                const Waveform b =
                    ItdrKernelHarness::measureOnce(k->target, faults, model);
                ASSERT_EQ(a.size(), b.size());
                ASSERT_EQ(a.size(), scalar.size());
                for (std::size_t i = 0; i < a.size(); ++i) {
                    EXPECT_EQ(bitsOf(a[i]), bitsOf(b[i]))
                        << k->name << " sampled " << sampled << " faults "
                        << faults.specs().size() << " bin " << i;
                    if (sampled) {
                        EXPECT_EQ(bitsOf(a[i]), bitsOf(scalar[i]))
                            << k->name << " faults "
                            << faults.specs().size() << " bin " << i;
                    }
                }
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
