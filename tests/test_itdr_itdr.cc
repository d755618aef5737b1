/**
 * @file
 * Integration tests for the full iTDR: reconstruction convergence to
 * the physics ground truth, bin-grid stability, cost accounting, the
 * load-echo timing the memory-bus design depends on, the sharing of
 * reconstruction plans between instruments, and pinned measurement
 * digests for every strobe engine under every per-bin fault frame.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "itdr/budget.hh"
#include "itdr/itdr.hh"
#include "signal/noise.hh"
#include "telemetry/telemetry.hh"
#include "txline/manufacturing.hh"
#include "util/thread_pool.hh"

namespace divot {
namespace {

TransmissionLine
testLine(uint64_t seed = 1, double length = 0.1)
{
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(seed));
    auto z = fab.drawImpedanceProfile(length, 0.5e-3);
    return TransmissionLine(std::move(z), 0.5e-3, params.velocity,
                            50.0, 50.4, params.lossNeperPerMeter, "t");
}

TEST(ITdr, MeasurementConvergesToIdealIip)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 440;  // heavy averaging for convergence
    ITdr itdr(cfg, Rng(3));
    const auto line = testLine();
    const Waveform ideal = itdr.idealIip(line);
    const IipMeasurement m = itdr.measure(line);
    ASSERT_EQ(m.iip.size(), ideal.size());

    // RMS reconstruction error well below the per-trial noise sigma.
    double err = 0.0;
    for (std::size_t i = 0; i < ideal.size(); ++i)
        err += (m.iip[i] - ideal[i]) * (m.iip[i] - ideal[i]);
    err = std::sqrt(err / static_cast<double>(ideal.size()));
    EXPECT_LT(err, cfg.comparator.noiseSigma);

    // And the shape correlates strongly with the truth.
    EXPECT_GT(normalizedInnerProduct(m.iip, ideal), 0.97);
}

TEST(ITdr, MoreTrialsLessNoise)
{
    const auto line = testLine();
    auto rms_err = [&](unsigned trials, uint64_t seed) {
        ItdrConfig cfg;
        cfg.trialsPerPhase = trials;
        ITdr itdr(cfg, Rng(seed));
        const Waveform ideal = itdr.idealIip(line);
        const IipMeasurement m = itdr.measure(line);
        double err = 0.0;
        for (std::size_t i = 0; i < ideal.size(); ++i)
            err += (m.iip[i] - ideal[i]) * (m.iip[i] - ideal[i]);
        return std::sqrt(err / static_cast<double>(ideal.size()));
    };
    EXPECT_GT(rms_err(22, 5), rms_err(352, 6));
}

TEST(ITdr, BinsFrozenAcrossMeasurements)
{
    ItdrConfig cfg;
    ITdr itdr(cfg, Rng(7));
    const auto a = itdr.measure(testLine(1));
    const auto b = itdr.measure(testLine(2));
    EXPECT_EQ(a.iip.size(), b.iip.size());
    EXPECT_DOUBLE_EQ(a.iip.dt(), b.iip.dt());
}

TEST(ITdr, ClockLaneCycleAccounting)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 22;
    ITdr itdr(cfg, Rng(9));
    const auto line = testLine();
    const IipMeasurement m = itdr.measure(line);
    // Clock lane: one trigger per cycle.
    EXPECT_EQ(m.busCycles, m.triggers);
    EXPECT_EQ(m.triggers,
              static_cast<uint64_t>(itdr.phaseBins()) *
                  itdr.trialsPerPhase());
    EXPECT_NEAR(m.duration,
                static_cast<double>(m.busCycles) / 156.25e6, 1e-12);
}

TEST(ITdr, DataLaneCostsMoreCycles)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 22;
    cfg.triggerMode = TriggerMode::DataLane;
    ITdr itdr(cfg, Rng(11));
    const IipMeasurement m = itdr.measure(testLine());
    // Triggers arrive on ~1/4 of the cycles.
    EXPECT_GT(m.busCycles, 3 * m.triggers);
    EXPECT_LT(m.busCycles, 6 * m.triggers);
}

TEST(ITdr, TrialsRoundedUpToLevelMultiple)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 100;  // p = 11 => round to 110
    ITdr itdr(cfg, Rng(13));
    EXPECT_EQ(itdr.trialsPerPhase() % cfg.pdm.p, 0u);
    EXPECT_GE(itdr.trialsPerPhase(), 100u);
}

TEST(ITdr, BatchedStrobesMatchScalarPath)
{
    // The batch path consumes the same comparator draws as the scalar
    // loop; the only difference is that the Vernier reference levels
    // are evaluated once per period instead of once per trial, which
    // is mathematically identical (and numerically equal to within
    // floating-point noise on the triangle-phase reduction).
    const auto line = testLine();
    ItdrConfig batch_cfg;
    batch_cfg.trialsPerPhase = 170;
    ItdrConfig scalar_cfg = batch_cfg;
    scalar_cfg.batchedStrobes = false;
    ITdr batch(batch_cfg, Rng(23));
    ITdr scalar(scalar_cfg, Rng(23));
    const IipMeasurement mb = batch.measure(line);
    const IipMeasurement ms = scalar.measure(line);
    ASSERT_EQ(mb.iip.size(), ms.iip.size());
    EXPECT_EQ(mb.busCycles, ms.busCycles);
    EXPECT_EQ(mb.triggers, ms.triggers);
    // A 1-ulp reference difference can flip at most the rare strobe
    // that lands exactly on the noise threshold; allow a fraction of
    // one trial's worth of probability per bin.
    const double tol = 3.0 * batch_cfg.comparator.noiseSigma /
        static_cast<double>(batch_cfg.trialsPerPhase);
    for (std::size_t i = 0; i < mb.iip.size(); ++i)
        EXPECT_NEAR(mb.iip[i], ms.iip[i], tol) << "bin " << i;
}

TEST(ITdr, BatchGateFallsBackForDataLaneAndJitter)
{
    // Configurations the batch path cannot serve must still measure
    // correctly through the scalar loop.
    const auto line = testLine();
    ItdrConfig jitter_cfg;
    jitter_cfg.trialsPerPhase = 44;
    jitter_cfg.pll.jitterRms = 2e-12;
    ITdr jitter(jitter_cfg, Rng(27));
    const IipMeasurement mj = jitter.measure(line);
    EXPECT_EQ(mj.iip.size(), jitter.phaseBins());

    ItdrConfig data_cfg;
    data_cfg.trialsPerPhase = 44;
    data_cfg.triggerMode = TriggerMode::DataLane;
    ITdr data(data_cfg, Rng(29));
    const IipMeasurement md = data.measure(line);
    EXPECT_GT(md.busCycles, md.triggers);
}

TEST(ITdr, EffectiveTrialsSurfacedAndMatchBudget)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 100;  // p = 17 => rounds to 102
    ITdr itdr(cfg, Rng(31));
    const auto line = testLine();
    const IipMeasurement m = itdr.measure(line);
    EXPECT_EQ(m.trialsPerBin, itdr.trialsPerPhase());
    EXPECT_EQ(m.trialsPerBin % cfg.pdm.p, 0u);
    const MeasurementBudget budget =
        predictBudget(cfg, line.roundTripDelay());
    EXPECT_EQ(m.trialsPerBin, budget.trialsPerBin);
    EXPECT_EQ(m.triggers,
              static_cast<uint64_t>(itdr.phaseBins()) * m.trialsPerBin);
}

TEST(ITdr, BinomialStrobeModelMatchesSampledStatistics)
{
    // The analytic engine samples the sufficient statistic instead of
    // the waveform; per-bin reconstruction means over repeated
    // measurements must agree with the sampled engine within
    // two-sample CI bounds on a known line, and the deterministic
    // accounting must be identical.
    const auto line = testLine(41);
    ItdrConfig sampled_cfg;
    sampled_cfg.trialsPerPhase = 170;
    ItdrConfig binomial_cfg = sampled_cfg;
    binomial_cfg.strobeModel = StrobeModel::Binomial;
    ITdr sampled(sampled_cfg, Rng(51));
    ITdr binomial(binomial_cfg, Rng(52));

    const int reps = 48;
    std::vector<double> mean_s, mean_b, m2_s, m2_b;
    for (int r = 0; r < reps; ++r) {
        const IipMeasurement ms = sampled.measure(line);
        const IipMeasurement mb = binomial.measure(line);
        ASSERT_EQ(ms.iip.size(), mb.iip.size());
        // Cost accounting and health screens are model-independent.
        ASSERT_EQ(ms.busCycles, mb.busCycles);
        ASSERT_EQ(ms.triggers, mb.triggers);
        ASSERT_EQ(ms.trialsPerBin, mb.trialsPerBin);
        ASSERT_EQ(ms.health.ok, mb.health.ok);
        ASSERT_EQ(ms.health.budgetOverrun, mb.health.budgetOverrun);
        ASSERT_EQ(ms.health.nonFiniteBins, mb.health.nonFiniteBins);
        ASSERT_NEAR(ms.health.saturatedBinFraction,
                    mb.health.saturatedBinFraction, 0.05);
        if (mean_s.empty()) {
            mean_s.assign(ms.iip.size(), 0.0);
            mean_b.assign(ms.iip.size(), 0.0);
            m2_s.assign(ms.iip.size(), 0.0);
            m2_b.assign(ms.iip.size(), 0.0);
        }
        for (std::size_t i = 0; i < ms.iip.size(); ++i) {
            mean_s[i] += ms.iip[i];
            mean_b[i] += mb.iip[i];
            m2_s[i] += ms.iip[i] * ms.iip[i];
            m2_b[i] += mb.iip[i] * mb.iip[i];
        }
    }
    const double n = static_cast<double>(reps);
    const double sigma = sampled_cfg.comparator.noiseSigma;
    const double trials =
        static_cast<double>(sampled.trialsPerPhase());
    for (std::size_t i = 0; i < mean_s.size(); ++i) {
        const double mu_s = mean_s[i] / n;
        const double mu_b = mean_b[i] / n;
        const double var_s = std::max(m2_s[i] / n - mu_s * mu_s, 0.0);
        const double var_b = std::max(m2_b[i] / n - mu_b * mu_b, 0.0);
        // 5-sigma two-sample bound on the difference of means, with a
        // 3*sigma/sqrt(trials) floor (one trial's worth of APC
        // resolution) so zero-variance saturated bins don't demand
        // exact equality.
        const double tol = 5.0 * std::sqrt((var_s + var_b) / n) +
            3.0 * sigma / std::sqrt(trials * n);
        EXPECT_NEAR(mu_s, mu_b, tol) << "bin " << i;
    }
}

TEST(ITdr, BinomialModelFallsBackWhenIneligible)
{
    // Each condition the analytic decomposition cannot serve degrades
    // the Binomial request to the sampled engine, which still runs
    // every trial, and the instrument's one fallback event names it.
    const auto line = testLine();
    ItdrConfig base;
    base.trialsPerPhase = 44;
    base.strobeModel = StrobeModel::Binomial;
    ItdrConfig jitter = base;
    jitter.pll.jitterRms = 2e-12;
    ItdrConfig data = base;
    data.triggerMode = TriggerMode::DataLane;
    ItdrConfig metastable = base;
    metastable.comparator.metastableBand = 0.1e-3;
    ItdrConfig saturating = base;
    saturating.counterWidthBits = 5;  // holds 31 of 44 trials
    struct Case
    {
        const char *reason;
        ItdrConfig cfg;
        bool extraNoise;
    };
    const Case cases[] = {
        {"jitter", jitter, false},
        {"extra-noise", base, true},
        {"data-triggers", data, false},
        {"metastable-band", metastable, false},
        {"counter-saturation", saturating, false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.reason);
        Telemetry telemetry;
        ITdr itdr(c.cfg, Rng(53));
        itdr.attachTelemetry(&telemetry, "itdr.t");
        GaussianNoise extra(0.2e-3, Rng(55));
        for (int i = 0; i < 2; ++i) {
            const IipMeasurement m =
                itdr.measure(line, c.extraNoise ? &extra : nullptr);
            EXPECT_EQ(m.iip.size(), itdr.phaseBins());
            EXPECT_EQ(m.triggers,
                      static_cast<uint64_t>(itdr.phaseBins()) *
                          itdr.trialsPerPhase());
        }
        EXPECT_EQ(telemetry.registry().counterValue(
                      "itdr.t.engine.fallbacks"),
                  2u);
        std::vector<std::string> reasons;
        for (const TelemetryEvent &e : telemetry.events().sorted()) {
            if (e.kind == "itdr.fallback")
                reasons.push_back(e.detail);
        }
        EXPECT_EQ(reasons, std::vector<std::string>{c.reason});
    }
}

TEST(ITdr, BinomialModelConvergesToIdealIip)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 440;
    cfg.strobeModel = StrobeModel::Binomial;
    ITdr itdr(cfg, Rng(57));
    const auto line = testLine();
    const Waveform ideal = itdr.idealIip(line);
    const IipMeasurement m = itdr.measure(line);
    ASSERT_EQ(m.iip.size(), ideal.size());
    double err = 0.0;
    for (std::size_t i = 0; i < ideal.size(); ++i)
        err += (m.iip[i] - ideal[i]) * (m.iip[i] - ideal[i]);
    err = std::sqrt(err / static_cast<double>(ideal.size()));
    EXPECT_LT(err, cfg.comparator.noiseSigma);
    EXPECT_GT(normalizedInnerProduct(m.iip, ideal), 0.97);
}

TEST(ITdr, LoadEchoVisibleAtRoundTripTime)
{
    // A strongly mismatched load must show up at the round-trip time
    // in the reconstruction — the feature Fig. 9(b) rides on.
    ItdrConfig cfg;
    cfg.trialsPerPhase = 220;
    ITdr itdr(cfg, Rng(15));
    auto line = testLine(21, 0.1);
    line.setLoadImpedance(70.0);
    const IipMeasurement m = itdr.measure(line);
    const std::size_t peak = m.iip.peakIndex();
    const double t_peak = m.iip.timeAt(peak);
    const double rt = line.roundTripDelay();
    EXPECT_NEAR(t_peak, rt + 1.5 * itdr.edge().duration(), 0.15 * rt);
}

TEST(ITdr, IdealIipMatchesCleanTraceSamples)
{
    ItdrConfig cfg;
    ITdr itdr(cfg, Rng(17));
    const auto line = testLine();
    const Waveform ideal = itdr.idealIip(line);
    const Waveform trace = itdr.cleanDetectorTrace(line);
    for (std::size_t i = 0; i < ideal.size(); i += 37)
        EXPECT_NEAR(ideal[i], trace.valueAt(ideal.timeAt(i)), 1e-12);
}

TEST(ITdr, LatticeBackendAgreesWithBorn)
{
    ItdrConfig born_cfg;
    ItdrConfig lat_cfg;
    lat_cfg.model = ReflectionModel::Lattice;
    ITdr born(born_cfg, Rng(19)), lattice(lat_cfg, Rng(19));
    const auto line = testLine(5);
    const Waveform a = born.idealIip(line);
    const Waveform b = lattice.idealIip(line);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(normalizedInnerProduct(a, b), 0.99);
}

TEST(ITdr, ZeroTrialsRejected)
{
    ItdrConfig bad;
    bad.trialsPerPhase = 0;
    EXPECT_DEATH(ITdr(bad, Rng(21)), "trialsPerPhase");
}

/** Bit-for-bit equality of two measurements' reconstructions and
 *  cost accounting. */
::testing::AssertionResult
sameBytes(const IipMeasurement &a, const IipMeasurement &b)
{
    if (a.iip.size() != b.iip.size() || a.iip.dt() != b.iip.dt())
        return ::testing::AssertionFailure() << "bin grids differ";
    if (a.busCycles != b.busCycles || a.triggers != b.triggers)
        return ::testing::AssertionFailure() << "accounting differs";
    for (std::size_t i = 0; i < a.iip.size(); ++i) {
        const double va = a.iip[i];
        const double vb = b.iip[i];
        if (std::memcmp(&va, &vb, sizeof(double)) != 0) {
            return ::testing::AssertionFailure()
                << "bin " << i << ": " << va << " vs " << vb;
        }
    }
    return ::testing::AssertionSuccess();
}

const StrobeModel kEngines[] = {StrobeModel::Sampled,
                                StrobeModel::Binomial};

/** A configuration with a reconstruction sigma no other test uses, so
 *  its plan is built by these instruments, not found resident. */
ItdrConfig
freshPlanConfig(StrobeModel engine, double sigma)
{
    ItdrConfig cfg;
    cfg.strobeModel = engine;
    cfg.assumedNoiseSigma = sigma;
    return cfg;
}

TEST(ITdrPlan, ConcurrentFirstMeasuresShareOneBuildAndMatchSerial)
{
    const auto line = testLine(3);
    ThreadPool pool(4);
    constexpr std::size_t n = 8;
    double sigma = 0.517e-3;
    for (StrobeModel engine : kEngines) {
        const ItdrConfig cfg = freshPlanConfig(engine, sigma);
        sigma += 0.01e-3;
        std::vector<std::unique_ptr<ITdr>> pooled;
        for (std::size_t i = 0; i < n; ++i)
            pooled.push_back(std::make_unique<ITdr>(cfg, Rng(100 + i)));
        std::vector<IipMeasurement> concurrent(n);
        pool.parallelFor(n, [&](std::size_t i) {
            concurrent[i] = pooled[i]->measure(line);
        });
        // Every first measure waited for the one build of the key.
        ASSERT_NE(pooled[0]->reconstructionPlan(), nullptr);
        for (std::size_t i = 1; i < n; ++i) {
            EXPECT_EQ(pooled[i]->reconstructionPlan().get(),
                      pooled[0]->reconstructionPlan().get())
                << "instrument " << i;
        }
        for (std::size_t i = 0; i < n; ++i) {
            ITdr serial(cfg, Rng(100 + i));
            EXPECT_TRUE(sameBytes(serial.measure(line), concurrent[i]))
                << "instrument " << i;
        }
    }
}

TEST(ITdrPlan, RecalibrateLeavesSiblingsUntouched)
{
    const auto line = testLine(4);
    for (StrobeModel engine : kEngines) {
        ItdrConfig cfg;
        cfg.strobeModel = engine;
        ITdr recalibrated(cfg, Rng(200));
        ITdr sibling(cfg, Rng(201));
        recalibrated.measure(line);
        const IipMeasurement before = sibling.measure(line);
        const auto shared = sibling.reconstructionPlan();
        ASSERT_EQ(recalibrated.reconstructionPlan(), shared);

        ASSERT_TRUE(recalibrated.recalibrate());
        EXPECT_EQ(sibling.reconstructionPlan(), shared);
        if (recalibrated.effectiveSigma() != sibling.effectiveSigma()) {
            EXPECT_NE(recalibrated.reconstructionPlan(), shared);
        }
        const IipMeasurement after = sibling.measure(line);

        // A fresh instrument on the sibling's stream replays both.
        ITdr fresh(cfg, Rng(201));
        EXPECT_TRUE(sameBytes(fresh.measure(line), before));
        EXPECT_TRUE(sameBytes(fresh.measure(line), after));
    }
}

TEST(ITdrPlan, PlansDifferingInOneInputStayApart)
{
    const auto line = testLine(6);
    for (StrobeModel engine : kEngines) {
        ItdrConfig x;
        x.strobeModel = engine;
        ItdrConfig by_sigma = x;
        by_sigma.assumedNoiseSigma = 0.6e-3;
        ItdrConfig by_width = x;
        by_width.counterWidthBits = 10;  // still above the trial count
        for (const ItdrConfig &y : {by_sigma, by_width}) {
            IipMeasurement x_first, x_again;
            std::shared_ptr<const ReconstructionPlan> x_plan, y_plan;
            {
                ITdr itdr(x, Rng(300));
                x_first = itdr.measure(line);
                x_plan = itdr.reconstructionPlan();
            }
            {
                ITdr itdr(y, Rng(300));
                itdr.measure(line);
                y_plan = itdr.reconstructionPlan();
            }
            {
                ITdr itdr(x, Rng(300));
                x_again = itdr.measure(line);
            }
            EXPECT_NE(x_plan, y_plan);
            EXPECT_TRUE(sameBytes(x_first, x_again));
        }
    }
}

TEST(ITdrPlan, SampledAndBinomialShareOnePlan)
{
    // The plan belongs to the instrument design, whichever strobe
    // engine measures with it.
    const auto line = testLine(10);
    ITdr sampled(freshPlanConfig(StrobeModel::Sampled, 0.553e-3),
                 Rng(600));
    ITdr binomial(freshPlanConfig(StrobeModel::Binomial, 0.553e-3),
                  Rng(601));
    sampled.measure(line);
    binomial.measure(line);
    ASSERT_NE(sampled.reconstructionPlan(), nullptr);
    EXPECT_EQ(sampled.reconstructionPlan(),
              binomial.reconstructionPlan());
}

/** Measure once with `count` configurations that differ from `cfg`
 *  only in sigma, each on a new plan. */
void
churnPlans(const ItdrConfig &cfg, const TransmissionLine &line,
           int count)
{
    for (int i = 1; i <= count; ++i) {
        ItdrConfig other = cfg;
        other.assumedNoiseSigma =
            cfg.assumedNoiseSigma * (1.0 + 0.01 * static_cast<double>(i));
        ITdr itdr(other, Rng(402));
        itdr.measure(line);
    }
}

TEST(ITdrPlan, RecentPlansOutliveTheirInstrumentsUpToAFixedCount)
{
    const auto line = testLine(7);
    ItdrConfig cfg = freshPlanConfig(StrobeModel::Binomial, 0.541e-3);
    cfg.captureWindow = 40.0 * cfg.pll.phaseStep;  // cheap plans
    std::weak_ptr<const ReconstructionPlan> kept;
    {
        ITdr first(cfg, Rng(400));
        first.measure(line);
        kept = first.reconstructionPlan();
    }
    // No instrument holds the plan, yet the next one finds it.
    ASSERT_FALSE(kept.expired());
    {
        ITdr again(cfg, Rng(401));
        again.measure(line);
        EXPECT_EQ(again.reconstructionPlan(), kept.lock());
    }
    // Retention is bounded: enough newer plans push it out.
    churnPlans(cfg, line, 32);
    EXPECT_TRUE(kept.expired());
}

TEST(ITdrPlan, HeldPlansOutliveRetentionChurn)
{
    const auto line = testLine(8);
    ItdrConfig cfg = freshPlanConfig(StrobeModel::Sampled, 0.547e-3);
    cfg.captureWindow = 40.0 * cfg.pll.phaseStep;
    ITdr holder(cfg, Rng(500));
    holder.measure(line);
    churnPlans(cfg, line, 32);
    ITdr later(cfg, Rng(501));
    later.measure(line);
    EXPECT_EQ(later.reconstructionPlan(), holder.reconstructionPlan());
}

/** One FNV-1a 64 step over the bytes of `value`. */
template <typename T>
uint64_t
fnv1a(uint64_t h, const T &value)
{
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct PinFrame
{
    const char *name;
    FaultPlan plan;
};

/** Every fault the sweep applies, alone or in the combination that
 *  draws two per-bin decisions from one stream. */
std::vector<PinFrame>
pinFrames()
{
    return {
        {"none", FaultPlan{}},
        {"dropout", FaultPlan{}.pllDropout(0, 0, 0.15)},
        {"flip", FaultPlan{}.counterBitFlip(0, 0, 0.35)},
        {"dropout+flip",
         FaultPlan{}.pllDropout(0, 0, 0.15).counterBitFlip(0, 0, 0.35)},
        {"stuck", FaultPlan{}.comparatorStuck(1, 2, true)},
        {"emi+offset",
         FaultPlan{}.emiBurst(0, 0, 2.5e-3).offsetDrift(0, 0, 1e-3)},
    };
}

/**
 * Pinned digests of measure() for each strobe engine under each
 * fault frame: FNV-1a over four consecutive measures' IIP bytes, bus
 * cycles, triggers and health record. DIVOT_SIMD is unset for the
 * test (and restored after it), so the binomial engine runs the
 * scalar kernel its configuration names on every build.
 */
class ITdrPins : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *prev = std::getenv("DIVOT_SIMD");
        hadEnv_ = prev != nullptr;
        if (hadEnv_)
            saved_ = prev;
        unsetenv("DIVOT_SIMD");
    }
    void TearDown() override
    {
        if (hadEnv_)
            setenv("DIVOT_SIMD", saved_.c_str(), 1);
        else
            unsetenv("DIVOT_SIMD");
    }

    static uint64_t digest(const ItdrConfig &cfg, const FaultPlan &plan)
    {
        const auto line = testLine(9);
        ITdr itdr(cfg, Rng(61));
        FaultInjector injector(plan, Rng(67));
        itdr.attachFaultInjector(&injector);
        uint64_t h = 0xcbf29ce484222325ULL;
        for (int i = 0; i < 4; ++i) {
            const IipMeasurement m = itdr.measure(line);
            for (std::size_t b = 0; b < m.iip.size(); ++b)
                h = fnv1a(h, m.iip[b]);
            h = fnv1a(h, m.busCycles);
            h = fnv1a(h, m.triggers);
            h = fnv1a(h, m.health.ok);
            h = fnv1a(h, m.health.saturatedBinFraction);
            h = fnv1a(h, m.health.nonFiniteBins);
            h = fnv1a(h, m.health.budgetOverrun);
        }
        return h;
    }

    /** `want` is in pinFrames() order. */
    static void expectPins(const ItdrConfig &cfg,
                           const std::vector<uint64_t> &want)
    {
        const std::vector<PinFrame> frames = pinFrames();
        ASSERT_EQ(want.size(), frames.size());
        for (std::size_t i = 0; i < frames.size(); ++i) {
            const uint64_t got = digest(cfg, frames[i].plan);
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, got);
            EXPECT_EQ(got, want[i]) << frames[i].name << ": " << hex;
        }
    }

  private:
    std::string saved_;
    bool hadEnv_ = false;
};

TEST_F(ITdrPins, SampledBatch)
{
    expectPins(ItdrConfig{},
               {0xc8cbced6cb3ca465ULL, 0xc6a28630fa3d08eeULL,
                0x69a73d7315ce8d13ULL, 0xa5631ff25e93ed0dULL,
                0xbe397a9b50cd5218ULL, 0xd642825c3db8a0c7ULL});
}

TEST_F(ITdrPins, SampledScalar)
{
    ItdrConfig cfg;
    cfg.batchedStrobes = false;
    expectPins(cfg,
               {0xc8cbced6cb3ca465ULL, 0xc6a28630fa3d08eeULL,
                0x69a73d7315ce8d13ULL, 0xa5631ff25e93ed0dULL,
                0xbe397a9b50cd5218ULL, 0xd642825c3db8a0c7ULL});
}

TEST_F(ITdrPins, SampledJitter)
{
    ItdrConfig cfg;
    cfg.pll.jitterRms = 2e-12;
    expectPins(cfg,
               {0xa7aa8c8bf7057709ULL, 0xe77113ac3f3d970bULL,
                0xad2d5dd270b0284bULL, 0x6f7376ad5a62651bULL,
                0x532baf0fed997e07ULL, 0xf43c1593daf73d5eULL});
}

TEST_F(ITdrPins, BinomialScalarKernel)
{
    ItdrConfig cfg;
    cfg.strobeModel = StrobeModel::Binomial;
    cfg.simd = SimdTarget::Scalar;
    expectPins(cfg,
               {0xa215346b7b37a920ULL, 0xf733c61d00ab8bd2ULL,
                0xb00b128e82a931e1ULL, 0x9849c63fc3f3ad24ULL,
                0x0509f75605d963b3ULL, 0x3f216ec9d248354dULL});
}

} // namespace
} // namespace divot
