/**
 * @file
 * Reproducibility contract: every stochastic layer is exactly
 * deterministic under a seed and decoupled across forked streams —
 * the property that makes the paper-figure benches regenerable.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/divot_system.hh"
#include "fault/campaign.hh"
#include "fingerprint/study.hh"
#include "itdr/itdr.hh"
#include "telemetry/telemetry.hh"
#include "txline/manufacturing.hh"

namespace divot {
namespace {

TEST(Determinism, ItdrMeasurementBitExact)
{
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(1));
    auto z = fab.drawImpedanceProfile(0.1, 0.5e-3);
    TransmissionLine line(std::move(z), 0.5e-3, params.velocity,
                          50.0, 50.2, params.lossNeperPerMeter, "d");
    ITdr a(ItdrConfig{}, Rng(42));
    ITdr b(ItdrConfig{}, Rng(42));
    const IipMeasurement ma = a.measure(line);
    const IipMeasurement mb = b.measure(line);
    ASSERT_EQ(ma.iip.size(), mb.iip.size());
    for (std::size_t i = 0; i < ma.iip.size(); ++i)
        EXPECT_DOUBLE_EQ(ma.iip[i], mb.iip[i]);
    EXPECT_EQ(ma.busCycles, mb.busCycles);
}

TEST(Determinism, StudyScoresBitExact)
{
    StudyConfig cfg;
    cfg.lines = 2;
    cfg.enrollReps = 2;
    cfg.genuinePerLine = 4;
    cfg.impostorPerPair = 2;
    const StudyResult a = GenuineImpostorStudy(cfg, Rng(7)).run();
    const StudyResult b = GenuineImpostorStudy(cfg, Rng(7)).run();
    ASSERT_EQ(a.genuine.size(), b.genuine.size());
    for (std::size_t i = 0; i < a.genuine.size(); ++i)
        EXPECT_DOUBLE_EQ(a.genuine[i], b.genuine[i]);
    EXPECT_DOUBLE_EQ(a.roc.eer, b.roc.eer);
}

/** Byte equality of two score vectors (EXPECT_DOUBLE_EQ would allow
 *  4 ULPs). */
bool
sameBytes(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool
sameBytes(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Determinism, ParallelStudyBitIdenticalToSerial)
{
    // The campaign's determinism contract: thread count must not
    // change a single bit of the result. Serial (threads = 1) runs
    // each lane's measurements inline, lane after lane; a pool hands
    // single measurements of the 6 lanes (3 lines x 2 wires) to
    // whichever worker is free, 6 over 4 or 7 workers alike.
    StudyConfig cfg;
    cfg.lines = 3;
    cfg.wires = 2;
    cfg.enrollReps = 2;
    cfg.genuinePerLine = 3;
    cfg.impostorPerPair = 2;
    cfg.environment.temperatureSwingHiC = 60.0;  // env rng draws
    cfg.environment.vibrationStrain = 1e-3;      // schedule use

    auto runAt = [&](unsigned threads, std::string &exported) {
        Telemetry tm;
        StudyConfig c = cfg;
        c.threads = threads;
        c.telemetry = &tm;
        StudyResult r = GenuineImpostorStudy(c, Rng(11)).run();
        exported = tm.exportJson();
        return r;
    };
    std::string serialExport;
    const StudyResult a = runAt(1, serialExport);
    ASSERT_FALSE(a.genuine.empty());
    ASSERT_FALSE(a.impostor.empty());
    ASSERT_NE(serialExport.find("study.bus_cycles"), std::string::npos);

    for (const unsigned threads : {2u, 3u, 4u, 7u}) {
        std::string exported;
        const StudyResult b = runAt(threads, exported);
        EXPECT_TRUE(sameBytes(a.genuine, b.genuine)) << threads;
        EXPECT_TRUE(sameBytes(a.impostor, b.impostor)) << threads;
        EXPECT_EQ(a.totalBusCycles, b.totalBusCycles) << threads;
        EXPECT_TRUE(sameBytes(a.roc.eer, b.roc.eer)) << threads;
        EXPECT_TRUE(sameBytes(a.decidability, b.decidability)) << threads;
        EXPECT_TRUE(sameBytes(a.fittedEer, b.fittedEer)) << threads;
        EXPECT_EQ(serialExport, exported) << threads;
    }
}

TEST(Determinism, FaultedCampaignBitIdenticalAcrossThreads)
{
    // The fault campaign draws from three coupled stochastic layers
    // (fabrication, instrument noise, fault frames); all of them fork
    // stably per cell, so a faulted matrix must reproduce bit-for-bit
    // at any thread count.
    FaultCampaignConfig serial_cfg;
    serial_cfg.rounds = 6;
    serial_cfg.attackRound = 2;
    serial_cfg.enrollReps = 2;
    serial_cfg.threads = 1;
    FaultCampaignConfig parallel_cfg = serial_cfg;
    parallel_cfg.threads = 4;

    std::vector<FaultScenario> faults;
    faults.push_back({"none", FaultPlan{}});
    faults.push_back({"emi", FaultPlan{}.emiBurst(1, 2, 2.5e-3)});
    faults.push_back({"flip", FaultPlan{}.counterBitFlip(0, 0, 0.2)});
    const std::vector<CampaignAttack> attacks = {
        CampaignAttack::None, CampaignAttack::MagneticProbe};

    const auto a =
        FaultCampaign(serial_cfg, Rng(13)).run(faults, attacks);
    const auto b =
        FaultCampaign(parallel_cfg, Rng(13)).run(faults, attacks);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].detected, b[i].detected) << "cell " << i;
        EXPECT_EQ(a[i].detectionRound, b[i].detectionRound)
            << "cell " << i;
        EXPECT_EQ(a[i].falseAlarms, b[i].falseAlarms) << "cell " << i;
        EXPECT_EQ(a[i].suppressedAlarms, b[i].suppressedAlarms)
            << "cell " << i;
        EXPECT_EQ(a[i].unhealthyRounds, b[i].unhealthyRounds)
            << "cell " << i;
        EXPECT_EQ(a[i].retries, b[i].retries) << "cell " << i;
        EXPECT_EQ(a[i].authenticatedRounds, b[i].authenticatedRounds)
            << "cell " << i;
        EXPECT_EQ(a[i].finalState, b[i].finalState) << "cell " << i;
        EXPECT_DOUBLE_EQ(a[i].availability, b[i].availability)
            << "cell " << i;
    }
}

TEST(Determinism, StableForkIndependentOfDrawOrder)
{
    // forkStable must be a pure function of (state, tag): interleaved
    // draws or other forks on the parent change nothing.
    Rng a(123), b(123);
    Rng child_a = a.forkStable(42);
    b.forkStable(7);            // unrelated stable fork
    Rng child_b = b.forkStable(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(child_a.next(), child_b.next());

    // ...while distinct tags give distinct streams.
    Rng c(123);
    Rng other = c.forkStable(43);
    Rng same = c.forkStable(42);
    EXPECT_NE(other.next(), same.next());
}

TEST(Determinism, DifferentSeedsDifferentFabrication)
{
    DivotSystemConfig cfg;
    cfg.lineLength = 0.05;
    cfg.enrollReps = 2;
    DivotSystem a(cfg, Rng(1));
    DivotSystem b(cfg, Rng(2));
    bool any_diff = false;
    for (std::size_t i = 0; i < a.line().segments(); ++i) {
        if (a.line().impedanceAt(i) != b.line().impedanceAt(i))
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Determinism, MeasurementOrderIndependentOfOtherInstruments)
{
    // Creating and running an unrelated instrument must not perturb
    // another instrument's stream (fork isolation).
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(3));
    auto z = fab.drawImpedanceProfile(0.05, 0.5e-3);
    TransmissionLine line(std::move(z), 0.5e-3, params.velocity,
                          50.0, 50.2, params.lossNeperPerMeter, "i");

    Rng master1(99);
    ITdr lone(ItdrConfig{}, master1.fork(1));
    const IipMeasurement ma = lone.measure(line);

    Rng master2(99);
    ITdr first(ItdrConfig{}, master2.fork(1));
    ITdr noisy_neighbor(ItdrConfig{}, master2.fork(2));
    noisy_neighbor.measure(line);  // interleaved activity
    const IipMeasurement mb = first.measure(line);

    ASSERT_EQ(ma.iip.size(), mb.iip.size());
    for (std::size_t i = 0; i < ma.iip.size(); ++i)
        EXPECT_DOUBLE_EQ(ma.iip[i], mb.iip[i]);
}

} // namespace
} // namespace divot
