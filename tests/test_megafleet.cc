/**
 * @file
 * Tests for MegaFleet, the bounded-memory fleet service over the
 * sharded EnrollmentDb: synthetic-channel determinism, thread-count
 * verdict identity (with and without storage faults), crash-reopen
 * enrollment, the no-junk guarantee when shard images are
 * destroyed under a running fleet, and the constructor's rejection
 * of NaN and infinite score bars and of zero counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fleet/megafleet.hh"
#include "store/io.hh"

namespace divot {
namespace {

std::string
freshDir(const char *name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    store::ensureDir(dir);
    for (unsigned s = 0; s < 16; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
    }
    store::removeFile(dir + "/journal.wal");
    return dir;
}

MegaFleetConfig
smallConfig(const std::string &dir, unsigned threads)
{
    MegaFleetConfig cfg;
    cfg.channels = 96;
    cfg.fingerprintBins = 8;
    cfg.probesPerTick = 16;
    cfg.threads = threads;
    cfg.store.directory = dir;
    cfg.store.shards = 8;
    cfg.store.overlayFlushRecords = 8;
    cfg.telemetry.enabled = false;
    return cfg;
}

TEST(MegaFleetDeathTest, NonFiniteOrOutOfRangeBarsAreFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // NaN fails every comparison, so each bar must reject it (and
    // ±inf) by name instead of fusing every tick to "not
    // authenticated".
    const std::string dir = freshDir("megafleet_bad_bars");
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        MegaFleetConfig cfg = smallConfig(dir, 1);
        cfg.similarityThreshold = bad;
        EXPECT_DEATH(MegaFleet(cfg, Rng(1)), "similarityThreshold")
            << bad;
        cfg = smallConfig(dir, 1);
        cfg.noiseSigma = bad;
        EXPECT_DEATH(MegaFleet(cfg, Rng(1)), "noiseSigma") << bad;
        cfg = smallConfig(dir, 1);
        cfg.tamperThreshold = bad;
        EXPECT_DEATH(MegaFleet(cfg, Rng(1)), "tamperThreshold") << bad;
    }
}

TEST(MegaFleetDeathTest, ZeroCountsAreFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A zero count is a configuration error, not a request for a
    // default: each dies naming its field.
    const std::string dir = freshDir("megafleet_zero_counts");
    MegaFleetConfig cfg = smallConfig(dir, 1);
    cfg.channels = 0;
    EXPECT_DEATH(MegaFleet(cfg, Rng(1)), "channels");
    cfg = smallConfig(dir, 1);
    cfg.fingerprintBins = 0;
    EXPECT_DEATH(MegaFleet(cfg, Rng(1)), "fingerprintBins");
    cfg = smallConfig(dir, 1);
    cfg.probesPerTick = 0;
    EXPECT_DEATH(MegaFleet(cfg, Rng(1)), "probesPerTick");
    cfg = smallConfig(dir, 1);
    cfg.instruments = 0;
    EXPECT_DEATH(MegaFleet(cfg, Rng(1)), "instruments");
}

TEST(MegaFleet, EnrollsAndMonitorsClean)
{
    const std::string dir = freshDir("mega_clean");
    MegaFleet fleet(smallConfig(dir, 1), Rng(7));
    EXPECT_EQ(fleet.enrollAll(), 96u);

    const MegaFleetReport report = fleet.run(6);
    EXPECT_EQ(report.ticks, 6u);
    EXPECT_EQ(report.probes, 6u * 16u);
    EXPECT_EQ(report.pendingReenroll, 0u);
    EXPECT_TRUE(report.lastTrusted);
    EXPECT_GE(report.lastFusedSimilarity, 0.99);
    EXPECT_GT(report.peakResidentBytes, 0u);

    // Bounded memory: the peak resident footprint covers one shard
    // image plus one probe batch, not the whole fleet.
    std::size_t allShards = 0;
    for (unsigned s = 0; s < 8; ++s) {
        const int64_t size = store::fileSize(fleet.db().shardPath(s));
        if (size > 0)
            allShards += static_cast<std::size_t>(size);
    }
    EXPECT_LT(report.peakResidentBytes, allShards);
}

TEST(MegaFleet, SyntheticEnrollmentIsAPureFunctionOfSeed)
{
    const std::string dirA = freshDir("mega_det_a");
    const std::string dirB = freshDir("mega_det_b");
    MegaFleet a(smallConfig(dirA, 1), Rng(11));
    MegaFleet b(smallConfig(dirB, 4), Rng(11));
    for (std::size_t i : {std::size_t(0), std::size_t(17),
                          std::size_t(95)})
        EXPECT_EQ(a.syntheticEnrollment(i), b.syntheticEnrollment(i));
    MegaFleet c(smallConfig(freshDir("mega_det_c"), 1), Rng(12));
    EXPECT_NE(a.syntheticEnrollment(0), c.syntheticEnrollment(0));
}

TEST(MegaFleet, VerdictDigestIsThreadInvariant)
{
    const std::string dirA = freshDir("mega_serial");
    const std::string dirB = freshDir("mega_pooled");
    MegaFleet serial(smallConfig(dirA, 1), Rng(21));
    MegaFleet pooled(smallConfig(dirB, 0), Rng(21));
    ASSERT_EQ(serial.enrollAll(), 96u);
    ASSERT_EQ(pooled.enrollAll(), 96u);
    const MegaFleetReport a = serial.run(8);
    const MegaFleetReport b = pooled.run(8);
    EXPECT_EQ(a.verdictDigest, b.verdictDigest);
    EXPECT_NE(a.verdictDigest, 0u);
}

TEST(MegaFleet, SurvivesPowerCutsDuringEnrollment)
{
    FaultPlan plan;
    plan.storageCrash(20, StorageCrashPoint::AfterJournal)
        .storageCrash(55, StorageCrashPoint::BeforeCommit);
    const FaultInjector injector(plan, Rng(3));

    const std::string dirA = freshDir("mega_crash_serial");
    MegaFleet serial(smallConfig(dirA, 1), Rng(33));
    serial.attachFaultInjector(&injector);
    EXPECT_EQ(serial.enrollAll(), 96u);
    EXPECT_GE(serial.report().crashRecoveries, 2u);
    const MegaFleetReport a = serial.run(6);
    EXPECT_EQ(a.pendingReenroll, 0u); // every record recovered
    EXPECT_TRUE(a.lastTrusted);

    // The faulted run is thread-invariant too.
    const std::string dirB = freshDir("mega_crash_pooled");
    MegaFleet pooled(smallConfig(dirB, 0), Rng(33));
    pooled.attachFaultInjector(&injector);
    EXPECT_EQ(pooled.enrollAll(), 96u);
    const MegaFleetReport b = pooled.run(6);
    EXPECT_EQ(a.verdictDigest, b.verdictDigest);
}

TEST(MegaFleet, DestroyedShardFencesItsChannelsNeverJunk)
{
    const std::string dir = freshDir("mega_fence");
    MegaFleetConfig cfg = smallConfig(dir, 1);
    cfg.probesPerTick = 96; // every tick touches the whole fleet
    MegaFleet fleet(cfg, Rng(5));
    ASSERT_EQ(fleet.enrollAll(), 96u);

    // Obliterate one shard image: its channels are unrecoverable.
    const std::string shard0 = fleet.db().shardPath(0);
    ASSERT_GT(store::fileSize(shard0), 0);
    ASSERT_TRUE(store::truncateFile(shard0, 10));

    const MegaFleetVerdict first = fleet.tick();
    EXPECT_GT(first.pendingReenrollWires, 0u);
    EXPECT_LT(first.contributingWires, 96u);
    EXPECT_EQ(first.contributingWires + first.pendingReenrollWires,
              96u);
    // The surviving wires keep the bus authenticated; nothing junk
    // was fused in.
    EXPECT_TRUE(first.busAuthenticated);
    EXPECT_GE(first.fusedSimilarity, 0.99);

    // Fenced channels stay out of later rounds.
    const MegaFleetVerdict second = fleet.tick();
    EXPECT_EQ(second.pendingReenrollWires, 0u);
    EXPECT_EQ(second.contributingWires, first.contributingWires);
    EXPECT_TRUE(second.busAuthenticated);
}

} // namespace
} // namespace divot
