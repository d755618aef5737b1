/**
 * @file
 * Tests for the bus-fleet layer: BusChannel extraction, the
 * shared-iTDR ChannelScheduler (round-robin and risk-weighted
 * policies), fused FleetAuthenticator verdicts and its threshold
 * validation, and the determinism contract — fused verdicts and
 * per-channel measurement streams must be bit-identical at any thread
 * count, including with a fault plan active on one channel. Also the
 * channel phase between ticks and the operator re-enrollment path out
 * of PendingReenroll under both policies — including a persist that
 * dies on an injected storage fault.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/divot_system.hh"
#include "fault/fault.hh"
#include "fleet/channel_scheduler.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"
#include "txline/tamper.hh"

namespace divot {
namespace {

BusChannelConfig
quickChannel(std::size_t index)
{
    BusChannelConfig cfg;
    cfg.lineLength = 0.1;  // keep tests fast
    cfg.enrollReps = 8;
    cfg.name = "wire" + std::to_string(index);
    return cfg;
}

ChannelScheduler
makeFleet(std::size_t channels, unsigned threads, SchedulerPolicy policy,
          std::size_t instruments, uint64_t seed = 42)
{
    FleetConfig cfg;
    cfg.instruments = instruments;
    cfg.policy = policy;
    cfg.threads = threads;
    ChannelScheduler fleet(cfg, Rng(seed));
    for (std::size_t c = 0; c < channels; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();
    return fleet;
}

/** Everything observable about a run, for bit-exact comparison. */
struct FleetTrace
{
    std::vector<std::size_t> probeChannels;
    std::vector<double> probeSimilarities;
    std::vector<double> probeErrors;
    std::vector<double> fusedSimilarities;
    std::vector<bool> trusted;

    bool operator==(const FleetTrace &) const = default;
};

FleetTrace
runFleet(ChannelScheduler &fleet, std::size_t ticks,
         FaultInjector *injector = nullptr, std::size_t fault_wire = 0)
{
    if (injector != nullptr)
        fleet.channel(fault_wire).attachFaultInjector(injector);
    FleetTrace trace;
    for (std::size_t t = 0; t < ticks; ++t) {
        const FleetRound round = fleet.tick();
        for (const ChannelProbe &probe : round.probes) {
            trace.probeChannels.push_back(probe.channel);
            trace.probeSimilarities.push_back(probe.verdict.similarity);
            trace.probeErrors.push_back(probe.verdict.peakError);
        }
        trace.fusedSimilarities.push_back(round.fused.fusedSimilarity);
        trace.trusted.push_back(round.fused.busTrusted);
    }
    return trace;
}

TEST(FleetScheduler, CleanFleetFusesToTrustedBus)
{
    ChannelScheduler fleet =
        makeFleet(4, 1, SchedulerPolicy::RoundRobin, 4);
    const FleetRound last = fleet.run(6);
    EXPECT_TRUE(last.fused.busAuthenticated);
    EXPECT_FALSE(last.fused.tamperAlarm);
    EXPECT_TRUE(last.fused.busTrusted);
    EXPECT_EQ(last.fused.channels, 4u);
    EXPECT_EQ(last.fused.channelsObserved, 4u);
    EXPECT_EQ(last.fused.contributingWires, 4u);
    EXPECT_EQ(last.fused.quarantinedWires, 0u);
    EXPECT_GT(last.fused.fusedSimilarity,
              fleet.config().similarityThreshold);
    // Every channel probed every tick with a full instrument pool.
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(fleet.probeCount(c), 6u);
    // Every probe held its instrument for its channel's round: the
    // utilization is those busy seconds over the pool's capacity.
    double busy = 0.0;
    uint64_t probes = 0;
    for (std::size_t c = 0; c < 4; ++c) {
        busy += static_cast<double>(fleet.probeCount(c)) *
                fleet.channel(c).roundDuration();
        probes += fleet.probeCount(c);
    }
    EXPECT_EQ(probes,
              fleet.telemetry().registry().counterValue("fleet.probes"));
    EXPECT_DOUBLE_EQ(fleet.instrumentUtilization(),
                     busy / (4.0 * 6.0 * fleet.tickDuration()));
    EXPECT_GT(fleet.instrumentUtilization(), 0.0);
}

TEST(FleetScheduler, BoundedPoolProbesSubsetPerTick)
{
    ChannelScheduler fleet =
        makeFleet(4, 1, SchedulerPolicy::RoundRobin, 2);
    uint64_t probes = 0;
    for (std::size_t t = 0; t < 8; ++t) {
        const FleetRound round = fleet.tick();
        EXPECT_EQ(round.probes.size(), 2u);
        probes += round.probes.size();
    }
    // Round-robin shares the pool evenly.
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(fleet.probeCount(c), probes / 4);
}

TEST(FleetScheduler, BitIdenticalAcrossThreadCounts)
{
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::RoundRobin, SchedulerPolicy::RiskWeighted}) {
        ChannelScheduler f1 = makeFleet(6, 1, policy, 3);
        ChannelScheduler f2 = makeFleet(6, 2, policy, 3);
        ChannelScheduler f8 = makeFleet(6, 8, policy, 3);
        const FleetTrace t1 = runFleet(f1, 10);
        const FleetTrace t2 = runFleet(f2, 10);
        const FleetTrace t8 = runFleet(f8, 10);
        EXPECT_EQ(t1, t2) << schedulerPolicyName(policy);
        EXPECT_EQ(t1, t8) << schedulerPolicyName(policy);
    }
}

TEST(FleetScheduler, BinomialStrobeModelRunsFleetEndToEnd)
{
    // The analytic strobe engine plumbs through BusChannel and the
    // scheduler: a binomial fleet must fuse to a trusted bus and stay
    // bit-identical across thread counts (lane seeding is forkStable,
    // so the shorter binomial draw streams are just as deterministic).
    auto makeBinomialFleet = [](unsigned threads) {
        FleetConfig cfg;
        cfg.instruments = 3;
        cfg.policy = SchedulerPolicy::RoundRobin;
        cfg.threads = threads;
        ChannelScheduler fleet(cfg, Rng(42));
        for (std::size_t c = 0; c < 4; ++c) {
            BusChannelConfig ch = quickChannel(c);
            ch.itdr.strobeModel = StrobeModel::Binomial;
            fleet.addChannel(ch);
        }
        fleet.calibrateAll();
        return fleet;
    };
    ChannelScheduler f1 = makeBinomialFleet(1);
    ChannelScheduler f4 = makeBinomialFleet(4);
    const FleetTrace t1 = runFleet(f1, 8);
    const FleetTrace t4 = runFleet(f4, 8);
    EXPECT_EQ(t1, t4);

    ChannelScheduler verdict_fleet = makeBinomialFleet(1);
    const FleetRound last = verdict_fleet.run(6);
    EXPECT_TRUE(last.fused.busTrusted);
    EXPECT_GT(last.fused.fusedSimilarity,
              verdict_fleet.config().similarityThreshold);
}

TEST(FleetScheduler, BitIdenticalWithFaultPlanActive)
{
    // Instrument faults on one channel must not break the
    // determinism contract: the injector draws from its own stable
    // stream keyed by measurement index.
    const FaultPlan plan =
        FaultPlan{}.emiBurst(2, 2, 2.5e-3, 25e6).budgetOverrun(6, 3, 2.0);
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::RoundRobin, SchedulerPolicy::RiskWeighted}) {
        ChannelScheduler f1 = makeFleet(4, 1, policy, 2);
        ChannelScheduler f8 = makeFleet(4, 8, policy, 2);
        FaultInjector inj1(plan, Rng(7).forkStable(1));
        FaultInjector inj8(plan, Rng(7).forkStable(1));
        const FleetTrace t1 = runFleet(f1, 12, &inj1, 1);
        const FleetTrace t8 = runFleet(f8, 12, &inj8, 1);
        EXPECT_EQ(t1, t8) << schedulerPolicyName(policy);
    }
}

TEST(FleetScheduler, RiskWeightedProbesSuspectChannelMoreOften)
{
    // Channel 1's instrument is persistently overrunning its budget,
    // so it descends the degradation ladder; the risk-weighted policy
    // should spend the single shared instrument on it far more often
    // than on its healthy siblings.
    const FaultPlan plan = FaultPlan{}.budgetOverrun(0, 200, 2.0);

    ChannelScheduler weighted =
        makeFleet(4, 1, SchedulerPolicy::RiskWeighted, 1);
    FaultInjector inj_w(plan, Rng(9));
    runFleet(weighted, 32, &inj_w, 1);

    ChannelScheduler robin =
        makeFleet(4, 1, SchedulerPolicy::RoundRobin, 1);
    FaultInjector inj_r(plan, Rng(9));
    runFleet(robin, 32, &inj_r, 1);

    // Round-robin ignores state: even split.
    EXPECT_EQ(robin.probeCount(1), 8u);
    // Risk-weighted re-probes the suspect channel more often than the
    // fixed rotation would, at the expense of healthy channels.
    EXPECT_GT(weighted.probeCount(1), robin.probeCount(1));
    EXPECT_GT(weighted.probeCount(1), weighted.probeCount(3));
    // Healthy channels still get probed eventually (staleness grows).
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_GT(weighted.probeCount(c), 0u);
}

TEST(FleetScheduler, SingleTappedWireTripsFusedAlarm)
{
    ChannelScheduler fleet =
        makeFleet(4, 2, SchedulerPolicy::RoundRobin, 4);
    fleet.run(2);
    fleet.channel(2).stageAttack(MagneticProbe(0.5));
    FleetRound last;
    for (std::size_t t = 0; t < 16 && !last.fused.tamperAlarm; ++t)
        last = fleet.tick();
    EXPECT_TRUE(last.fused.tamperAlarm);
    EXPECT_FALSE(last.fused.busTrusted);
    EXPECT_GE(last.fused.tamperedWires, 1u);
    EXPECT_EQ(fleet.channel(2).state(), AuthState::TamperAlert);
    EXPECT_EQ(fleet.channel(0).state(), AuthState::Monitoring);
}

TEST(FleetScheduler, CacheStatsAggregateAcrossChannels)
{
    ChannelScheduler fleet =
        makeFleet(3, 1, SchedulerPolicy::RoundRobin, 3);
    fleet.run(4);
    const FleetCacheStats stats = fleet.cacheStats();
    ASSERT_EQ(stats.perChannel.size(), 3u);
    uint64_t hits = 0, misses = 0, evictions = 0;
    for (const ChannelCacheStats &cs : stats.perChannel) {
        hits += cs.hits;
        misses += cs.misses;
        evictions += cs.evictions;
    }
    EXPECT_EQ(stats.totals.hits, hits);
    EXPECT_EQ(stats.totals.misses, misses);
    EXPECT_EQ(stats.totals.evictions, evictions);
    // Enrollment + steady monitoring of an unchanged line reuses the
    // clean-trace entry heavily.
    EXPECT_GT(stats.totals.hits, 0u);
    EXPECT_GT(stats.totals.misses, 0u);
}

TEST(FleetAuthenticatorDeathTest, ThresholdOutsideOpenUnitIntervalIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // NaN fails every comparison, so it must die like any other value
    // outside (0, 1) instead of fusing every bus to "not
    // authenticated".
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, 1.0})
        EXPECT_DEATH(FleetAuthenticator(FusionConfig{}, bad, 1),
                     "similarity threshold")
            << bad;
}

TEST(FleetScheduler, FacadeMatchesStandaloneChannel)
{
    // DivotSystem is a thin facade over BusChannel: same config, same
    // seed, bit-identical verdict stream.
    DivotSystemConfig cfg = quickChannel(0);
    DivotSystem facade(cfg, Rng(11));
    BusChannel channel(cfg, Rng(11));
    facade.calibrate();
    channel.calibrate();
    for (int i = 0; i < 4; ++i) {
        const AuthVerdict a = facade.monitorOnce();
        const AuthVerdict b = channel.monitorOnce();
        EXPECT_EQ(a.similarity, b.similarity);
        EXPECT_EQ(a.peakError, b.peakError);
        EXPECT_EQ(a.authenticated, b.authenticated);
    }
    EXPECT_EQ(facade.elapsed(), channel.elapsed());
}

// ---------------------------------------------------------------------
// Channel phase between ticks
// ---------------------------------------------------------------------

BusChannelConfig
sizedChannel(std::size_t index, double line_length)
{
    BusChannelConfig cfg = quickChannel(index);
    cfg.lineLength = line_length;
    return cfg;
}

TEST(ReactorFleet, ChannelPhasesReturnToIdleBetweenTicks)
{
    FleetConfig cfg;
    cfg.instruments = 2;
    cfg.policy = SchedulerPolicy::RoundRobin;
    cfg.threads = 2;
    ChannelScheduler fleet(cfg, Rng(42));
    for (std::size_t c = 0; c < 3; ++c)
        fleet.addChannel(sizedChannel(c, 0.06 + 0.012 * c));
    fleet.calibrateAll();
    for (int t = 0; t < 4; ++t) {
        fleet.tick();
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(fleet.channelPhase(c), ChannelPhase::Idle);
    }
}

std::string
freshDbDir(const char *name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    store::ensureDir(dir);
    for (unsigned s = 0; s < 8; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
    }
    store::removeFile(dir + "/journal.wal");
    return dir;
}

store::EnrollmentDbConfig
dbConfig(const std::string &dir)
{
    store::EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    cfg.overlayFlushRecords = 2;
    return cfg;
}

// ---------------------------------------------------------------------
// Operator re-enrollment
// ---------------------------------------------------------------------

class ReenrollTest : public ::testing::TestWithParam<SchedulerPolicy>
{
};

TEST_P(ReenrollTest, FencedChannelRejoinsAfterReenroll)
{
    const SchedulerPolicy policy = GetParam();
    FleetConfig cfg;
    cfg.instruments = 1;
    cfg.policy = policy;
    cfg.threads = 1;
    ChannelScheduler fleet(cfg, Rng(42));
    for (std::size_t c = 0; c < 2; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();

    const std::string dir = freshDbDir(
        policy == SchedulerPolicy::RoundRobin ? "reenroll_rr"
                                              : "reenroll_rw");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1); // evict everything unpinned

    // Tick 0 probes wire0 and evicts wire1; losing wire1's durable
    // copy fences it on the next hydration attempt.
    fleet.tick();
    ASSERT_TRUE(db.erase("wire1"));
    fleet.tick();
    ASSERT_EQ(fleet.channel(1).state(), AuthState::PendingReenroll);
    ASSERT_EQ(fleet.channelPhase(1), ChannelPhase::Fenced);

    // PendingReenroll -> re-calibrate -> persist -> re-admission.
    const uint64_t generation = fleet.enrollmentGeneration(1);
    ASSERT_TRUE(fleet.reenrollChannel(1));
    EXPECT_EQ(fleet.enrollmentGeneration(1), generation + 1);
    EXPECT_NE(fleet.channel(1).state(), AuthState::PendingReenroll);
    EXPECT_EQ(fleet.channelPhase(1), ChannelPhase::Idle);
    store::EnrollmentRecord rec;
    EXPECT_EQ(db.get("wire1", rec), store::DbGetStatus::Ok);

    bool probed1 = false;
    for (int t = 0; t < 6; ++t) {
        const FleetRound round = fleet.tick();
        EXPECT_EQ(round.fused.pendingReenrollWires, 0u);
        for (const ChannelProbe &probe : round.probes)
            probed1 = probed1 || probe.channel == 1u;
    }
    EXPECT_TRUE(probed1);
}

INSTANTIATE_TEST_SUITE_P(
    BothPolicies, ReenrollTest,
    ::testing::Values(SchedulerPolicy::RoundRobin,
                      SchedulerPolicy::RiskWeighted));

TEST(ReenrollTest2, NoStoreAttachedReenrollStillRecalibrates)
{
    FleetConfig cfg;
    cfg.instruments = 2;
    cfg.threads = 1;
    ChannelScheduler fleet(cfg, Rng(42));
    fleet.addChannel(quickChannel(0));
    fleet.addChannel(quickChannel(1));
    fleet.calibrateAll();
    // Storeless fleets have no hydration failures, but the operator
    // entry point still re-calibrates: a fresh enrollment replaces
    // the old one, with nothing to persist.
    const std::vector<double> before =
        fleet.channel(1).authenticator().enrolled().raw().samples();
    EXPECT_TRUE(fleet.reenrollChannel(1));
    EXPECT_NE(fleet.channel(1).authenticator().enrolled().raw().samples(),
              before);
    EXPECT_EQ(fleet.enrollmentGeneration(1), 0u);
}

TEST(ReenrollTest2, FaultedPersistReportsFailureAndCountsFaultEvent)
{
    FleetConfig cfg;
    cfg.instruments = 1;
    cfg.threads = 1;
    ChannelScheduler fleet(cfg, Rng(42));
    for (std::size_t c = 0; c < 2; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();

    const std::string dir = freshDbDir("reenroll_faulted");
    store::EnrollmentDb db(dbConfig(dir));
    db.attachTelemetry(&fleet.telemetry());
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1);

    fleet.tick();
    ASSERT_TRUE(db.erase("wire1"));
    fleet.tick();
    ASSERT_EQ(fleet.channel(1).state(), AuthState::PendingReenroll);

    // The re-enrollment's own put crashes: a storage power cut at the
    // db's next IO event kills the handle mid-persist. The store
    // counts the crash; the durable generation does not move.
    FaultPlan plan;
    plan.storageCrash(db.ioEvents(), StorageCrashPoint::BeforeCommit);
    const FaultInjector injector(plan, Rng(99));
    db.attachFaultInjector(&injector);

    const uint64_t generation = fleet.enrollmentGeneration(1);
    const uint64_t crashes_before =
        fleet.telemetry().registry().counterValue("store.crashes");
    EXPECT_FALSE(fleet.reenrollChannel(1));
    EXPECT_EQ(fleet.telemetry().registry().counterValue("store.crashes"),
              crashes_before + 1);
    EXPECT_EQ(fleet.enrollmentGeneration(1), generation);
    EXPECT_FALSE(db.alive());
}

} // namespace
} // namespace divot
