/**
 * @file
 * Tests for the event-driven fleet core (DESIGN.md §15): the
 * Reactor's deterministic (vtime, seq) event order and instrument
 * accounting, the channel phase machine returning to Idle between
 * ticks, and the operator re-enrollment path out of PendingReenroll
 * under both policies — including a persist that dies on an injected
 * storage fault.
 */

#include <gtest/gtest.h>

#include <string>

#include "fault/fault.hh"
#include "fleet/channel_scheduler.hh"
#include "fleet/reactor.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"

namespace divot {
namespace {

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

TEST(Reactor, PopsInVirtualTimeOrder)
{
    Reactor reactor(1);
    reactor.schedule(ReactorEventType::FuseEpoch, 3.0);
    reactor.schedule(ReactorEventType::ProbeComplete, 1.0);
    reactor.schedule(ReactorEventType::HydrateRequest, 2.0);
    EXPECT_EQ(reactor.depth(), 3u);
    EXPECT_EQ(reactor.pop().type, ReactorEventType::ProbeComplete);
    EXPECT_EQ(reactor.pop().type, ReactorEventType::HydrateRequest);
    EXPECT_EQ(reactor.pop().type, ReactorEventType::FuseEpoch);
    EXPECT_TRUE(reactor.empty());
}

TEST(Reactor, TiesBreakOnScheduleOrder)
{
    Reactor reactor(1);
    for (std::size_t c = 0; c < 5; ++c)
        reactor.schedule(ReactorEventType::ProbeComplete, 1.0, c);
    for (std::size_t c = 0; c < 5; ++c) {
        const ReactorEvent event = reactor.pop();
        EXPECT_EQ(event.channel, c);
        EXPECT_EQ(event.seq, c);
    }
}

TEST(Reactor, SequenceNumbersSpanQueuedAndImmediateEvents)
{
    Reactor reactor(1);
    const uint64_t first =
        reactor.schedule(ReactorEventType::HydrateRequest, 0.0);
    const ReactorEvent imm = reactor.dispatchImmediate(
        ReactorEventType::RecalibrateRequest, 0.0, 3);
    const uint64_t last =
        reactor.schedule(ReactorEventType::FuseEpoch, 0.0);
    EXPECT_EQ(imm.seq, first + 1);
    EXPECT_EQ(last, imm.seq + 1);
    EXPECT_EQ(imm.channel, 3u);
    // Immediate events count as consumed without touching the queue.
    EXPECT_EQ(reactor.depth(), 2u);
    EXPECT_EQ(reactor.consumed(ReactorEventType::RecalibrateRequest),
              1u);
    reactor.pop();
    reactor.pop();
    EXPECT_EQ(reactor.consumedTotal(), 3u);
    EXPECT_EQ(reactor.queueHighWater(), 2u);
}

TEST(Reactor, InstrumentAccountingDrivesUtilization)
{
    Reactor reactor(2);
    EXPECT_EQ(reactor.freeInstruments(), 2u);
    reactor.acquireInstrument();
    reactor.acquireInstrument();
    EXPECT_EQ(reactor.freeInstruments(), 0u);
    reactor.releaseInstrument(1.0);
    reactor.releaseInstrument(0.5);
    EXPECT_EQ(reactor.freeInstruments(), 2u);
    EXPECT_DOUBLE_EQ(reactor.busySeconds(), 1.5);
    // busy 1.5 s over 2 instruments x 1 s of virtual time = 0.75.
    EXPECT_DOUBLE_EQ(reactor.utilization(1.0), 0.75);
    EXPECT_EQ(reactor.utilizationPerMille(1.0), 750);
    // Saturates at 1, and reads 0 before any time has elapsed.
    EXPECT_DOUBLE_EQ(reactor.utilization(0.5), 1.0);
    EXPECT_DOUBLE_EQ(reactor.utilization(0.0), 0.0);
}

TEST(ReactorDeathTest, InstrumentOverDispatchIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Reactor reactor(1);
    reactor.acquireInstrument();
    EXPECT_DEATH(reactor.acquireInstrument(), "over-dispatch");
}

// ---------------------------------------------------------------------
// Channel phase machine
// ---------------------------------------------------------------------

BusChannelConfig
quickChannel(std::size_t index, double line_length = 0.1)
{
    BusChannelConfig cfg;
    cfg.lineLength = line_length; // keep tests fast
    cfg.enrollReps = 8;
    cfg.name = "wire" + std::to_string(index);
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
        fleet.addChannel(quickChannel(c, 0.06 + 0.012 * c));
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
// Operator re-enrollment (RecalibrateRequest path)
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
    const uint64_t recalibrations_before =
        fleet.reactor().consumed(ReactorEventType::RecalibrateRequest);
    ASSERT_TRUE(fleet.reenrollChannel(1));
    EXPECT_EQ(
        fleet.reactor().consumed(ReactorEventType::RecalibrateRequest),
        recalibrations_before + 1);
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
    // entry point still re-calibrates and counts the event.
    EXPECT_TRUE(fleet.reenrollChannel(1));
    EXPECT_EQ(
        fleet.reactor().consumed(ReactorEventType::RecalibrateRequest),
        1u);
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
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1);

    fleet.tick();
    ASSERT_TRUE(db.erase("wire1"));
    fleet.tick();
    ASSERT_EQ(fleet.channel(1).state(), AuthState::PendingReenroll);

    // The re-enrollment's own put crashes: a storage power cut at the
    // db's next IO event kills the handle mid-persist.
    FaultPlan plan;
    plan.storageCrash(db.ioEvents(), StorageCrashPoint::BeforeCommit);
    const FaultInjector injector(plan, Rng(99));
    db.attachFaultInjector(&injector);

    const uint64_t faults_before =
        fleet.reactor().consumed(ReactorEventType::FaultEvent);
    EXPECT_FALSE(fleet.reenrollChannel(1));
    EXPECT_EQ(fleet.reactor().consumed(ReactorEventType::FaultEvent),
              faults_before + 1);
    EXPECT_FALSE(db.alive());
}

} // namespace
} // namespace divot
