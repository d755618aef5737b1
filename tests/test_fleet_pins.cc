/**
 * @file
 * Fleet epoch pins: three seeded service scenarios whose observable
 * outputs are folded into FNV-1a digests and pinned. A change to how
 * a fleet epoch is sequenced must keep every one of them:
 *
 *  - the service's response digest;
 *  - one digest over every tick: the round (probed channels, their
 *    similarity bits, the fused verdict), then each channel's state
 *    and phase after the tick;
 *  - the bits of instrumentUtilization();
 *  - the stable telemetry export. Lines naming a
 *    `fleet.reactor.events.` counter are left out: those counters
 *    counted scheduling bookkeeping, not fleet behaviour.
 *
 * Scenarios:
 *  (a) a storeless RiskWeighted fleet, at 1 and 4 worker threads;
 *  (b) a one-lane store under a tiny resident budget: a record erased
 *      under a channel that holds a parked Verify, and an Enroll
 *      whose persist dies on an injected storage crash;
 *  (c) four shards and four lanes under eviction churn: a damaged
 *      shard fences one channel at hydration, and the idle-slot scrub
 *      fences another while its Verify is parked.
 *
 * Each scenario sends every request kind, an unknown channel name
 * and a per-channel Busy overflow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hh"
#include "fleet/channel_scheduler.hh"
#include "service/fleet_service.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"
#include "txline/tamper.hh"

namespace divot {
namespace {

using service::FleetService;
using service::RequestKind;
using service::ServiceRequest;

BusChannelConfig
quickChannel(std::size_t index)
{
    BusChannelConfig cfg;
    cfg.lineLength = 0.1; // keep tests fast
    cfg.enrollReps = 8;
    cfg.name = "wire" + std::to_string(index);
    return cfg;
}

std::string
freshDbDir(const std::string &name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    store::ensureDir(dir);
    for (unsigned s = 0; s < 8; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        store::removeFile(shard);
        store::removeFile(shard + ".tmp");
        store::removeFile(shard + ".corrupt");
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

uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** The pinned figures of one scenario run. */
struct Pins
{
    uint64_t responses = 0;   //!< FleetService::responseDigest()
    uint64_t rounds = 0;      //!< chained per-tick digest
    uint64_t utilization = 0; //!< instrumentUtilization() bits
    uint64_t stableExport = 0; //!< filtered stable export
};

/**
 * Drives one scenario: submits requests, ticks the service, and folds
 * every round into the chained tick digest. Also tracks the largest
 * number of requests admitted between two ticks.
 */
class Driver
{
  public:
    Driver(ChannelScheduler &fleet, FleetService &svc)
        : fleet_(fleet), svc_(svc)
    {
    }

    void submit(RequestKind kind, const std::string &channel)
    {
        ServiceRequest rq;
        rq.id = nextId_++;
        rq.kind = kind;
        rq.channel = channel;
        if (svc_.submit(rq))
            ++burst_;
    }

    FleetRound tick()
    {
        maxBurst_ = std::max(maxBurst_, burst_);
        burst_ = 0;
        const FleetRound round = svc_.tick();
        std::vector<char> buf;
        store::putU64(buf, rounds_);
        store::putU64(buf, round.tick);
        store::putU64(buf, round.probes.size());
        for (const ChannelProbe &probe : round.probes) {
            store::putU64(buf, probe.channel);
            store::putF64(buf, probe.verdict.similarity);
            store::putU64(buf,
                          static_cast<uint64_t>(probe.verdict.stateAfter));
        }
        const FleetVerdict &fused = round.fused;
        store::putU64(buf, (fused.busAuthenticated ? 1u : 0u) |
                               (fused.tamperAlarm ? 2u : 0u) |
                               (fused.busTrusted ? 4u : 0u));
        store::putF64(buf, fused.fusedSimilarity);
        store::putU64(buf, fused.contributingWires);
        store::putU64(buf, fused.tamperedWires);
        store::putU64(buf, fused.quarantinedWires);
        store::putU64(buf, fused.pendingReenrollWires);
        for (std::size_t c = 0; c < fleet_.channelCount(); ++c) {
            store::putU64(buf,
                          static_cast<uint64_t>(fleet_.channel(c).state()));
            store::putU64(buf,
                          static_cast<uint64_t>(fleet_.channelPhase(c)));
        }
        rounds_ = store::fnv1a(buf);
        return round;
    }

    /** Tick until every admitted request is answered (bounded). */
    void drain(int extra_ticks)
    {
        for (int t = 0; t < 12 && svc_.pendingRequests() > 0; ++t)
            tick();
        EXPECT_EQ(svc_.pendingRequests(), 0u);
        for (int t = 0; t < extra_ticks; ++t)
            tick();
    }

    Pins pins() const
    {
        Pins pins;
        pins.responses = svc_.responseDigest();
        pins.rounds = rounds_;
        pins.utilization = bitsOf(fleet_.instrumentUtilization());
        std::istringstream lines(fleet_.telemetry().exportJson());
        std::string kept;
        std::string line;
        while (std::getline(lines, line)) {
            if (line.find("fleet.reactor.events.") != std::string::npos)
                continue;
            kept += line;
            kept += '\n';
        }
        pins.stableExport = store::fnv1a(kept.data(), kept.size());
        return pins;
    }

    /** @return the most requests admitted between two ticks. */
    std::size_t maxBurst() const { return maxBurst_; }

  private:
    ChannelScheduler &fleet_;
    FleetService &svc_;
    uint64_t nextId_ = 100;
    uint64_t rounds_ = 0;
    std::size_t burst_ = 0;
    std::size_t maxBurst_ = 0;
};

void
expectPins(const Pins &got, const Pins &want)
{
    EXPECT_EQ(got.responses, want.responses) << std::hex << got.responses;
    EXPECT_EQ(got.rounds, want.rounds) << std::hex << got.rounds;
    EXPECT_EQ(got.utilization, want.utilization)
        << std::hex << got.utilization;
    EXPECT_EQ(got.stableExport, want.stableExport)
        << std::hex << got.stableExport;
}

ChannelScheduler
makeFleet(std::size_t channels, std::size_t instruments,
          SchedulerPolicy policy, unsigned threads, unsigned lanes,
          uint64_t seed)
{
    FleetConfig cfg;
    cfg.instruments = instruments;
    cfg.policy = policy;
    cfg.threads = threads;
    cfg.reactorLanes = lanes;
    ChannelScheduler fleet(cfg, Rng(seed));
    for (std::size_t c = 0; c < channels; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();
    return fleet;
}

/** (a) Storeless RiskWeighted fleet with one tampered wire. */
Pins
storelessScenario(unsigned threads)
{
    ChannelScheduler fleet = makeFleet(4, 2, SchedulerPolicy::RiskWeighted,
                                       threads, 0, 31);
    FleetService svc(fleet);
    Driver drive(fleet, svc);
    drive.tick();
    drive.tick();
    fleet.channel(3).stageAttack(MagneticProbe(0.5, 0.4));

    // Storeless: the Enroll has nowhere to persist and is Rejected;
    // the Reenroll re-calibrates. wire1's fifth request overflows its
    // per-channel bound (the Reenroll holds one of its four places).
    drive.submit(RequestKind::QuarantineStatus, "wire0");
    drive.submit(RequestKind::Verify, "wire2");
    drive.submit(RequestKind::Verify, "wire2");
    drive.submit(RequestKind::Verify, "wire3");
    drive.submit(RequestKind::FleetSummary, "");
    drive.submit(RequestKind::FleetSummary, "");
    drive.submit(RequestKind::Enroll, "wire0");
    drive.submit(RequestKind::Reenroll, "wire1");
    for (int k = 0; k < 4; ++k)
        drive.submit(RequestKind::Verify, "wire1");
    drive.submit(RequestKind::Verify, "ghost");
    for (int t = 0; t < 3; ++t)
        drive.tick();

    drive.submit(RequestKind::QuarantineStatus, "wire3");
    drive.submit(RequestKind::Verify, "wire0");
    drive.submit(RequestKind::FleetSummary, "");
    drive.drain(3);

    EXPECT_EQ(fleet.queuePeak(), drive.maxBurst());
    return drive.pins();
}

TEST(FleetEpochPins, StorelessRiskWeightedAtOneAndFourThreads)
{
    const Pins want{0x4594a883be303b9fULL, 0x35eca505a5eaa9a7ULL,
                    0x3ff0000000000000ULL, 0xc6e8cc0ed1f7b71dULL};
    expectPins(storelessScenario(1), want);
    expectPins(storelessScenario(4), want);
}

/** (b) One-lane store: an erased record under a parked Verify and a
 *  crashed Enroll persist. */
TEST(FleetEpochPins, OneLaneStoreWithErasedRecordAndFailedPersist)
{
    ChannelScheduler fleet = makeFleet(4, 1, SchedulerPolicy::RoundRobin,
                                       2, 1, 47);
    const std::string dir = freshDbDir("pins_one_lane");
    store::EnrollmentDb db(dbConfig(dir));
    db.attachTelemetry(&fleet.telemetry());
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1); // evict everything unpinned
    FleetService svc(fleet);
    Driver drive(fleet, svc);
    drive.tick();
    drive.tick();

    // wire3's four Verifies win the one instrument; wire2's Verify
    // stays parked while its durable record is erased underneath it.
    for (int k = 0; k < 5; ++k)
        drive.submit(RequestKind::Verify, "wire3");
    drive.submit(RequestKind::Verify, "wire2");
    drive.submit(RequestKind::QuarantineStatus, "wire0");
    drive.submit(RequestKind::FleetSummary, "");
    drive.submit(RequestKind::Verify, "ghost");
    drive.tick();
    EXPECT_FALSE(fleet.channel(2).enrollmentResident());
    ASSERT_TRUE(db.erase("wire2"));
    drive.tick();
    EXPECT_EQ(fleet.channel(2).state(), AuthState::PendingReenroll);

    // The Enroll names the channel probed last, whose enrollment is
    // still resident, so it persists — into a power cut at the db's
    // next IO event. The Reenroll behind it finds the handle dead.
    const FleetRound round = drive.tick();
    ASSERT_EQ(round.probes.size(), 1u);
    const std::string probed =
        fleet.channel(round.probes[0].channel).name();
    FaultPlan plan;
    plan.storageCrash(db.ioEvents(), StorageCrashPoint::BeforeCommit);
    const FaultInjector injector(plan, Rng(99));
    db.attachFaultInjector(&injector);
    drive.submit(RequestKind::Enroll, probed);
    drive.submit(RequestKind::Reenroll, "wire2");
    drive.submit(RequestKind::Verify, "wire2");
    drive.submit(RequestKind::QuarantineStatus, "wire2");
    drive.submit(RequestKind::Verify, "wire0");
    drive.submit(RequestKind::FleetSummary, "");
    drive.drain(3);
    EXPECT_FALSE(db.alive());

    EXPECT_EQ(fleet.queuePeak(), drive.maxBurst());
    const Pins want{0x62f9ffa252e62d4cULL, 0xc707e28d7e8d585fULL,
                    0x3fe999999999999bULL, 0x6f81515410121c02ULL};
    expectPins(drive.pins(), want);
}

/** (c) Four shards, four lanes, eviction churn and a damaged shard. */
TEST(FleetEpochPins, FourLanesWithScrubFencingUnderParkedVerifies)
{
    ChannelScheduler fleet = makeFleet(8, 2, SchedulerPolicy::RiskWeighted,
                                       4, 4, 53);
    const std::string dir = freshDbDir("pins_four_lanes");
    store::EnrollmentDb db(dbConfig(dir));
    db.attachTelemetry(&fleet.telemetry());
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1); // evict everything unpinned
    ASSERT_TRUE(db.checkpoint());
    FleetService svc(fleet);
    Driver drive(fleet, svc);
    for (int t = 0; t < 3; ++t)
        drive.tick();

    // Shard 0 is the first the idle-slot scrub visits. Of its
    // channels, `lost` is evicted and will fail its hydration; the
    // freed slot funds a scrub of shard 0 that fences `parked` while
    // its Verify waits behind the two four-request channels.
    std::vector<std::size_t> shard0;
    std::size_t other = ChannelScheduler::kNoChannel;
    for (std::size_t c = 0; c < fleet.channelCount(); ++c) {
        if (db.shardOf(fleet.channel(c).name()) == 0)
            shard0.push_back(c);
        else if (other == ChannelScheduler::kNoChannel)
            other = c;
    }
    ASSERT_GE(shard0.size(), 2u);
    ASSERT_NE(other, ChannelScheduler::kNoChannel);
    std::size_t lost = shard0[0];
    std::size_t parked = shard0[1];
    if (fleet.channel(lost).enrollmentResident())
        std::swap(lost, parked);
    ASSERT_FALSE(fleet.channel(lost).enrollmentResident());
    std::vector<char> bytes;
    ASSERT_TRUE(store::readFile(db.shardPath(0), bytes));
    std::fill(bytes.begin(), bytes.end(), static_cast<char>(0xff));
    ASSERT_TRUE(store::atomicWriteFile(db.shardPath(0), bytes));

    const std::string lostName = fleet.channel(lost).name();
    const std::string parkedName = fleet.channel(parked).name();
    const std::string otherName = fleet.channel(other).name();
    for (int k = 0; k < 4; ++k)
        drive.submit(RequestKind::Verify, lostName);
    for (int k = 0; k < 5; ++k)
        drive.submit(RequestKind::Verify, otherName);
    drive.submit(RequestKind::Verify, parkedName);
    drive.submit(RequestKind::QuarantineStatus, otherName);
    drive.submit(RequestKind::FleetSummary, "");
    drive.submit(RequestKind::Verify, "ghost");
    drive.tick();
    EXPECT_EQ(fleet.channel(lost).state(), AuthState::PendingReenroll);
    EXPECT_EQ(fleet.channel(parked).state(), AuthState::PendingReenroll);

    drive.submit(RequestKind::Reenroll, parkedName);
    drive.submit(RequestKind::Enroll, otherName);
    drive.submit(RequestKind::QuarantineStatus, lostName);
    drive.submit(RequestKind::Verify, lostName);
    drive.submit(RequestKind::Verify, parkedName);
    drive.submit(RequestKind::FleetSummary, "");
    drive.drain(4);

    EXPECT_EQ(fleet.queuePeak(), drive.maxBurst());
    const Pins want{0x21c910c85281f854ULL, 0x936d89aaefda38b9ULL,
                    0x3fee38e38e38e38fULL, 0x98ed6de1edc03603ULL};
    expectPins(drive.pins(), want);
}

} // namespace
} // namespace divot
