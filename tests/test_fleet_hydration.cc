/**
 * @file
 * Tests for the store-backed fleet: lazy hydration must be invisible
 * in every fused verdict, LRU eviction must hold the resident-byte
 * budget, unrecoverable records must demote their channel to
 * PendingReenroll (fencing the wire, not the fleet), and the idle
 * scrub hook must run on spare instrument slots and fence the
 * channels whose records it finds lost.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fleet/channel_scheduler.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"

namespace divot {
namespace {

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

ChannelScheduler
makeFleet(std::size_t channels, std::size_t instruments,
          uint64_t seed = 42)
{
    FleetConfig cfg;
    cfg.instruments = instruments;
    cfg.policy = SchedulerPolicy::RoundRobin;
    cfg.threads = 1;
    ChannelScheduler fleet(cfg, Rng(seed));
    for (std::size_t c = 0; c < channels; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();
    return fleet;
}

TEST(FleetHydration, HydrationIsVerdictInvisible)
{
    // Reference: storeless fleet.
    ChannelScheduler plain = makeFleet(3, 2);
    // Candidate: same seed, backed by a store with a budget tiny
    // enough that every unpinned enrollment is evicted each tick and
    // must rehydrate before its next probe.
    ChannelScheduler backed = makeFleet(3, 2);
    const std::string dir = freshDbDir("hydr_invisible");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    backed.attachStore(&db, 1);

    for (int t = 0; t < 8; ++t) {
        const FleetRound a = plain.tick();
        const FleetRound b = backed.tick();
        ASSERT_EQ(a.probes.size(), b.probes.size()) << "tick " << t;
        for (std::size_t p = 0; p < a.probes.size(); ++p) {
            EXPECT_EQ(a.probes[p].channel, b.probes[p].channel);
            EXPECT_EQ(a.probes[p].verdict.similarity,
                      b.probes[p].verdict.similarity)
                << "tick " << t << " probe " << p;
        }
        EXPECT_EQ(a.fused.fusedSimilarity, b.fused.fusedSimilarity)
            << "tick " << t;
        EXPECT_EQ(a.fused.busTrusted, b.fused.busTrusted);
        EXPECT_EQ(b.fused.pendingReenrollWires, 0u);
    }
    // The tiny budget really did force eviction/rehydration churn.
    EXPECT_GT(backed.telemetry().registry().counterValue(
                  "store.evictions"), 0u);
    EXPECT_GT(backed.telemetry().registry().counterValue(
                  "store.hydrates"), 0u);
}

TEST(FleetHydration, ResidentBudgetHolds)
{
    ChannelScheduler fleet = makeFleet(4, 1);
    const std::string dir = freshDbDir("hydr_budget");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());

    // Budget: one enrollment plus headroom — the single probed
    // channel per tick is the pinned working set.
    const std::size_t oneChannel = fleet.channel(0).enrollmentBytes();
    ASSERT_GT(oneChannel, 0u);
    const std::size_t budget = oneChannel + oneChannel / 2;
    fleet.attachStore(&db, budget);

    for (int t = 0; t < 10; ++t) {
        fleet.tick();
        EXPECT_LE(fleet.residentEnrollmentBytes(), budget)
            << "tick " << t;
    }
}

TEST(FleetHydration, LostRecordDemotesToPendingReenroll)
{
    ChannelScheduler fleet = makeFleet(2, 1);
    const std::string dir = freshDbDir("hydr_demote");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1); // evict everything unpinned

    // Tick 0 probes wire0 and evicts wire1's enrollment.
    fleet.tick();
    ASSERT_FALSE(fleet.channel(1).enrollmentResident());

    // The durable copy vanishes (models a record damaged in every
    // bank; erase gives the same Missing/unrecoverable hydration
    // outcome deterministically).
    ASSERT_TRUE(db.erase("wire1"));

    // Tick 1 selects wire1, fails hydration, and fences it — the
    // fleet keeps running on the surviving wire.
    const FleetRound round = fleet.tick();
    EXPECT_EQ(fleet.channel(1).state(), AuthState::PendingReenroll);
    EXPECT_EQ(round.fused.pendingReenrollWires, 1u);
    for (const ChannelProbe &probe : round.probes)
        EXPECT_NE(probe.channel, 1u);

    // Later rounds never select a fenced channel...
    for (int t = 0; t < 4; ++t) {
        const FleetRound r = fleet.tick();
        for (const ChannelProbe &probe : r.probes)
            EXPECT_NE(probe.channel, 1u);
        EXPECT_TRUE(r.fused.busAuthenticated);
    }
    EXPECT_GT(fleet.telemetry().registry().counterValue(
                  "store.pending_reenroll"), 0u);

    // ...until the operator re-calibrates it.
    ASSERT_TRUE(fleet.reenrollChannel(1));
    EXPECT_NE(fleet.channel(1).state(), AuthState::PendingReenroll);
    store::EnrollmentRecord rec;
    EXPECT_EQ(db.get("wire1", rec), store::DbGetStatus::Ok);
    bool probed1 = false;
    for (int t = 0; t < 4; ++t) {
        const FleetRound r = fleet.tick();
        EXPECT_EQ(r.fused.pendingReenrollWires, 0u);
        for (const ChannelProbe &probe : r.probes)
            probed1 = probed1 || probe.channel == 1u;
    }
    EXPECT_TRUE(probed1);
}

TEST(FleetHydration, UnreadableShardDemotesInsteadOfThrowing)
{
    ChannelScheduler fleet = makeFleet(2, 1);
    const std::string dir = freshDbDir("hydr_eisdir");
    store::EnrollmentDbConfig cfg = dbConfig(dir);
    cfg.shards = 1;
    store::EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 1); // evict everything unpinned

    // Tick 0 probes wire0 and evicts wire1's enrollment.
    fleet.tick();
    ASSERT_FALSE(fleet.channel(1).enrollmentResident());

    // The shard path turns into a directory: every read of it fails
    // (EISDIR), as on a medium returning EIO.
    const std::string shard = db.shardPath(0);
    ASSERT_TRUE(store::fileExists(shard));
    ASSERT_TRUE(store::removeFile(shard));
    ASSERT_TRUE(store::ensureDir(shard));

    // Tick 1 selects wire1, cannot hydrate it, and fences it.
    FleetRound round;
    EXPECT_NO_THROW(round = fleet.tick());
    EXPECT_EQ(fleet.channel(1).state(), AuthState::PendingReenroll);
    EXPECT_EQ(round.fused.pendingReenrollWires, 1u);
    store::removeFile(shard);
}

TEST(FleetHydration, IdleSlotsScrubTheStore)
{
    ChannelScheduler fleet = makeFleet(2, 2);
    const std::string dir = freshDbDir("hydr_scrub");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 0);

    // Fence one wire: every later tick has a spare instrument slot,
    // which the scheduler spends scrubbing the next shard.
    ASSERT_TRUE(db.erase("wire0"));
    fleet.channel(0).releaseEnrollment();
    for (int t = 0; t < 6; ++t)
        fleet.tick();
    EXPECT_EQ(fleet.channel(0).state(), AuthState::PendingReenroll);
    EXPECT_GT(fleet.telemetry().registry().counterValue(
                  "store.scrub.idle_ticks"), 0u);
}

/** How the scrub-fencing tests damage wire0's shard image. */
enum class ShardDamage
{
    FrameCrcs, //!< both banks' copies of the record frame fail CRC
    AllOnes,   //!< every byte 0xFF: nothing parses
    Truncated, //!< cut to 40% of its size
    Zeroed,    //!< every byte 0
};

/**
 * Damage wire0's shard behind a fleet whose unlimited budget keeps
 * every enrollment resident, then tick once per shard: a spare slot
 * (3 channels, 4 instruments) funds a scrub step each tick, so the
 * round-robin scrub visits every shard. The scrub alone must fence
 * wire0 — its resident enrollment means no hydration would ever
 * discover the damage — and leave the wires on other shards alone.
 */
void
expectScrubFencesWire0(const char *dir_name, ShardDamage damage)
{
    ChannelScheduler fleet = makeFleet(3, 4);
    const std::string dir = freshDbDir(dir_name);
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    fleet.attachStore(&db, 0);
    ASSERT_TRUE(db.checkpoint());

    const unsigned shard = db.shardOf("wire0");
    ASSERT_NE(db.shardOf("wire1"), shard);
    ASSERT_NE(db.shardOf("wire2"), shard);
    const std::string path = db.shardPath(shard);
    std::vector<char> bytes;
    ASSERT_TRUE(store::readFile(path, bytes));
    switch (damage) {
      case ShardDamage::FrameCrcs:
        // wire0's is the shard's only record, so its frame ends each
        // bank's payload, and the frame's last 8 bytes are its
        // FNV-1a: the body, and so the id, stays readable.
        for (const bool bank_b : {false, true}) {
            const store::BankSpan bank =
                store::locateBank(bytes, bank_b, store::kShardVersion);
            ASSERT_TRUE(bank.crcOk);
            for (std::size_t i = 1; i <= 8; ++i)
                bytes[bank.offset + bank.length - i] ^= 0x5a;
        }
        break;
      case ShardDamage::AllOnes:
        std::fill(bytes.begin(), bytes.end(), static_cast<char>(0xff));
        break;
      case ShardDamage::Truncated:
        bytes.resize(bytes.size() * 2 / 5);
        break;
      case ShardDamage::Zeroed:
        std::fill(bytes.begin(), bytes.end(), 0);
        break;
    }
    ASSERT_TRUE(store::atomicWriteFile(path, bytes));

    for (unsigned t = 0; t < db.config().shards; ++t)
        fleet.tick();
    EXPECT_EQ(fleet.channel(0).state(), AuthState::PendingReenroll);
    EXPECT_EQ(fleet.channel(1).state(), AuthState::Monitoring);
    EXPECT_EQ(fleet.channel(2).state(), AuthState::Monitoring);
}

TEST(FleetHydration, ScrubFencesRecordLostById)
{
    expectScrubFencesWire0("hydr_scrub_crc", ShardDamage::FrameCrcs);
}

TEST(FleetHydration, ScrubFencesUnreadableShard)
{
    expectScrubFencesWire0("hydr_scrub_ff", ShardDamage::AllOnes);
}

TEST(FleetHydration, ScrubFencesTruncatedShard)
{
    expectScrubFencesWire0("hydr_scrub_cut", ShardDamage::Truncated);
}

TEST(FleetHydration, ScrubFencesZeroedShard)
{
    expectScrubFencesWire0("hydr_scrub_zero", ShardDamage::Zeroed);
}

TEST(FleetHydration, StoreCountersOnlyRegisterWithStore)
{
    ChannelScheduler plain = makeFleet(2, 1);
    plain.run(2);
    for (const auto &c : plain.telemetry().registry().counters())
        EXPECT_TRUE(c.name.rfind("store.", 0) != 0)
            << "storeless fleet registered " << c.name;

    ChannelScheduler backed = makeFleet(2, 1);
    const std::string dir = freshDbDir("hydr_counters");
    store::EnrollmentDb db(dbConfig(dir));
    ASSERT_TRUE(db.open());
    db.attachTelemetry(&backed.telemetry());
    backed.attachStore(&db, 1);
    backed.run(3);
    std::vector<std::string> names;
    for (const auto &c : backed.telemetry().registry().counters())
        if (c.name.rfind("store.", 0) == 0)
            names.push_back(c.name);
    EXPECT_TRUE(std::find(names.begin(), names.end(),
                          "store.hydrates") != names.end());
    EXPECT_TRUE(std::find(names.begin(), names.end(),
                          "store.puts") != names.end());
}

} // namespace
} // namespace divot
