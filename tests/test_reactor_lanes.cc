/**
 * @file
 * Tests for the hydration lanes: bucketing the store-backed epoch's
 * hydration by shard across `FleetConfig::reactorLanes` lanes must be
 * invisible in every probe verdict, every fused verdict, the stable
 * telemetry export, and the mega-fleet digest — at any thread count,
 * with and without injected storage faults. The lane count is a
 * performance knob, never a semantic one, and never exceeds the
 * store's shard count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fleet/channel_scheduler.hh"
#include "fleet/megafleet.hh"
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
freshDbDir(const std::string &name)
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

store::EnrollmentDbConfig
dbConfig(const std::string &dir)
{
    store::EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    cfg.overlayFlushRecords = 2;
    return cfg;
}

/** One store-backed fleet run: per-tick rounds + stable export. */
struct LaneRun
{
    std::vector<FleetRound> rounds;
    std::string stableExport;
    unsigned lanes = 0;      //!< the fleet's resolved lane count
    unsigned cacheLanes = 0; //!< the store's shard-cache lanes
};

LaneRun
runLanes(const std::string &tag, unsigned lanes, unsigned threads,
         int ticks, const FaultInjector *injector = nullptr,
         const std::vector<std::string> &eraseFirst = {})
{
    FleetConfig cfg;
    cfg.instruments = 2;
    cfg.policy = SchedulerPolicy::RoundRobin;
    cfg.threads = threads;
    cfg.reactorLanes = lanes;
    ChannelScheduler fleet(cfg, Rng(42));
    for (std::size_t c = 0; c < 6; ++c)
        fleet.addChannel(quickChannel(c));
    fleet.calibrateAll();

    const std::string dir = freshDbDir(
        tag + "_l" + std::to_string(lanes) + "_t" +
        std::to_string(threads));
    store::EnrollmentDb db(dbConfig(dir));
    if (injector != nullptr)
        db.attachFaultInjector(injector);
    EXPECT_TRUE(db.open());
    // Tiny budget: every unpinned enrollment evicts each tick, so
    // every tick drains a full hydration wave through the lanes.
    fleet.attachStore(&db, 1);
    for (const std::string &id : eraseFirst) {
        EXPECT_TRUE(db.erase(id));
        // Drop the resident copy too so the loss surfaces as a failed
        // hydration, not a quiet in-memory hit.
        for (std::size_t c = 0; c < 6; ++c)
            if (fleet.channel(c).name() == id)
                fleet.channel(c).releaseEnrollment();
    }

    LaneRun run;
    for (int t = 0; t < ticks; ++t)
        run.rounds.push_back(fleet.tick());
    run.stableExport = fleet.telemetry().exportJson();
    run.lanes = fleet.reactorLaneCount();
    run.cacheLanes = db.config().shardCacheLanes;
    return run;
}

void
expectSameRounds(const LaneRun &a, const LaneRun &b)
{
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t t = 0; t < a.rounds.size(); ++t) {
        const FleetRound &ra = a.rounds[t];
        const FleetRound &rb = b.rounds[t];
        ASSERT_EQ(ra.probes.size(), rb.probes.size()) << "tick " << t;
        for (std::size_t p = 0; p < ra.probes.size(); ++p) {
            EXPECT_EQ(ra.probes[p].channel, rb.probes[p].channel)
                << "tick " << t << " probe " << p;
            EXPECT_EQ(ra.probes[p].verdict.similarity,
                      rb.probes[p].verdict.similarity)
                << "tick " << t << " probe " << p;
        }
        EXPECT_EQ(ra.fused.fusedSimilarity, rb.fused.fusedSimilarity)
            << "tick " << t;
        EXPECT_EQ(ra.fused.busTrusted, rb.fused.busTrusted);
        EXPECT_EQ(ra.fused.pendingReenrollWires,
                  rb.fused.pendingReenrollWires);
    }
}

TEST(ReactorLanes, VerdictsInvariantAcrossLaneAndThreadCounts)
{
    const LaneRun base = runLanes("lanes_clean", 1, 1, 8);
    for (unsigned lanes : {1u, 2u, 4u}) {
        for (unsigned threads : {1u, 4u}) {
            if (lanes == 1 && threads == 1)
                continue; // the base itself
            const LaneRun run =
                runLanes("lanes_clean", lanes, threads, 8);
            expectSameRounds(base, run);
            EXPECT_EQ(base.stableExport, run.stableExport)
                << "lanes " << lanes << " threads " << threads;
        }
    }
}

TEST(ReactorLanes, LaneCountNeverExceedsShards)
{
    // A lane beyond the shard count could never own a shard, yet it
    // would take its share of the decoded-image cache budget. An
    // explicit request is capped at the store's shard count.
    const LaneRun four = runLanes("lanes_cap", 4, 2, 6);
    const LaneRun many = runLanes("lanes_cap", 64, 2, 6);
    EXPECT_EQ(four.lanes, 4u);
    EXPECT_EQ(many.lanes, 4u);
    EXPECT_EQ(many.cacheLanes, 4u);
    expectSameRounds(four, many);
    EXPECT_EQ(four.stableExport, many.stableExport);
}

TEST(ReactorLanes, LaneResolverCapsAtShards)
{
    EXPECT_EQ(resolveHydrationLanes(0, 4), 4u);
    EXPECT_EQ(resolveHydrationLanes(0, 32), 8u);
    EXPECT_EQ(resolveHydrationLanes(0, 0), 1u);
    EXPECT_EQ(resolveHydrationLanes(3, 16), 3u);
    EXPECT_EQ(resolveHydrationLanes(64, 4), 4u);
    EXPECT_EQ(resolveHydrationLanes(64, 0), 1u);
}

TEST(ReactorLanes, LostRecordDemotionOrderIsLaneInvariant)
{
    // Two wires lose their durable records before the first tick;
    // both demotions (and the "store.lost" fencing events they emit)
    // must land identically whichever lane discovers them.
    const std::vector<std::string> lost = {"wire1", "wire4"};
    const LaneRun base = runLanes("lanes_lost", 1, 1, 8, nullptr, lost);
    // pendingReenrollWires reports the currently-fenced population;
    // by the last round both losses have been discovered and fenced.
    EXPECT_EQ(base.rounds.back().fused.pendingReenrollWires,
              lost.size());
    for (unsigned lanes : {2u, 4u}) {
        const LaneRun run =
            runLanes("lanes_lost", lanes, 4, 8, nullptr, lost);
        expectSameRounds(base, run);
        EXPECT_EQ(base.stableExport, run.stableExport)
            << "lanes " << lanes;
    }
}

TEST(ReactorLanes, FaultedHydrationIsLaneInvariant)
{
    // Storage bit rot lands on shard images during enrollment; the
    // damaged-image salvage (or demotion) a lane performs must match
    // the single-reactor run bit for bit.
    FaultPlan plan;
    plan.storageBitRot(3, 4, 6.0).storageBitRot(9, 3, 4.0);
    const FaultInjector injector(plan, Rng(17));
    const LaneRun base =
        runLanes("lanes_fault", 1, 1, 8, &injector);
    for (unsigned lanes : {2u, 4u}) {
        for (unsigned threads : {1u, 4u}) {
            const LaneRun run =
                runLanes("lanes_fault", lanes, threads, 8, &injector);
            expectSameRounds(base, run);
            EXPECT_EQ(base.stableExport, run.stableExport)
                << "lanes " << lanes << " threads " << threads;
        }
    }
}

TEST(ReactorLanes, MegaFleetDigestIsLaneInvariant)
{
    auto digest = [](const char *name, unsigned threads,
                     unsigned lanes) {
        MegaFleetConfig cfg;
        cfg.channels = 96;
        cfg.fingerprintBins = 8;
        cfg.probesPerTick = 16;
        cfg.threads = threads;
        cfg.reactorLanes = lanes;
        cfg.store.directory =
            freshDbDir(std::string("lanes_mega_") + name);
        cfg.store.shards = 8;
        cfg.store.overlayFlushRecords = 8;
        cfg.store.shardCacheBytes = 1u << 20;
        cfg.telemetry.enabled = false;
        MegaFleet fleet(cfg, Rng(21));
        EXPECT_EQ(fleet.enrollAll(), 96u);
        return fleet.run(8).verdictDigest;
    };
    const uint64_t one = digest("s1", 1, 1);
    EXPECT_NE(one, 0u);
    EXPECT_EQ(one, digest("l4", 1, 4));
    EXPECT_EQ(one, digest("p4", 0, 4));
    EXPECT_EQ(one, digest("p8", 0, 8));
    // 64 lanes over 8 shards resolve to 8.
    EXPECT_EQ(one, digest("p64", 0, 64));
}

} // namespace
} // namespace divot
