/**
 * @file
 * Tests for the crash-safe sharded EnrollmentDb: codec roundtrips,
 * dual-bank recovery, write-ahead journal replay, the power-cut
 * matrix (a crash at every commit point leaves either the old or the
 * new state reachable, never junk), scrub repair, and the stable
 * store.* telemetry counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "fault/fault.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"

namespace divot::store {
namespace {

Fingerprint
testFingerprint(double seed)
{
    Waveform raw(1e-12, {seed, seed + 1.0, seed + 2.0, seed * 0.5});
    Waveform residual(1e-12, {0.5, -0.5, 0.5, -0.5});
    return Fingerprint::fromParts(raw, residual,
                                  "fp" + std::to_string(seed));
}

EnrollmentRecord
testRecord(const std::string &id, double seed)
{
    EnrollmentRecord rec;
    rec.id = id;
    rec.fp = testFingerprint(seed);
    rec.nominal = Waveform(1e-12, {seed, seed});
    rec.generation = 1;
    return rec;
}

/**
 * Fresh empty db directory under the test temp dir. Suffixed with the
 * pid: parameterized instances run as concurrent ctest entries, and a
 * shared path would let one instance's cleanup race another's replay.
 */
std::string
freshDir(const char *name)
{
    const std::string dir = std::string(::testing::TempDir()) + name +
        "_" + std::to_string(static_cast<long>(::getpid()));
    ensureDir(dir);
    for (unsigned s = 0; s < 64; ++s) {
        const std::string shard =
            dir + "/shard-" + std::to_string(s) + ".bin";
        removeFile(shard);
        removeFile(shard + ".tmp");
        removeFile(shard + ".corrupt");
    }
    removeFile(dir + "/journal.wal");
    return dir;
}

EnrollmentDbConfig
smallConfig(const std::string &dir)
{
    EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    cfg.overlayFlushRecords = 4;
    return cfg;
}

bool
sameRecord(const EnrollmentRecord &a, const EnrollmentRecord &b)
{
    return a.id == b.id &&
        a.fp.raw().samples() == b.fp.raw().samples() &&
        a.fp.residual().samples() == b.fp.residual().samples() &&
        a.nominal.samples() == b.nominal.samples() &&
        a.flags == b.flags && a.generation == b.generation;
}

// --------------------------------------------------------------------
// Codec

TEST(StoreCodec, RecordBodyRoundtrip)
{
    const EnrollmentRecord rec = testRecord("dimm0.clk", 3.0);
    EnrollmentRecord back;
    ASSERT_TRUE(decodeRecordBody(encodeRecordBody(rec), back));
    EXPECT_TRUE(sameRecord(rec, back));
}

TEST(StoreCodec, DecodeRejectsEmptyRaw)
{
    EnrollmentRecord rec = testRecord("x", 1.0);
    rec.fp = Fingerprint::fromParts(Waveform(), Waveform(), "empty");
    EnrollmentRecord back;
    EXPECT_FALSE(decodeRecordBody(encodeRecordBody(rec), back));
}

TEST(StoreCodec, ShardImageRoundtrip)
{
    std::map<std::string, EnrollmentRecord> records;
    for (int i = 0; i < 5; ++i) {
        const std::string id = "ch" + std::to_string(i);
        records[id] = testRecord(id, i);
    }
    const std::vector<char> image = buildShardImage(records);
    std::map<std::string, EnrollmentRecord> back;
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.bankUsed, 0);
    EXPECT_FALSE(report.fellBack);
    ASSERT_EQ(back.size(), records.size());
    for (const auto &[id, rec] : records)
        EXPECT_TRUE(sameRecord(rec, back.at(id)));
}

TEST(StoreCodec, SingleByteCorruptionAlwaysRecovers)
{
    std::map<std::string, EnrollmentRecord> records;
    for (int i = 0; i < 3; ++i) {
        const std::string id = "wire" + std::to_string(i);
        records[id] = testRecord(id, i + 10);
    }
    const std::vector<char> image = buildShardImage(records);
    // Any single flipped byte damages at most one bank: the parse
    // must still recover every record.
    for (std::size_t pos = 0; pos < image.size();
         pos += std::max<std::size_t>(1, image.size() / 97)) {
        std::vector<char> bad = image;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x41);
        std::map<std::string, EnrollmentRecord> back;
        const ShardParseReport report = parseShardImage(bad, back);
        ASSERT_TRUE(report.ok) << "byte " << pos;
        ASSERT_EQ(back.size(), records.size()) << "byte " << pos;
        for (const auto &[id, rec] : records)
            EXPECT_TRUE(sameRecord(rec, back.at(id)))
                << "byte " << pos;
    }
}

TEST(StoreCodec, FindShardRecordStatuses)
{
    std::map<std::string, EnrollmentRecord> records;
    records["aa"] = testRecord("aa", 1);
    records["bb"] = testRecord("bb", 2);
    const std::vector<char> image = buildShardImage(records);

    EnrollmentRecord out;
    EXPECT_EQ(findShardRecord(image, "aa", out), 1);
    EXPECT_TRUE(sameRecord(records["aa"], out));
    EXPECT_EQ(findShardRecord(image, "zz", out), 0);
}

TEST(StoreCodec, VersionSelectsBodyAndSalvagePolicy)
{
    std::map<std::string, EnrollmentRecord> records;
    records["aa"] = testRecord("aa", 1);
    records["bb"] = testRecord("bb", 2);
    for (const uint32_t version : {kEpromVersion, kShardVersion}) {
        std::vector<char> image = buildShardImage(records, version);
        std::map<std::string, EnrollmentRecord> back;
        ASSERT_TRUE(parseShardImage(image, back, version).ok);
        // A v2 body stops after the residual: nominal, flags and
        // generation read back as defaults.
        EXPECT_EQ(back.at("aa").nominal.empty(),
                  version == kEpromVersion);
        EXPECT_EQ(back.at("aa").generation,
                  version == kEpromVersion ? 0u : 1u);

        // Break "aa" in bank A and "bb" in bank B: each record keeps
        // one intact frame, but neither bank verifies whole.
        const std::string text(image.begin(), image.end());
        const std::size_t aa = text.find("aa");
        const std::size_t bb = text.rfind("bb");
        image[aa + 20] = static_cast<char>(image[aa + 20] ^ 0x40);
        image[bb + 20] = static_cast<char>(image[bb + 20] ^ 0x40);
        const ShardParseReport report =
            parseShardImage(image, back, version);
        if (version == kShardVersion) {
            EXPECT_TRUE(report.salvaged);
            EXPECT_EQ(back.size(), 2u);
        } else {
            // The EPROM loads one whole bank or nothing.
            EXPECT_FALSE(report.ok);
            EXPECT_TRUE(back.empty());
        }
    }
}

TEST(StoreCodec, ChannelHashIsStable)
{
    // Pinned values: shard routing must never change across builds
    // or platforms, or existing databases would scatter.
    EXPECT_EQ(channelHash(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(channelHash("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(channelHash("ch0"), channelHash(std::string("ch0")));
    EXPECT_NE(channelHash("ch0"), channelHash("ch1"));
}

// --------------------------------------------------------------------
// EnrollmentDb basics

TEST(EnrollmentDb, PutGetEraseRoundtrip)
{
    const std::string dir = freshDir("db_basic");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());

    const EnrollmentRecord rec = testRecord("dimm0.clk", 7.0);
    EXPECT_TRUE(db.put(rec));

    EnrollmentRecord out;
    EXPECT_EQ(db.get("dimm0.clk", out), DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(rec, out));
    EXPECT_EQ(db.get("ghost", out), DbGetStatus::Missing);

    EXPECT_TRUE(db.erase("dimm0.clk"));
    EXPECT_EQ(db.get("dimm0.clk", out), DbGetStatus::Missing);
}

TEST(EnrollmentDb, OpenFailsOnMissingDirectory)
{
    EnrollmentDbConfig cfg;
    cfg.directory =
        std::string(::testing::TempDir()) + "does_not_exist_xyz";
    EnrollmentDb db(cfg);
    EXPECT_FALSE(db.open());
}

TEST(EnrollmentDb, JournalReplayRecoversUnflushedMutations)
{
    const std::string dir = freshDir("db_replay");
    const EnrollmentRecord rec = testRecord("ch.a", 1.0);
    {
        EnrollmentDb db(smallConfig(dir));
        ASSERT_TRUE(db.open());
        EXPECT_TRUE(db.put(rec));
        // No checkpoint, overlay below the flush threshold: the only
        // durable copy lives in the journal.
    }
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.replayedEntries(), 1u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("ch.a", out), DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(rec, out));
}

TEST(EnrollmentDb, CheckpointFlushesAndTruncatesJournal)
{
    const std::string dir = freshDir("db_ckpt");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(db.put(
            testRecord("ch" + std::to_string(i), i)));
    EXPECT_TRUE(db.checkpoint());
    EXPECT_EQ(fileSize(db.journalPath()), 0);

    // A fresh handle reads everything from shard images alone.
    EnrollmentDb db2(smallConfig(dir));
    ASSERT_TRUE(db2.open());
    EXPECT_EQ(db2.replayedEntries(), 0u);
    for (int i = 0; i < 6; ++i) {
        EnrollmentRecord out;
        EXPECT_EQ(db2.get("ch" + std::to_string(i), out),
                  DbGetStatus::Ok);
    }
}

TEST(EnrollmentDb, SetFlagsPersists)
{
    const std::string dir = freshDir("db_flags");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    ASSERT_TRUE(db.put(testRecord("q.ch", 2.0)));
    EXPECT_TRUE(db.setFlags("q.ch", kRecordQuarantined));
    EXPECT_FALSE(db.setFlags("ghost", kRecordQuarantined));

    EnrollmentDb db2(smallConfig(dir));
    ASSERT_TRUE(db2.open());
    EnrollmentRecord out;
    ASSERT_EQ(db2.get("q.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(out.flags, kRecordQuarantined);
}

TEST(EnrollmentDb, IdsMergesShardsAndOverlays)
{
    const std::string dir = freshDir("db_ids");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 7; ++i)
        ASSERT_TRUE(db.put(testRecord("w" + std::to_string(i), i)));
    ASSERT_TRUE(db.erase("w3"));
    std::vector<std::string> ids = db.ids();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids.size(), 6u);
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), "w3") == ids.end());
}

// --------------------------------------------------------------------
// Crash matrix: one power cut at every commit point; after recovery
// the record is either fully present or fully absent — never junk.

class EnrollmentDbCrash
    : public ::testing::TestWithParam<StorageCrashPoint>
{
};

TEST_P(EnrollmentDbCrash, PowerCutLeavesOldOrNewState)
{
    const StorageCrashPoint point = GetParam();
    const std::string dir = freshDir("db_crash");

    // Seed one committed record, then crash the second put.
    FaultPlan plan;
    plan.storageCrash(1, point);
    const FaultInjector injector(plan, Rng(99));

    const EnrollmentRecord first = testRecord("stable.ch", 1.0);
    const EnrollmentRecord second = testRecord("victim.ch", 2.0);
    bool putReportedDurable = false;
    {
        EnrollmentDb db(smallConfig(dir));
        db.attachFaultInjector(&injector);
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(first));
        putReportedDurable = db.put(second);
        if (point == StorageCrashPoint::AfterCommit)
            EXPECT_TRUE(putReportedDurable);
        else
            EXPECT_FALSE(putReportedDurable);
        EXPECT_FALSE(db.alive());
        // A dead handle refuses everything.
        EnrollmentRecord out;
        EXPECT_FALSE(db.put(testRecord("late.ch", 3.0)));
        EXPECT_FALSE(db.checkpoint());
    }

    // Recovery: fresh handle on the same directory.
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EnrollmentRecord out;
    ASSERT_EQ(db.get("stable.ch", out), DbGetStatus::Ok)
        << "committed record lost";
    EXPECT_TRUE(sameRecord(first, out));

    const DbGetStatus victim = db.get("victim.ch", out);
    switch (point) {
    case StorageCrashPoint::BeforeWrite:
        EXPECT_EQ(victim, DbGetStatus::Missing);
        break;
    case StorageCrashPoint::AfterJournal:
    case StorageCrashPoint::BeforeCommit:
    case StorageCrashPoint::AfterCommit:
        // The journal entry was durable before the cut: replay must
        // recover the mutation in full.
        ASSERT_EQ(victim, DbGetStatus::Ok);
        EXPECT_TRUE(sameRecord(second, out));
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, EnrollmentDbCrash,
    ::testing::Values(StorageCrashPoint::BeforeWrite,
                      StorageCrashPoint::AfterJournal,
                      StorageCrashPoint::BeforeCommit,
                      StorageCrashPoint::AfterCommit));

TEST(EnrollmentDbFaults, TornJournalAppendDiscardsOnlyTheTail)
{
    const std::string dir = freshDir("db_torn");
    FaultPlan plan;
    plan.storageTornWrite(2, 0.3);
    const FaultInjector injector(plan, Rng(5));

    {
        EnrollmentDb db(smallConfig(dir));
        db.attachFaultInjector(&injector);
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(testRecord("a.ch", 1.0)));
        ASSERT_TRUE(db.put(testRecord("b.ch", 2.0)));
        EXPECT_FALSE(db.put(testRecord("c.ch", 3.0))); // torn
        EXPECT_FALSE(db.alive());
    }

    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.replayedEntries(), 2u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("a.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("b.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("c.ch", out), DbGetStatus::Missing);
    // The torn tail was truncated: the journal frames cleanly again.
    EXPECT_TRUE(db.put(testRecord("c.ch", 3.0)));
}

TEST(EnrollmentDbFaults, BitRotRecoversThroughSurvivingBank)
{
    const std::string dir = freshDir("db_rot");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1; // all damage lands in one shard image
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(db.put(
                testRecord("rot" + std::to_string(i), i)));
        ASSERT_TRUE(db.checkpoint());
    }

    // Rot a couple of bits after the image exists (the put routes the
    // damage at the shard file). Stuck-at bits can be no-ops when the
    // forced level matches, so remember the pristine image and assert
    // real damage landed.
    std::vector<char> pristine;
    {
        EnrollmentDb peek(cfg);
        ASSERT_TRUE(readFile(peek.shardPath(0), pristine));
    }
    FaultPlan plan;
    plan.storageBitRot(0, 6, 3.0);
    const FaultInjector injector(plan, Rng(11));
    EnrollmentDb db(cfg);
    db.attachFaultInjector(&injector);
    ASSERT_TRUE(db.open());
    ASSERT_TRUE(db.put(testRecord("extra", 9.0)));
    std::vector<char> rotted;
    ASSERT_TRUE(readFile(db.shardPath(0), rotted));
    ASSERT_NE(pristine, rotted);

    // Every original record still reads back: localized rot damages
    // at most one bank per record.
    for (int i = 0; i < 4; ++i) {
        EnrollmentRecord out;
        EXPECT_EQ(db.get("rot" + std::to_string(i), out),
                  DbGetStatus::Ok);
    }

    // Scrub rewrites a pristine image when anything was damaged.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_TRUE(scrub.lostIds.empty());
    EXPECT_EQ(scrub.lostUnnamed, 0u);

    std::vector<char> image;
    ASSERT_TRUE(readFile(db.shardPath(0), image));
    std::map<std::string, EnrollmentRecord> back;
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.bankUsed, 0);
    EXPECT_FALSE(report.fellBack);
    EXPECT_EQ(back.size(), 5u);
}

TEST(EnrollmentDbFaults, TruncationLosesTailNeverJunk)
{
    const std::string dir = freshDir("db_trunc");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    std::vector<std::string> ids;
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 6; ++i) {
            ids.push_back("t" + std::to_string(i));
            ASSERT_TRUE(db.put(testRecord(ids.back(), i)));
        }
        ASSERT_TRUE(db.checkpoint());
    }

    // Chop the image down to 40%: bank B is gone, the tail of bank A
    // with it.
    const std::string shard =
        EnrollmentDb(cfg).shardPath(0);
    const int64_t size = fileSize(shard);
    ASSERT_GT(size, 0);
    ASSERT_TRUE(truncateFile(shard, static_cast<uint64_t>(
        0.4 * static_cast<double>(size))));

    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    std::size_t okCount = 0;
    for (const std::string &id : ids) {
        EnrollmentRecord out;
        const DbGetStatus st = db.get(id, out);
        if (st == DbGetStatus::Ok) {
            ++okCount;
            // Whatever survives must verify byte for byte.
            EXPECT_EQ(out.id, id);
            EXPECT_TRUE(out.fp.valid());
        } else {
            EXPECT_NE(st, DbGetStatus::Ok);
        }
    }
    EXPECT_LT(okCount, ids.size()); // something was genuinely lost

    // Scrub drops the lost records and reports them; the rewritten
    // image then reads strictly clean.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_EQ(scrub.lostIds.size() + scrub.lostUnnamed +
                  okCount,
              ids.size());

    std::vector<char> image;
    ASSERT_TRUE(readFile(shard, image));
    std::map<std::string, EnrollmentRecord> back;
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(report.ok);
    EXPECT_FALSE(report.fellBack);
    EXPECT_EQ(back.size(), okCount);
}

TEST(EnrollmentDbFaults, CutJustPastBankALosesNothing)
{
    const std::string dir = freshDir("db_cut_a");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    std::vector<std::string> ids;
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 6; ++i) {
            ids.push_back("c" + std::to_string(i));
            ASSERT_TRUE(db.put(testRecord(ids.back(), i)));
        }
        ASSERT_TRUE(db.checkpoint());
    }
    const std::string shard = EnrollmentDb(cfg).shardPath(0);
    std::vector<char> pristine;
    ASSERT_TRUE(readFile(shard, pristine));
    const std::size_t payload = (pristine.size() - 2 * kBankHeaderSize) / 2;

    // Cut anywhere from the end of bank A's payload to just short of a
    // whole bank-B trailer: bank A's header, payload and CRC are all
    // intact, so every record must still read and the scrub must
    // rebuild both banks without dropping one.
    for (std::size_t k = 0; k < kBankHeaderSize; ++k) {
        ASSERT_TRUE(atomicWriteFile(shard, pristine));
        ASSERT_TRUE(truncateFile(shard, kBankHeaderSize + payload + k));

        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (const std::string &id : ids) {
            EnrollmentRecord out;
            ASSERT_EQ(db.get(id, out), DbGetStatus::Ok)
                << id << " cut +" << k;
            EXPECT_EQ(out.id, id);
        }
        const ScrubResult scrub = db.scrubShard(0);
        EXPECT_TRUE(scrub.repaired) << "cut +" << k;
        EXPECT_TRUE(scrub.lostIds.empty()) << "cut +" << k;
        EXPECT_EQ(scrub.lostUnnamed, 0u) << "cut +" << k;

        std::vector<char> image;
        ASSERT_TRUE(readFile(shard, image));
        EXPECT_EQ(image, pristine) << "cut +" << k;
        for (const std::string &id : ids) {
            EnrollmentRecord out;
            EXPECT_EQ(db.get(id, out), DbGetStatus::Ok)
                << id << " after scrub, cut +" << k;
        }
    }
}

TEST(EnrollmentDb, ScrubStepWalksShardsRoundRobin)
{
    const std::string dir = freshDir("db_scrubstep");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(db.put(testRecord("s" + std::to_string(i), i)));
    ASSERT_TRUE(db.checkpoint());
    for (unsigned s = 0; s < db.config().shards; ++s) {
        const ScrubResult r = db.scrubStep();
        EXPECT_TRUE(r.lostIds.empty());
    }
}

TEST(EnrollmentDb, ImportLegacyImage)
{
    // A v3 shard image imports through the same entry point.
    std::map<std::string, EnrollmentRecord> records;
    records["imp0"] = testRecord("imp0", 1);
    records["imp1"] = testRecord("imp1", 2);
    const std::vector<char> image = buildShardImage(records);

    const std::string dir = freshDir("db_import");
    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.importImage(image), 2u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("imp0", out), DbGetStatus::Ok);
    EXPECT_TRUE(sameRecord(records["imp0"], out));

    EXPECT_EQ(db.importImage(std::vector<char>(16, 'x')), 0u);
}

TEST(StoreCodec, RottedLengthFieldNeverOverflows)
{
    std::map<std::string, EnrollmentRecord> records;
    records["aa"] = testRecord("aa", 1);
    records["bb"] = testRecord("bb", 2);
    std::vector<char> image = buildShardImage(records);
    const std::size_t payloadLen =
        (image.size() - 2 * kBankHeaderSize) / 2;

    // Stuck-at-1 rot across bank A's first bodyLen field: the value
    // reads back near 2^64, where `body_len + 8` would wrap past the
    // frame bound. Bank B still serves every record.
    for (int i = 0; i < 8; ++i)
        image[kBankHeaderSize + 8 + i] = static_cast<char>(0xff);
    EnrollmentRecord out;
    EXPECT_EQ(findShardRecord(image, "aa", out), 1);
    EXPECT_TRUE(sameRecord(records["aa"], out));
    std::map<std::string, EnrollmentRecord> back;
    EXPECT_TRUE(parseShardImage(image, back).ok);
    EXPECT_EQ(back.size(), 2u);

    // Same rot in bank B's copy too: the lookup must fail cleanly as
    // damage (never walk past the buffer, never return junk).
    for (int i = 0; i < 8; ++i)
        image[kBankHeaderSize + payloadLen + 8 + i] =
            static_cast<char>(0xff);
    EXPECT_EQ(findShardRecord(image, "aa", out), -1);
    back.clear();
    const ShardParseReport report = parseShardImage(image, back);
    EXPECT_TRUE(back.empty());
    EXPECT_FALSE(report.unrecoverable.empty() && report.ok &&
                 report.records > 0);
}

TEST(EnrollmentDbFaults, RottedJournalLengthIsTornTail)
{
    const std::string dir = freshDir("db_rotlen");
    {
        EnrollmentDb db(smallConfig(dir));
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(testRecord("keep.ch", 1.0)));
    }

    // Hand-append an entry whose length field rotted to all-ones
    // (0x4C414A44 is the journal frame magic). The huge length must
    // read as a torn tail, not wrap the bounds check and misalign the
    // rest of the walk.
    std::vector<char> evil;
    putU64(evil, (static_cast<uint64_t>(1) << 32) | 0x4C414A44u);
    putU64(evil, 1);     // seq
    putU64(evil, ~0ull); // rotted bodyLen
    evil.insert(evil.end(), 32, 'z');
    ASSERT_TRUE(appendFile(dir + "/journal.wal", evil));

    EnrollmentDb db(smallConfig(dir));
    ASSERT_TRUE(db.open());
    EXPECT_EQ(db.replayedEntries(), 1u);
    EnrollmentRecord out;
    EXPECT_EQ(db.get("keep.ch", out), DbGetStatus::Ok);
    // The rotted tail was truncated: appends frame cleanly again.
    EXPECT_TRUE(db.put(testRecord("new.ch", 2.0)));
    EnrollmentDb db2(smallConfig(dir));
    ASSERT_TRUE(db2.open());
    EXPECT_EQ(db2.get("keep.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db2.get("new.ch", out), DbGetStatus::Ok);
}

TEST(EnrollmentDb, ScrubNeverWipesUnreadableShard)
{
    const std::string dir = freshDir("db_unreadable");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.shards = 1;
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(db.put(testRecord("u" + std::to_string(i), i)));
    ASSERT_TRUE(db.checkpoint());

    // Wreck the whole image: nothing recoverable, and no way to even
    // count what was lost.
    std::vector<char> bytes;
    ASSERT_TRUE(readFile(db.shardPath(0), bytes));
    const std::vector<char> garbage(bytes.size(), 'x');
    ASSERT_TRUE(atomicWriteFile(db.shardPath(0), garbage));

    // Scrub must refuse the rewrite (it would silently wipe the
    // shard), flag the wholesale loss, and leave the bytes in place.
    const ScrubResult scrub = db.scrubShard(0);
    EXPECT_TRUE(scrub.scanned);
    EXPECT_TRUE(scrub.unreadable);
    EXPECT_FALSE(scrub.repaired);
    EXPECT_EQ(scrub.shard, 0u);
    std::vector<char> after;
    ASSERT_TRUE(readFile(db.shardPath(0), after));
    EXPECT_EQ(after, garbage);
    // Lookups report damage — never junk, never "provably absent".
    EnrollmentRecord out;
    EXPECT_EQ(db.get("u0", out), DbGetStatus::Unrecoverable);

    // An overlay flush over the unreadable image preserves the bytes
    // aside as .corrupt instead of destroying them.
    ASSERT_TRUE(db.put(testRecord("fresh", 9.0)));
    ASSERT_TRUE(db.checkpoint());
    std::vector<char> kept;
    ASSERT_TRUE(readFile(db.shardPath(0) + ".corrupt", kept));
    EXPECT_EQ(kept, garbage);
    EXPECT_EQ(db.get("fresh", out), DbGetStatus::Ok);
}

TEST(EnrollmentDbFaults, AfterCommitCrashStillCountsThePut)
{
    const std::string dir = freshDir("db_acct");
    Telemetry telemetry;
    FaultPlan plan;
    plan.storageCrash(0, StorageCrashPoint::AfterCommit);
    const FaultInjector injector(plan, Rng(3));
    EnrollmentDb db(smallConfig(dir));
    db.attachTelemetry(&telemetry);
    db.attachFaultInjector(&injector);
    ASSERT_TRUE(db.open());
    // The put is durable — it must land in store.puts even though the
    // handle dies at AfterCommit.
    EXPECT_TRUE(db.put(testRecord("acct.ch", 1.0)));
    EXPECT_FALSE(db.alive());

    const auto counters = telemetry.registry().counters();
    auto value = [&](const std::string &name) -> int64_t {
        for (const auto &c : counters)
            if (c.name == name)
                return static_cast<int64_t>(c.value);
        return -1;
    };
    EXPECT_EQ(value("store.puts"), 1);
    EXPECT_EQ(value("store.crashes"), 1);
}

TEST(EnrollmentDbGroupCommit, CrashBeforeCheckpointReplaysEverything)
{
    // Group commit defers the per-rename directory sync (and, while
    // the journal covers all images, the image data sync) to the
    // checkpoint. A crash anywhere before that checkpoint must still
    // recover every acknowledged put: the journal is the covering
    // copy and replays over whatever image prefix survived.
    const std::string dir = freshDir("db_gc_crash");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.journalGroupCommit = true;
    std::vector<std::string> ids;
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        // Enough puts to force several deferred-sync shard flushes.
        for (int i = 0; i < 24; ++i) {
            ids.push_back("gc" + std::to_string(i));
            ASSERT_TRUE(db.put(testRecord(ids.back(), i)));
        }
        EXPECT_GT(fileSize(db.journalPath()), 0);
        // No checkpoint: the handle just dies (simulated power cut
        // with every deferred sync still pending).
    }
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    EXPECT_GT(db.replayedEntries(), 0u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EnrollmentRecord out;
        EXPECT_EQ(db.get(ids[i], out), DbGetStatus::Ok) << ids[i];
        EXPECT_TRUE(sameRecord(out, testRecord(ids[i], double(i))));
    }
}

TEST(EnrollmentDbGroupCommit, ContentIdenticalToInlineSync)
{
    // The group-commit knob changes when durability is pinned, never
    // what lands on disk: the same mutation sequence must produce the
    // same readable database either way.
    auto drive = [](const std::string &dir, bool group) {
        EnrollmentDbConfig cfg;
        cfg.directory = dir;
        cfg.shards = 4;
        cfg.overlayFlushRecords = 4;
        cfg.journalGroupCommit = group;
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        for (int i = 0; i < 16; ++i)
            ASSERT_TRUE(db.put(testRecord("c" + std::to_string(i), i)));
        ASSERT_TRUE(db.erase("c3"));
        ASSERT_TRUE(db.setFlags("c5", 2));
        ASSERT_TRUE(db.checkpoint());
        EXPECT_EQ(fileSize(db.journalPath()), 0);
    };
    const std::string inlineDir = freshDir("db_gc_inline");
    const std::string groupDir = freshDir("db_gc_group");
    drive(inlineDir, false);
    drive(groupDir, true);

    EnrollmentDbConfig a = smallConfig(inlineDir);
    EnrollmentDbConfig b = smallConfig(groupDir);
    EnrollmentDb dbA(a);
    EnrollmentDb dbB(b);
    ASSERT_TRUE(dbA.open());
    ASSERT_TRUE(dbB.open());
    EXPECT_EQ(dbA.ids(), dbB.ids());
    for (const std::string &id : dbA.ids()) {
        EnrollmentRecord ra;
        EnrollmentRecord rb;
        ASSERT_EQ(dbA.get(id, ra), DbGetStatus::Ok);
        ASSERT_EQ(dbB.get(id, rb), DbGetStatus::Ok);
        EXPECT_TRUE(sameRecord(ra, rb)) << id;
    }
    EnrollmentRecord out;
    EXPECT_EQ(dbA.get("c3", out), DbGetStatus::Missing);
    EXPECT_EQ(dbB.get("c3", out), DbGetStatus::Missing);
}

TEST(EnrollmentDbGroupCommit, TornJournalTailStillDiscardedCleanly)
{
    // The held-open journal handle must preserve the torn-tail model:
    // a torn append under group commit is discarded on replay exactly
    // like the open-per-append path.
    const std::string dir = freshDir("db_gc_torn");
    EnrollmentDbConfig cfg = smallConfig(dir);
    cfg.journalGroupCommit = true;
    FaultPlan plan;
    plan.storageTornWrite(2);
    const FaultInjector injector(plan, Rng(5));
    {
        EnrollmentDb db(cfg);
        db.attachFaultInjector(&injector);
        ASSERT_TRUE(db.open());
        ASSERT_TRUE(db.put(testRecord("a.ch", 1.0)));
        ASSERT_TRUE(db.put(testRecord("b.ch", 2.0)));
        EXPECT_FALSE(db.put(testRecord("c.ch", 3.0))); // torn mid-append
        EXPECT_FALSE(db.alive());
    }
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());
    EnrollmentRecord out;
    EXPECT_EQ(db.get("a.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("b.ch", out), DbGetStatus::Ok);
    EXPECT_EQ(db.get("c.ch", out), DbGetStatus::Missing);
    EXPECT_TRUE(db.put(testRecord("c.ch", 3.0)));
}

TEST(EnrollmentDb, TelemetryCountersAreStable)
{
    const std::string dir = freshDir("db_telemetry");
    Telemetry telemetry;
    EnrollmentDb db(smallConfig(dir));
    db.attachTelemetry(&telemetry);
    ASSERT_TRUE(db.open());
    ASSERT_TRUE(db.put(testRecord("tm.ch", 1.0)));
    EnrollmentRecord out;
    ASSERT_EQ(db.get("tm.ch", out), DbGetStatus::Ok);
    ASSERT_TRUE(db.checkpoint());

    const auto counters = telemetry.registry().counters();
    auto value = [&](const std::string &name) -> int64_t {
        for (const auto &c : counters)
            if (c.name == name)
                return static_cast<int64_t>(c.value);
        return -1;
    };
    EXPECT_EQ(value("store.puts"), 1);
    EXPECT_GE(value("store.gets"), 1);
    EXPECT_EQ(value("store.checkpoints"), 1);
    EXPECT_GE(value("store.journal.entries"), 1);
    EXPECT_EQ(value("store.crashes"), 0);
}

} // namespace
} // namespace divot::store
