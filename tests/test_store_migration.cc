/**
 * @file
 * Migration and corruption fuzz tests across the three enrollment
 * persistence formats (v1 single-copy, v2 dual-bank EnrollmentStore,
 * v3 EnrollmentDb shard) plus the write-ahead journal.
 *
 * The invariant under every mutation — single byte flips at every
 * sampled offset, random multi-byte rot, junk and truncated journal
 * tails — is *never load junk*: a parse either fails (ok = false /
 * format 0), or every record it returns is byte-identical to the
 * original that was written under that id. Silent corruption of a
 * fingerprint is the one outcome the CRC framing exists to make
 * impossible.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "auth/enrollment.hh"
#include "service/request.hh"
#include "store/codec.hh"
#include "store/enrollment_db.hh"
#include "store/io.hh"
#include "util/rng.hh"

namespace divot::store {
namespace {

Fingerprint
fuzzFingerprint(double seed)
{
    Waveform raw(1e-12,
                 {seed, seed * 2.0, seed + 0.25, 1.0 - seed, seed});
    Waveform residual(1e-12, {0.4, -0.4, 0.4, -0.4, 0.2});
    return Fingerprint::fromParts(raw, residual,
                                  "lbl" + std::to_string(seed));
}

std::map<std::string, EnrollmentRecord>
originalRecords()
{
    std::map<std::string, EnrollmentRecord> records;
    for (int i = 0; i < 4; ++i) {
        EnrollmentRecord rec;
        rec.id = "mig" + std::to_string(i);
        rec.fp = fuzzFingerprint(i + 1.0);
        if (i % 2 == 0)
            rec.nominal = Waveform(1e-12, {1.0, 2.0});
        rec.generation = 1;
        records[rec.id] = rec;
    }
    return records;
}

/**
 * A temp path of the running test's own: `stem` suffixed with the
 * test's suite and name. gtest_discover_tests makes every test its
 * own ctest entry and `ctest -j` runs them as concurrent processes,
 * so a path two tests share lets one's setup delete what the other
 * is reading.
 */
std::string
testPath(const char *stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(::testing::TempDir()) + stem + "_" +
        info->test_suite_name() + "_" + info->name();
}

bool
matchesOriginal(const std::map<std::string, EnrollmentRecord> &orig,
                const std::string &id, const EnrollmentRecord &got)
{
    const auto it = orig.find(id);
    if (it == orig.end())
        return false;
    const EnrollmentRecord &want = it->second;
    // Legacy formats never stored nominal/flags/generation; those
    // fields import as defaults, so only the fingerprint is compared.
    return got.id == want.id &&
        got.fp.raw().samples() == want.fp.raw().samples() &&
        got.fp.residual().samples() == want.fp.residual().samples();
}

/** Build a v1 single-copy image by hand (nothing writes v1 anymore). */
std::vector<char>
buildV1Image(const std::map<std::string, EnrollmentRecord> &records)
{
    std::vector<char> payload;
    putU64(payload, records.size());
    for (const auto &[id, rec] : records) {
        putString(payload, id);
        putString(payload, rec.fp.label());
        putWaveform(payload, rec.fp.raw());
        putWaveform(payload, rec.fp.residual());
    }
    std::vector<char> image;
    putU64(image, (1ull << 32) | kStoreMagic);
    putU64(image, fnv1a(payload));
    image.insert(image.end(), payload.begin(), payload.end());
    return image;
}

/** Build a v2 dual-bank image through the real EnrollmentStore. */
std::vector<char>
buildV2Image(const std::map<std::string, EnrollmentRecord> &records)
{
    EnrollmentStore store;
    for (const auto &[id, rec] : records)
        store.enroll(id, rec.fp);
    const std::string path = testPath("mig_v2") + ".bin";
    EXPECT_TRUE(store.saveToFile(path));
    std::vector<char> image;
    EXPECT_TRUE(readFile(path, image));
    return image;
}

/** Parse `bytes` as any known format; every recovered record must
 *  match its original. @return true when something parsed */
void
expectNoJunk(const std::map<std::string, EnrollmentRecord> &orig,
             const std::vector<char> &bytes, const char *what,
             std::size_t pos)
{
    std::map<std::string, EnrollmentRecord> legacy;
    const int version = parseLegacyImage(bytes, legacy);
    if (version != 0) {
        for (const auto &[id, rec] : legacy)
            EXPECT_TRUE(matchesOriginal(orig, id, rec))
                << what << " byte " << pos << " id " << id;
    }
    std::map<std::string, EnrollmentRecord> shard;
    const ShardParseReport report = parseShardImage(bytes, shard);
    if (report.ok) {
        for (const auto &[id, rec] : shard)
            EXPECT_TRUE(matchesOriginal(orig, id, rec))
                << what << " byte " << pos << " id " << id;
    }
}

class StoreMigrationFuzz : public ::testing::Test
{
  protected:
    void
    fuzzImage(const std::vector<char> &image, const char *what,
              bool dual_bank)
    {
        const auto orig = originalRecords();

        // Single byte flip at every sampled offset.
        const std::size_t stride =
            std::max<std::size_t>(1, image.size() / 257);
        for (std::size_t pos = 0; pos < image.size(); pos += stride) {
            std::vector<char> bad = image;
            bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
            expectNoJunk(orig, bad, what, pos);
            if (dual_bank) {
                // One damaged byte must not lose a dual-bank image.
                std::map<std::string, EnrollmentRecord> out;
                const bool ok =
                    parseLegacyImage(bad, out) != 0 ||
                    parseShardImage(bad, out).ok;
                EXPECT_TRUE(ok) << what << " byte " << pos;
            }
        }

        // Random multi-byte rot.
        Rng rng(0xF0220u);
        for (int iter = 0; iter < 200; ++iter) {
            std::vector<char> bad = image;
            const unsigned flips =
                1 + static_cast<unsigned>(rng.uniformInt(8));
            for (unsigned f = 0; f < flips; ++f) {
                const std::size_t pos = static_cast<std::size_t>(
                    rng.uniformInt(bad.size()));
                bad[pos] = static_cast<char>(
                    bad[pos] ^ (1u << rng.uniformInt(8)));
            }
            expectNoJunk(orig, bad, what, iter);
        }

        // Truncations at arbitrary points.
        for (int iter = 0; iter < 32; ++iter) {
            const std::size_t keep = static_cast<std::size_t>(
                rng.uniformInt(image.size()));
            std::vector<char> bad(image.begin(),
                                  image.begin() + keep);
            expectNoJunk(orig, bad, what, keep);
        }
    }
};

TEST_F(StoreMigrationFuzz, V1ImageParsesCleanAndNeverLoadsJunk)
{
    const auto orig = originalRecords();
    const std::vector<char> image = buildV1Image(orig);

    std::map<std::string, EnrollmentRecord> out;
    ASSERT_EQ(parseLegacyImage(image, out), 1);
    ASSERT_EQ(out.size(), orig.size());
    for (const auto &[id, rec] : out)
        EXPECT_TRUE(matchesOriginal(orig, id, rec));

    fuzzImage(image, "v1", /*dual_bank=*/false);
}

TEST_F(StoreMigrationFuzz, V2ImageParsesCleanAndNeverLoadsJunk)
{
    const auto orig = originalRecords();
    const std::vector<char> image = buildV2Image(orig);

    std::map<std::string, EnrollmentRecord> out;
    ASSERT_EQ(parseLegacyImage(image, out), 2);
    ASSERT_EQ(out.size(), orig.size());

    fuzzImage(image, "v2", /*dual_bank=*/true);
}

TEST_F(StoreMigrationFuzz, V3ShardImageNeverLoadsJunk)
{
    const auto orig = originalRecords();
    const std::vector<char> image = buildShardImage(orig);

    std::map<std::string, EnrollmentRecord> out;
    ASSERT_TRUE(parseShardImage(image, out).ok);
    ASSERT_EQ(out.size(), orig.size());

    fuzzImage(image, "v3", /*dual_bank=*/true);
}

TEST_F(StoreMigrationFuzz, LegacyImagesImportIntoTheDb)
{
    const auto orig = originalRecords();
    const std::string dir =
        std::string(::testing::TempDir()) + "mig_import";
    ensureDir(dir);
    removeFile(dir + "/journal.wal");
    for (unsigned s = 0; s < 4; ++s)
        removeFile(dir + "/shard-" + std::to_string(s) + ".bin");

    EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    EnrollmentDb db(cfg);
    ASSERT_TRUE(db.open());

    EXPECT_EQ(db.importImage(buildV1Image(orig)), orig.size());
    for (const auto &[id, rec] : orig) {
        EnrollmentRecord got;
        ASSERT_EQ(db.get(id, got), DbGetStatus::Ok) << id;
        EXPECT_TRUE(matchesOriginal(orig, id, got)) << id;
    }

    // Re-import of the v2 flavor overwrites idempotently.
    EXPECT_EQ(db.importImage(buildV2Image(orig)), orig.size());
    for (const auto &[id, rec] : orig) {
        EnrollmentRecord got;
        ASSERT_EQ(db.get(id, got), DbGetStatus::Ok) << id;
        EXPECT_TRUE(matchesOriginal(orig, id, got)) << id;
    }
}

// --------------------------------------------------------------------
// Bit-identity pins: FNV-1a digests of every byte format the store and
// the request service write, for a fixed record set. Any change to a
// writer — a reordered field, a new padding byte, a different frame —
// moves a digest; a refactor of the codecs must keep all four.

TEST(StoreFormatPins, EpromImageBytes)
{
    EnrollmentStore store;
    for (const auto &[id, rec] : originalRecords())
        store.enroll(id, rec.fp);
    const std::string path =
        std::string(::testing::TempDir()) + "pin_eprom.bin";
    ASSERT_TRUE(store.saveToFile(path));
    std::vector<char> image;
    ASSERT_TRUE(readFile(path, image));
    EXPECT_EQ(image.size(), 1464u);
    EXPECT_EQ(fnv1a(image), 0x7e120e576771cfc5ULL);
    std::remove(path.c_str());
}

TEST(StoreFormatPins, ShardImageBytes)
{
    const std::vector<char> image = buildShardImage(originalRecords());
    EXPECT_EQ(image.size(), 1848u);
    EXPECT_EQ(fnv1a(image), 0x44538cac98a4b385ULL);
}

TEST(StoreFormatPins, JournalBytesAfterTwoPuts)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "pin_journal";
    ensureDir(dir);
    removeFile(dir + "/journal.wal");
    for (unsigned s = 0; s < 4; ++s)
        removeFile(dir + "/shard-" + std::to_string(s) + ".bin");
    EnrollmentDbConfig cfg;
    cfg.directory = dir;
    cfg.shards = 4;
    {
        EnrollmentDb db(cfg);
        ASSERT_TRUE(db.open());
        const auto orig = originalRecords();
        ASSERT_TRUE(db.put(orig.at("mig0")));
        ASSERT_TRUE(db.put(orig.at("mig1")));
    }
    std::vector<char> journal;
    ASSERT_TRUE(readFile(dir + "/journal.wal", journal));
    EXPECT_EQ(journal.size(), 478u);
    EXPECT_EQ(fnv1a(journal), 0x3923c1e448f2f2bcULL);
}

TEST(StoreFormatPins, DivqRequestAndResponseFrames)
{
    service::ServiceRequest rq;
    rq.id = 0x1234;
    rq.kind = service::RequestKind::Verify;
    rq.channel = "mig2";
    std::vector<char> request;
    service::appendRequestFrame(request, rq);
    EXPECT_EQ(request.size(), 52u);
    EXPECT_EQ(fnv1a(request), 0x6e1a59990251d6c0ULL);

    service::ServiceResponse rs;
    rs.id = 0x1234;
    rs.kind = service::RequestKind::Verify;
    rs.status = service::ResponseStatus::Ok;
    rs.tick = 17;
    rs.channel = "mig2";
    rs.state = 1;
    rs.phase = 2;
    rs.flags = service::kResponseAuthenticated;
    rs.similarity = 0.875;
    rs.generation = 3;
    rs.channels = 4;
    rs.fenced = 1;
    rs.quarantined = 1;
    std::vector<char> response;
    service::appendResponseFrame(response, rs);
    EXPECT_EQ(response.size(), 132u);
    EXPECT_EQ(fnv1a(response), 0xecab42d0d9216464ULL);
}

/**
 * Point-lookup oracle: every findShardRecord answer over a damage
 * sweep of a 3-record v3 image (a 0x5A XOR at each offset, then an
 * 8-byte stuck-at-1 window at each offset) for the three ids and one
 * absent id, folded into one digest with the body of every hit.
 */
TEST(StoreFormatPins, FindShardRecordDamageSweep)
{
    std::map<std::string, EnrollmentRecord> records = originalRecords();
    records.erase("mig3");
    const std::vector<char> pristine = buildShardImage(records);
    ASSERT_EQ(pristine.size(), 1418u);

    const char *const ids[] = {"mig0", "mig1", "mig2", "absent"};
    std::vector<char> trace;
    const auto lookupAll = [&](const std::vector<char> &image) {
        for (const char *id : ids) {
            EnrollmentRecord out;
            const int code = findShardRecord(image, id, out);
            putU64(trace, static_cast<uint64_t>(code));
            if (code == 1)
                putU64(trace, fnv1a(encodeRecordBody(out)));
        }
    };
    for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
        std::vector<char> image = pristine;
        image[pos] = static_cast<char>(image[pos] ^ 0x5a);
        lookupAll(image);
    }
    for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
        std::vector<char> image = pristine;
        for (std::size_t i = pos; i < pos + 8 && i < image.size(); ++i)
            image[i] = static_cast<char>(0xff);
        lookupAll(image);
    }
    EXPECT_EQ(fnv1a(trace), 0x454f931637c9b2c5ULL);
}

// --------------------------------------------------------------------
// Journal-tail fuzz: whatever lands after (or inside) the framed
// entries, open() recovers the intact prefix and discards the rest.

class JournalTailFuzz : public ::testing::Test
{
  protected:
    std::string dir_;
    EnrollmentDbConfig cfg_;

    void
    SetUp() override
    {
        dir_ = testPath("mig_journal");
        ensureDir(dir_);
        removeFile(dir_ + "/journal.wal");
        for (unsigned s = 0; s < 4; ++s) {
            removeFile(dir_ + "/shard-" + std::to_string(s) + ".bin");
            removeFile(dir_ + "/shard-" + std::to_string(s) +
                       ".bin.tmp");
        }
        cfg_.directory = dir_;
        cfg_.shards = 4;
        cfg_.overlayFlushRecords = 100; // keep everything journaled
    }

    void
    seedJournal()
    {
        EnrollmentDb db(cfg_);
        ASSERT_TRUE(db.open());
        const auto orig = originalRecords();
        for (const auto &[id, rec] : orig)
            ASSERT_TRUE(db.put(rec));
    }

    void
    verifyNoJunk()
    {
        const auto orig = originalRecords();
        EnrollmentDb db(cfg_);
        ASSERT_TRUE(db.open());
        for (const auto &[id, rec] : orig) {
            EnrollmentRecord got;
            const DbGetStatus st = db.get(id, got);
            if (st == DbGetStatus::Ok)
                EXPECT_TRUE(matchesOriginal(orig, id, got)) << id;
            else
                EXPECT_EQ(st, DbGetStatus::Missing) << id;
        }
        // The journal frames cleanly again: new mutations land.
        EnrollmentRecord fresh;
        fresh.id = "fresh";
        fresh.fp = fuzzFingerprint(9.0);
        EXPECT_TRUE(db.put(fresh));
    }
};

TEST_F(JournalTailFuzz, JunkTailIsDiscarded)
{
    seedJournal();
    std::ofstream out(dir_ + "/journal.wal",
                      std::ios::binary | std::ios::app);
    Rng rng(77);
    for (int i = 0; i < 100; ++i)
        out.put(static_cast<char>(rng.uniformInt(256)));
    out.close();

    verifyNoJunk();
}

TEST_F(JournalTailFuzz, TruncatedFinalEntryIsDiscarded)
{
    seedJournal();
    const int64_t size = fileSize(dir_ + "/journal.wal");
    ASSERT_GT(size, 20);
    ASSERT_TRUE(truncateFile(dir_ + "/journal.wal",
                             static_cast<uint64_t>(size - 13)));

    const auto orig = originalRecords();
    EnrollmentDb db(cfg_);
    ASSERT_TRUE(db.open());
    // All but the last record replay; the torn one vanishes whole.
    EXPECT_EQ(db.replayedEntries(), orig.size() - 1);
    verifyNoJunk();
}

TEST_F(JournalTailFuzz, RottedMidEntryIsSkippedNotFatal)
{
    seedJournal();
    std::vector<char> journal;
    ASSERT_TRUE(readFile(dir_ + "/journal.wal", journal));
    // Flip a byte inside the first entry's body (headers start with
    // the magic at offset 0; the body begins at 24).
    ASSERT_GT(journal.size(), 64u);
    journal[40] = static_cast<char>(journal[40] ^ 0x10);
    ASSERT_TRUE(atomicWriteFile(dir_ + "/journal.wal", journal));

    const auto orig = originalRecords();
    EnrollmentDb db(cfg_);
    ASSERT_TRUE(db.open());
    // The rotted entry is skipped; every later entry still replays.
    EXPECT_EQ(db.replayedEntries(), orig.size() - 1);
    verifyNoJunk();
}

TEST_F(JournalTailFuzz, RandomTailBytesNeverLoadJunk)
{
    Rng rng(0xBEEF);
    for (int iter = 0; iter < 20; ++iter) {
        SetUp();
        seedJournal();
        std::ofstream out(dir_ + "/journal.wal",
                          std::ios::binary | std::ios::app);
        const int n = 1 + static_cast<int>(rng.uniformInt(60));
        for (int i = 0; i < n; ++i)
            out.put(static_cast<char>(rng.uniformInt(256)));
        out.close();
        verifyNoJunk();
    }
}

} // namespace
} // namespace divot::store
