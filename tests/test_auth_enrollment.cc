/**
 * @file
 * Tests for the EPROM-model enrollment store and its binary
 * persistence with integrity checking.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "auth/enrollment.hh"

namespace divot {
namespace {

Fingerprint
dummyFingerprint(double seed)
{
    Waveform raw(1e-12, {seed, seed + 1.0, seed + 2.0});
    Waveform residual(1e-12, {0.1, -0.2, 0.1});
    return Fingerprint::fromParts(raw, residual,
                                  "fp" + std::to_string(seed));
}

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(EnrollmentStore, EnrollAndLookup)
{
    EnrollmentStore store;
    EXPECT_TRUE(store.enroll("dimm0.clk", dummyFingerprint(1.0)));
    EXPECT_TRUE(store.contains("dimm0.clk"));
    EXPECT_FALSE(store.contains("dimm1.clk"));
    const auto fp = store.lookup("dimm0.clk");
    ASSERT_TRUE(fp.has_value());
    EXPECT_EQ(fp->label(), "fp1.000000");
    EXPECT_EQ(store.size(), 1u);
}

TEST(EnrollmentStore, MissingLookupIsEmpty)
{
    EnrollmentStore store;
    EXPECT_FALSE(store.lookup("ghost").has_value());
}

TEST(EnrollmentStore, RefusesSilentOverwrite)
{
    EnrollmentStore store;
    EXPECT_TRUE(store.enroll("ch", dummyFingerprint(1.0)));
    EXPECT_FALSE(store.enroll("ch", dummyFingerprint(2.0)));
    EXPECT_DOUBLE_EQ(store.lookup("ch")->raw()[0], 1.0);
    EXPECT_TRUE(store.enroll("ch", dummyFingerprint(2.0), true));
    EXPECT_DOUBLE_EQ(store.lookup("ch")->raw()[0], 2.0);
}

TEST(EnrollmentStore, SaveLoadRoundtrip)
{
    const std::string path = tmpPath("store_roundtrip.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    store.enroll("b", dummyFingerprint(5.0));
    ASSERT_TRUE(store.saveToFile(path));

    EnrollmentStore loaded;
    ASSERT_TRUE(loaded.loadFromFile(path));
    EXPECT_EQ(loaded.size(), 2u);
    const auto a = loaded.lookup("a");
    ASSERT_TRUE(a.has_value());
    EXPECT_DOUBLE_EQ(a->raw()[2], 3.0);
    EXPECT_DOUBLE_EQ(a->residual()[1], -0.2);
    EXPECT_DOUBLE_EQ(a->raw().dt(), 1e-12);
    std::remove(path.c_str());
}

TEST(EnrollmentStore, LoadMissingFileFails)
{
    EnrollmentStore store;
    EXPECT_FALSE(store.loadFromFile("/nonexistent/path/store.bin"));
}

TEST(EnrollmentStore, CorruptedBankAFallsBackToBankB)
{
    const std::string path = tmpPath("store_corrupt.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    ASSERT_TRUE(store.saveToFile(path));

    // Flip a byte inside bank A's payload: the dual-bank image must
    // recover from the untouched copy at the end of the file.
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(40);
    char c;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(static_cast<char>(c ^ 0x5a));
    f.close();

    EnrollmentStore loaded;
    const EpromLoadReport rep = loaded.loadWithReport(path, false);
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.fellBack);
    EXPECT_EQ(rep.bankUsed, 1);
    ASSERT_TRUE(loaded.contains("a"));
    EXPECT_DOUBLE_EQ(loaded.lookup("a")->raw()[2], 3.0);
    std::remove(path.c_str());
}

TEST(EnrollmentStore, BothBanksDamagedRejected)
{
    const std::string path = tmpPath("store_corrupt2.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    ASSERT_TRUE(store.saveToFile(path));

    // Damage both copies: one byte in bank A's payload and one in
    // bank B's (the mirrored payload near the end of the file).
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekg(0, std::ios::end);
    const long size = static_cast<long>(f.tellg());
    for (long pos : {40L, size - 40L}) {
        char c;
        f.seekg(pos);
        f.get(c);
        f.seekp(pos);
        f.put(static_cast<char>(c ^ 0x5a));
    }
    f.close();

    EnrollmentStore loaded;
    loaded.enroll("keep", dummyFingerprint(9.0));
    EXPECT_FALSE(loaded.loadFromFile(path));
    // Failed load must not clobber existing contents.
    EXPECT_TRUE(loaded.contains("keep"));
    EXPECT_EQ(loaded.size(), 1u);
    std::remove(path.c_str());
}

TEST(EnrollmentStore, ScrubRewritesImageAfterFallback)
{
    const std::string path = tmpPath("store_scrub.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    ASSERT_TRUE(store.saveToFile(path));

    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(30);
    f.put('\x7f');
    f.close();

    EnrollmentStore loaded;
    const EpromLoadReport rep = loaded.loadWithReport(path, true);
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.fellBack);
    EXPECT_TRUE(rep.scrubbed);

    // After the scrub, bank A is pristine again.
    EnrollmentStore reloaded;
    const EpromLoadReport rep2 = reloaded.loadWithReport(path, false);
    EXPECT_TRUE(rep2.ok);
    EXPECT_FALSE(rep2.fellBack);
    EXPECT_EQ(rep2.bankUsed, 0);
    std::remove(path.c_str());
}

TEST(EnrollmentStore, BadMagicRejected)
{
    const std::string path = tmpPath("store_magic.bin");
    std::ofstream out(path, std::ios::binary);
    const std::string junk(64, 'x');
    out.write(junk.data(), static_cast<long>(junk.size()));
    out.close();
    EnrollmentStore store;
    EXPECT_FALSE(store.loadFromFile(path));
    std::remove(path.c_str());
}

TEST(EnrollmentStore, SeverelyTruncatedFileRejected)
{
    const std::string path = tmpPath("store_trunc.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    ASSERT_TRUE(store.saveToFile(path));
    // Cut deep into bank A with bank B's trailer gone: nothing left
    // to recover from.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<long>(bytes.size() / 4));
    out.close();
    EnrollmentStore loaded;
    EXPECT_FALSE(loaded.loadFromFile(path));
    std::remove(path.c_str());
}

TEST(EnrollmentStore, CorruptionFuzzEveryOffset)
{
    // Exhaustive single-event corruption: truncate the image at every
    // length and bit-flip every byte. Each trial must either recover
    // the original records exactly or fail and leave the in-memory
    // store untouched — never load garbage, never crash.
    const std::string path = tmpPath("store_fuzz.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    store.enroll("b", dummyFingerprint(5.0));
    ASSERT_TRUE(store.saveToFile(path));

    std::string image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(image.size(), 48u);

    auto writeImage = [&](const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<long>(bytes.size()));
    };
    auto checkTrial = [&](const std::string &what, std::size_t pos) {
        EnrollmentStore loaded;
        loaded.enroll("sentinel", dummyFingerprint(9.0));
        const EpromLoadReport rep = loaded.loadWithReport(path, false);
        if (rep.ok) {
            ASSERT_EQ(loaded.size(), 2u) << what << " @ " << pos;
            ASSERT_TRUE(loaded.contains("a")) << what << " @ " << pos;
            ASSERT_TRUE(loaded.contains("b")) << what << " @ " << pos;
            ASSERT_DOUBLE_EQ(loaded.lookup("b")->raw()[0], 5.0)
                << what << " @ " << pos;
        } else {
            // Strong exception safety: prior contents intact.
            ASSERT_EQ(loaded.size(), 1u) << what << " @ " << pos;
            ASSERT_TRUE(loaded.contains("sentinel"))
                << what << " @ " << pos;
        }
    };

    // Truncation at every length (0 .. size-1).
    for (std::size_t len = 0; len < image.size(); ++len) {
        writeImage(image.substr(0, len));
        checkTrial("truncate", len);
    }

    // Bit flip at every byte. A single-byte flip damages exactly one
    // bank, so every one of these must recover.
    for (std::size_t pos = 0; pos < image.size(); ++pos) {
        std::string bad = image;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x80);
        writeImage(bad);
        EnrollmentStore loaded;
        const EpromLoadReport rep = loaded.loadWithReport(path, false);
        ASSERT_TRUE(rep.ok) << "bit flip @ " << pos << ": "
                            << rep.detail;
        ASSERT_EQ(loaded.size(), 2u) << "bit flip @ " << pos;
        ASSERT_DOUBLE_EQ(loaded.lookup("a")->raw()[2], 3.0)
            << "bit flip @ " << pos;
    }

    // Stuck-at-1 window: eight 0xFF bytes at every offset, enough to
    // turn any length field into ~2^64. A window inside one bank
    // leaves the other bank intact, so those trials must recover; a
    // window straddling the bank boundary may fail, but only cleanly.
    const std::size_t bankA = 24 + (image.size() - 48) / 2;
    for (std::size_t pos = 0; pos + 8 <= image.size(); ++pos) {
        std::string bad = image;
        bad.replace(pos, 8, 8, '\xff');
        writeImage(bad);
        checkTrial("stuck-at-1", pos);
        if (pos + 8 <= bankA || pos >= bankA) {
            EnrollmentStore loaded;
            const EpromLoadReport rep = loaded.loadWithReport(path, false);
            ASSERT_TRUE(rep.ok) << "stuck-at-1 @ " << pos << ": "
                                << rep.detail;
            ASSERT_DOUBLE_EQ(loaded.lookup("a")->raw()[2], 3.0)
                << "stuck-at-1 @ " << pos;
        }
    }
    std::remove(path.c_str());
}

TEST(EnrollmentStore, ClearEmpties)
{
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains("a"));
}

TEST(EnrollmentStore, EnrollInvalidFingerprintFatal)
{
    EnrollmentStore store;
    Fingerprint invalid;
    EXPECT_DEATH(store.enroll("ch", invalid), "invalid");
}

namespace {

/** Read the whole image, apply `mutate`, write it back. */
void
editImage(const std::string &path,
          const std::function<void(std::string &)> &mutate)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    mutate(bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(EnrollmentStore, ScrubCrashMidRewriteLeavesImageLoadable)
{
    const std::string path = tmpPath("store_scrub_crash.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    ASSERT_TRUE(store.saveToFile(path));
    editImage(path, [](std::string &bytes) {
        bytes[40] = static_cast<char>(bytes[40] ^ 0x5a);
    });

    // Power cut between writing the scrub temp file and the rename:
    // the original (bank-B-recoverable) image must survive intact.
    store::WriteFault cut;
    cut.crashBeforeRename = true;
    EnrollmentStore loaded;
    loaded.setSaveFault(cut);
    const EpromLoadReport rep = loaded.loadWithReport(path, true);
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.fellBack);
    EXPECT_FALSE(rep.scrubbed); // the rewrite did not commit
    EXPECT_TRUE(loaded.contains("a"));

    // A fresh reader still recovers everything from the old image.
    EnrollmentStore after;
    const EpromLoadReport rep2 = after.loadWithReport(path, false);
    EXPECT_TRUE(rep2.ok);
    EXPECT_TRUE(rep2.fellBack); // bank A damage is still there
    ASSERT_TRUE(after.contains("a"));
    EXPECT_DOUBLE_EQ(after.lookup("a")->raw()[2], 3.0);

    // Torn scrub write: same guarantee.
    store::WriteFault torn;
    torn.tornAfterBytes = 16;
    EnrollmentStore tornLoad;
    tornLoad.setSaveFault(torn);
    const EpromLoadReport rep3 = tornLoad.loadWithReport(path, true);
    EXPECT_TRUE(rep3.ok);
    EXPECT_FALSE(rep3.scrubbed);
    EnrollmentStore after3;
    EXPECT_TRUE(after3.loadWithReport(path, false).ok);

    // Without the fault the scrub commits and bank A heals.
    EnrollmentStore healer;
    const EpromLoadReport rep4 = healer.loadWithReport(path, true);
    EXPECT_TRUE(rep4.ok);
    EXPECT_TRUE(rep4.scrubbed);
    EnrollmentStore clean;
    const EpromLoadReport rep5 = clean.loadWithReport(path, false);
    EXPECT_TRUE(rep5.ok);
    EXPECT_FALSE(rep5.fellBack);
    EXPECT_EQ(rep5.bankUsed, 0);
    std::remove(path.c_str());
}

TEST(EnrollmentStore, FallbackReportsTheFailingRecord)
{
    const std::string path = tmpPath("store_diag.bin");
    EnrollmentStore store;
    store.enroll("a.ch", dummyFingerprint(1.0));
    store.enroll("b.ch", dummyFingerprint(2.0));
    ASSERT_TRUE(store.saveToFile(path));

    // Corrupt a byte inside record 1's body in bank A (the first
    // occurrence of its id lives in bank A's payload; +30 lands well
    // inside the record body, past the id bytes).
    editImage(path, [](std::string &bytes) {
        const std::size_t pos = bytes.find("b.ch");
        ASSERT_NE(pos, std::string::npos);
        bytes[pos + 30] = static_cast<char>(bytes[pos + 30] ^ 0x11);
    });

    EnrollmentStore loaded;
    const EpromLoadReport rep = loaded.loadWithReport(path, false);
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.fellBack);
    EXPECT_EQ(rep.failedRecordIndex, 1);
    EXPECT_GT(rep.failedRecordOffset, 0);
    EXPECT_EQ(rep.failedRecordId, "b.ch");
    EXPECT_NE(rep.detail.find("bank A record 1"), std::string::npos)
        << rep.detail;
    std::remove(path.c_str());
}

TEST(EnrollmentStore, HeaderDamageReportsBankLevelDetail)
{
    const std::string path = tmpPath("store_diag_hdr.bin");
    EnrollmentStore store;
    store.enroll("a", dummyFingerprint(1.0));
    ASSERT_TRUE(store.saveToFile(path));

    // Flip the whole-bank CRC field: no single record is at fault.
    editImage(path, [](std::string &bytes) {
        bytes[16] = static_cast<char>(bytes[16] ^ 0x01);
    });

    EnrollmentStore loaded;
    const EpromLoadReport rep = loaded.loadWithReport(path, false);
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.fellBack);
    EXPECT_EQ(rep.failedRecordIndex, -1);
    EXPECT_NE(rep.detail.find("bank A"), std::string::npos)
        << rep.detail;
    std::remove(path.c_str());
}

} // namespace
} // namespace divot
