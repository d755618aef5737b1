/**
 * @file
 * The enrollment image codec: the one module that knows every
 * enrollment persistence format.
 *
 *  - v1: legacy single-copy EPROM image (read-only compatibility).
 *  - v2: the dual-bank EPROM image EnrollmentStore writes.
 *  - v3: EnrollmentDb shard images — the same dual-bank + per-record
 *    CRC discipline, with a richer record body (nominal response,
 *    lifecycle flags, generation counter) so a fleet channel can be
 *    rehydrated without re-deriving anything.
 *
 * The dual-bank frame is bootloader-style: bank A is framed from the
 * front of the image (`[magicver][len][crc][payload]`), bank B from
 * the end with the trailer fields mirrored in reverse, so the two
 * banks never share bytes and any single corrupted byte damages
 * exactly one of them. Inside a payload every record is individually
 * CRC-framed (`[bodyLen][body][fnv1a(body)]`), which is what lets a
 * reader say "record 3 at offset 217 is bad" instead of "bank A is
 * bad". v2 and v3 share one builder, one bank locator and one
 * record-frame walker; the version selects the record body and the
 * recovery policy:
 *
 *  - bank A is located from its header whenever its declared payload
 *    fits behind it, so a cut anywhere past bank A's payload (even
 *    one that leaves bank B's trailer short) costs no record;
 *  - v2 images are all-or-nothing per bank: bank A, else bank B, else
 *    nothing — the EPROM never loads a partial calibration set;
 *  - v3 shard images add per-record salvage across both banks when
 *    neither bank verifies whole.
 */

#ifndef DIVOT_STORE_CODEC_HH
#define DIVOT_STORE_CODEC_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.hh"
#include "signal/waveform.hh"

namespace divot::store {

/** FNV-1a over a byte range — the integrity check of every frame. */
uint64_t fnv1a(const char *data, std::size_t n);
uint64_t fnv1a(const std::vector<char> &bytes);

/** @name Little-endian primitive writers. */
///@{
void putU64(std::vector<char> &out, uint64_t v);
void putF64(std::vector<char> &out, double v);
void putString(std::vector<char> &out, const std::string &s);
void putWaveform(std::vector<char> &out, const Waveform &w);
///@}

/** Bounds-checked sequential reader over a byte range. */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t n) : data_(data), n_(n) {}
    explicit ByteReader(const std::vector<char> &bytes)
        : data_(bytes.data()), n_(bytes.size())
    {}

    bool u64(uint64_t &v);
    bool f64(double &v);
    bool str(std::string &s);
    bool waveform(Waveform &w);
    bool raw(std::vector<char> &out, uint64_t len);
    bool skip(uint64_t len);

    bool done() const { return pos_ == n_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return n_ - pos_; }

  private:
    const char *data_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

/** Lifecycle flags persisted with a record. */
enum RecordFlag : uint64_t
{
    kRecordQuarantined = 1u << 0,    //!< operator fenced the channel
    kRecordPendingReenroll = 1u << 1 //!< calibration lost; must re-enroll
};

/** One durable enrollment record (shard-image currency). */
struct EnrollmentRecord
{
    std::string id;       //!< channel identifier (db key)
    Fingerprint fp;       //!< enrollment fingerprint
    Waveform nominal;     //!< nominal design response (may be empty)
    uint64_t flags = 0;   //!< RecordFlag bits
    uint64_t generation = 0; //!< bumped on every re-calibration

    /** @return approximate resident footprint, bytes. */
    std::size_t residentBytes() const;
};

/** Serialize / parse one v3 record body (no CRC frame). */
std::vector<char> encodeRecordBody(const EnrollmentRecord &record);
bool decodeRecordBody(const std::vector<char> &body,
                      EnrollmentRecord &out);

/** Magic of every enrollment image; the high word is the version. */
constexpr uint32_t kStoreMagic = 0x44495654; // "DIVT"
constexpr uint32_t kLegacyVersion = 1; //!< single-copy EPROM image
constexpr uint32_t kEpromVersion = 2;  //!< dual-bank EPROM image
constexpr uint32_t kShardVersion = 3;  //!< dual-bank shard image
constexpr std::size_t kBankHeaderSize = 24; // magic/ver + len + crc

/** Where damage landed, for operator-facing reports. */
struct RecordDamage
{
    uint64_t index = 0;  //!< record position within the payload
    uint64_t offset = 0; //!< byte offset of the frame in the payload
    std::string id;      //!< channel id when the body was parseable
};

/** Outcome of reading one dual-bank shard image. */
struct ShardParseReport
{
    bool ok = false;        //!< at least one complete bank verified,
                            //!< or salvage recovered records
    int bankUsed = -1;      //!< 0 = A, 1 = B, 2 = salvage merge
    bool fellBack = false;  //!< bank A failed whole-bank verification
    bool salvaged = false;  //!< both banks failed; per-record salvage
    bool bankAHealthy = false; //!< bank A located and whole-bank CRC ok
    bool bankBHealthy = false; //!< bank B located and whole-bank CRC ok
    uint64_t records = 0;   //!< records recovered
    std::vector<RecordDamage> damagedA; //!< bad frames seen in bank A
    std::vector<RecordDamage> damagedB; //!< bad frames seen in bank B
    std::vector<RecordDamage> unrecoverable; //!< bad in both banks
    std::string detail;     //!< human-readable cause
};

/** Where one bank's payload sits inside a dual-bank image. */
struct BankSpan
{
    bool located = false;  //!< span lies inside the image
    bool headerOk = false; //!< magic/version match and the length fits
    bool crcOk = false;    //!< header ok and the whole-bank CRC verifies
    std::size_t offset = 0;
    std::size_t length = 0;
};

/**
 * Locate bank A (or B) of a `version` image. A header is trusted when
 * its magic/version match and its declared payload fits: bank A's
 * between its header and the end of the file, bank B's between bank
 * A's header and its own trailer. Otherwise the span falls back to the
 * structural midpoint (both banks carry the same payload, so an
 * undamaged image splits evenly between the two 24-byte frames) for
 * salvage walks.
 */
BankSpan locateBank(const std::vector<char> &bytes, bool bank_b,
                    uint32_t version);

/** Result of a lenient frame walk over one bank's payload bytes. */
struct WalkResult
{
    uint64_t declaredCount = 0; //!< leading count field (0 if absent)
    std::vector<std::optional<EnrollmentRecord>> records; //!< by index
    std::vector<RecordDamage> damaged; //!< in walk order
    bool clean = false; //!< every frame verified and walk consumed all
};

/**
 * Walk a payload's record frames, decoding `version` bodies and
 * recovering every record whose CRC verifies. Damage is localized: a
 * bad CRC with plausible framing skips to the next frame (its slot in
 * `records` stays empty); implausible framing ends the walk with a
 * last `damaged` entry that has no slot (frames cannot be
 * resynchronized without their length prefix).
 */
WalkResult walkPayload(const char *data, std::size_t n, uint32_t version);

/** Build a dual-bank image (v3 shard, or v2 EPROM) from a record map. */
std::vector<char>
buildShardImage(const std::map<std::string, EnrollmentRecord> &records,
                uint32_t version = kShardVersion);

/**
 * Parse a dual-bank image: bank A strict, then bank B strict. For a
 * v3 shard, per-record salvage across both banks follows: it recovers
 * every record whose CRC frame verifies in either bank, and frames
 * damaged in both are reported in `unrecoverable` (by payload
 * index/offset, with the id when the body is still parseable). A v2
 * image never salvages.
 *
 * @return report; `out` holds the recovered records (empty on ok=false)
 */
ShardParseReport
parseShardImage(const std::vector<char> &bytes,
                std::map<std::string, EnrollmentRecord> &out,
                uint32_t version = kShardVersion);

/**
 * Scan a shard image for a single record without materializing the
 * rest of the shard — the hydration hot path. Tries bank A's frame
 * walk first, then bank B's.
 *
 * @return 1 = found (out filled), 0 = provably absent, -1 = the
 *         record's frames are damaged in every readable bank
 */
int findShardRecord(const std::vector<char> &bytes,
                    const std::string &id, EnrollmentRecord &out);

/**
 * Parse an EPROM image into records: v1 (single-copy, whole-image
 * checksum) or v2 (dual-bank, bank A then bank B). Its records carry
 * an empty nominal response and zero flags/generation — the fields
 * the EPROM formats never stored.
 *
 * @return detected format version (1 or 2) on success, 0 when the
 *         bytes parse as neither (out untouched)
 */
int parseLegacyImage(const std::vector<char> &bytes,
                     std::map<std::string, EnrollmentRecord> &out);

/**
 * 64-bit stable hash of a channel id (FNV-1a): shard selection must
 * not depend on std::hash, whose value is implementation-defined.
 */
uint64_t channelHash(const std::string &id);

} // namespace divot::store

#endif // DIVOT_STORE_CODEC_HH
