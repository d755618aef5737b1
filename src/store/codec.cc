#include "store/codec.hh"

#include <cstring>
#include <optional>

namespace divot::store {

uint64_t
fnv1a(const char *data, std::size_t n)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
fnv1a(const std::vector<char> &bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

void
putU64(std::vector<char> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putF64(std::vector<char> &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

void
putString(std::vector<char> &out, const std::string &s)
{
    putU64(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

void
putWaveform(std::vector<char> &out, const Waveform &w)
{
    putF64(out, w.dt());
    putF64(out, w.startTime());
    putU64(out, w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        putF64(out, w[i]);
}

bool
ByteReader::u64(uint64_t &v)
{
    if (pos_ + 8 > n_)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    return true;
}

bool
ByteReader::f64(double &v)
{
    uint64_t bits;
    if (!u64(bits))
        return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
}

bool
ByteReader::str(std::string &s)
{
    uint64_t len;
    if (!u64(len) || len > remaining())
        return false;
    s.assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return true;
}

bool
ByteReader::waveform(Waveform &w)
{
    double dt, t0;
    uint64_t n;
    if (!f64(dt) || !f64(t0) || !u64(n))
        return false;
    if (n > 0 && dt <= 0.0)
        return false;
    if (n > (1ull << 32) || n * 8 > remaining())
        return false;
    if (n == 0) {
        w = Waveform();
        return true;
    }
    std::vector<double> samples(n);
    for (auto &x : samples) {
        if (!f64(x))
            return false;
    }
    w = Waveform(dt, std::move(samples), t0);
    return true;
}

bool
ByteReader::raw(std::vector<char> &out, uint64_t len)
{
    if (len > remaining())
        return false;
    out.assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return true;
}

bool
ByteReader::skip(uint64_t len)
{
    if (len > remaining())
        return false;
    pos_ += len;
    return true;
}

std::size_t
EnrollmentRecord::residentBytes() const
{
    return sizeof(EnrollmentRecord) + id.size() + fp.label().size() +
           8 * (fp.raw().size() + fp.residual().size() +
                nominal.size());
}

namespace {

/** Append one record body with the fields `version` stores: v1/v2
 *  bodies end after the residual. */
void
putRecordBody(std::vector<char> &out, const EnrollmentRecord &record,
              uint32_t version)
{
    putString(out, record.id);
    putString(out, record.fp.label());
    putWaveform(out, record.fp.raw());
    putWaveform(out, record.fp.residual());
    if (version < kShardVersion)
        return;
    putWaveform(out, record.nominal);
    putU64(out, record.flags);
    putU64(out, record.generation);
}

/** Read one `version` record body into a fresh `rec`. */
bool
readRecordBody(ByteReader &br, uint32_t version, EnrollmentRecord &rec)
{
    std::string label;
    Waveform raw, residual;
    if (!br.str(rec.id) || !br.str(label) || !br.waveform(raw) ||
        !br.waveform(residual)) {
        return false;
    }
    if (version >= kShardVersion &&
        (!br.waveform(rec.nominal) || !br.u64(rec.flags) ||
         !br.u64(rec.generation))) {
        return false;
    }
    if (raw.empty())
        return false; // a record must carry a usable fingerprint
    rec.fp = Fingerprint::fromParts(std::move(raw), std::move(residual),
                                    std::move(label));
    return true;
}

/** Decode a whole framed body; `out` is untouched on failure. */
bool
decodeBody(const char *data, std::size_t n, uint32_t version,
           EnrollmentRecord &out)
{
    ByteReader br(data, n);
    EnrollmentRecord rec;
    if (!readRecordBody(br, version, rec) || !br.done())
        return false;
    out = std::move(rec);
    return true;
}

/** One `[bodyLen][body][fnv1a(body)]` record frame of a payload. */
struct Frame
{
    uint64_t index = 0;  //!< record position within the payload
    uint64_t offset = 0; //!< byte offset of the frame in the payload
    const char *body = nullptr;
    std::size_t length = 0;
    uint64_t crc = 0;

    bool intact() const { return fnv1a(body, length) == crc; }
};

/**
 * The record-frame walker: steps through a payload's frames after its
 * leading record count. Framing is lost — and the walk ends — when a
 * length field no longer fits what is left of the payload.
 */
class FrameWalker
{
  public:
    FrameWalker(const char *data, std::size_t n)
        : data_(data), reader_(data, n)
    {
        counted_ = reader_.u64(count_);
    }

    bool counted() const { return counted_; }
    uint64_t count() const { return count_; }
    bool lost() const { return lost_; }

    /**
     * Step to the next frame.
     *
     * @return false at the end of the payload, or when framing is lost
     *         (then `frame` holds the lost frame's index and offset)
     */
    bool
    next(Frame &frame)
    {
        if (!counted_ || lost_ || reader_.done())
            return false;
        frame.index = index_++;
        frame.offset = reader_.pos();
        uint64_t len = 0;
        // Overflow-safe frame guard: the length comes straight from the
        // medium, so a rotted value near 2^64 must not wrap the sum
        // past the real bound.
        if (!reader_.u64(len) || reader_.remaining() < 8 ||
            len > reader_.remaining() - 8) {
            lost_ = true;
            return false;
        }
        frame.body = data_ + reader_.pos();
        frame.length = static_cast<std::size_t>(len);
        reader_.skip(len);
        reader_.u64(frame.crc);
        return true;
    }

  private:
    const char *data_;
    ByteReader reader_;
    uint64_t count_ = 0;
    uint64_t index_ = 0;
    bool counted_ = false;
    bool lost_ = false;
};

/** v1 single-copy image: `[magicver][checksum][payload]`. */
bool
parseLegacyV1(const std::vector<char> &bytes,
              std::map<std::string, EnrollmentRecord> &out)
{
    if (bytes.size() < 16)
        return false;
    ByteReader hr(bytes.data(), 16);
    uint64_t magic_ver = 0, checksum = 0;
    hr.u64(magic_ver);
    hr.u64(checksum);
    if ((magic_ver & 0xffffffffu) != kStoreMagic ||
        (magic_ver >> 32) != kLegacyVersion) {
        return false;
    }
    if (fnv1a(bytes.data() + 16, bytes.size() - 16) != checksum)
        return false;

    // v1 records carry no per-record framing.
    ByteReader pr(bytes.data() + 16, bytes.size() - 16);
    uint64_t count = 0;
    if (!pr.u64(count))
        return false;
    std::map<std::string, EnrollmentRecord> loaded;
    for (uint64_t i = 0; i < count; ++i) {
        EnrollmentRecord rec;
        if (!readRecordBody(pr, kLegacyVersion, rec))
            return false;
        loaded[rec.id] = std::move(rec);
    }
    if (!pr.done())
        return false;
    out = std::move(loaded);
    return true;
}

} // namespace

std::vector<char>
encodeRecordBody(const EnrollmentRecord &record)
{
    std::vector<char> body;
    putRecordBody(body, record, kShardVersion);
    return body;
}

bool
decodeRecordBody(const std::vector<char> &body, EnrollmentRecord &out)
{
    return decodeBody(body.data(), body.size(), kShardVersion, out);
}

BankSpan
locateBank(const std::vector<char> &bytes, bool bank_b, uint32_t version)
{
    BankSpan span;
    const std::size_t size = bytes.size();
    // Bank A's payload may run to the end of the file; bank B's must
    // also clear bank A's header.
    const std::size_t frames = (bank_b ? 2 : 1) * kBankHeaderSize;
    if (size < frames)
        return span;
    ByteReader hr(bytes.data() + (bank_b ? size - kBankHeaderSize : 0),
                  kBankHeaderSize);
    uint64_t magic_ver = 0, len = 0, crc = 0;
    if (bank_b) {
        hr.u64(crc);
        hr.u64(len);
        hr.u64(magic_ver);
    } else {
        hr.u64(magic_ver);
        hr.u64(len);
        hr.u64(crc);
    }
    span.headerOk = (magic_ver & 0xffffffffu) == kStoreMagic &&
                    (magic_ver >> 32) == version && len <= size - frames;
    if (span.headerOk)
        span.length = static_cast<std::size_t>(len);
    else if (size >= 2 * kBankHeaderSize)
        span.length = (size - 2 * kBankHeaderSize) / 2; // midpoint
    else
        return span;
    span.offset = bank_b ? size - kBankHeaderSize - span.length
                         : kBankHeaderSize;
    span.located = true;
    span.crcOk = span.headerOk &&
                 fnv1a(bytes.data() + span.offset, span.length) == crc;
    return span;
}

WalkResult
walkPayload(const char *data, std::size_t n, uint32_t version)
{
    WalkResult result;
    FrameWalker walker(data, n);
    result.declaredCount = walker.count();
    Frame frame;
    while (walker.next(frame)) {
        EnrollmentRecord rec;
        if (frame.intact() &&
            decodeBody(frame.body, frame.length, version, rec)) {
            result.records.push_back(std::move(rec));
            continue;
        }
        RecordDamage dmg;
        dmg.index = frame.index;
        dmg.offset = frame.offset;
        // Best-effort id for the report: the id string leads the body
        // and often survives a corruption that lands elsewhere.
        ByteReader br(frame.body, frame.length);
        br.str(dmg.id);
        result.damaged.push_back(std::move(dmg));
        result.records.emplace_back(std::nullopt);
    }
    if (walker.lost()) {
        RecordDamage dmg;
        dmg.index = frame.index;
        dmg.offset = frame.offset;
        result.damaged.push_back(std::move(dmg));
    }
    result.clean = walker.counted() && result.damaged.empty() &&
                   result.records.size() == result.declaredCount;
    return result;
}

std::vector<char>
buildShardImage(const std::map<std::string, EnrollmentRecord> &records,
                uint32_t version)
{
    // Payload = record count, then per record [bodyLen][body][crc].
    std::vector<char> payload;
    std::vector<char> body;
    putU64(payload, records.size());
    for (const auto &[id, record] : records) {
        body.clear();
        putRecordBody(body, record, version);
        putU64(payload, body.size());
        payload.insert(payload.end(), body.begin(), body.end());
        putU64(payload, fnv1a(body));
    }
    const uint64_t magic_ver =
        (static_cast<uint64_t>(version) << 32) | kStoreMagic;
    const uint64_t crc = fnv1a(payload);

    std::vector<char> image;
    image.reserve(2 * payload.size() + 2 * kBankHeaderSize);
    putU64(image, magic_ver);
    putU64(image, payload.size());
    putU64(image, crc);
    image.insert(image.end(), payload.begin(), payload.end());
    image.insert(image.end(), payload.begin(), payload.end());
    putU64(image, crc);
    putU64(image, payload.size());
    putU64(image, magic_ver);
    return image;
}

ShardParseReport
parseShardImage(const std::vector<char> &bytes,
                std::map<std::string, EnrollmentRecord> &out,
                uint32_t version)
{
    ShardParseReport report;
    out.clear();
    if (bytes.size() < kBankHeaderSize) {
        report.detail = "image too short";
        return report;
    }

    const BankSpan a = locateBank(bytes, false, version);
    const BankSpan b = locateBank(bytes, true, version);
    // Bank health is reported independently of which bank serves the
    // read: the background scrub repairs latent standby-bank damage
    // long before the primary bank fails too.
    report.bankAHealthy = a.crcOk;
    report.bankBHealthy = b.crcOk;

    // Strict paths first: a verified whole-bank CRC means every record
    // inside is intact, so the walk is just deserialization.
    for (int bank = 0; bank < 2; ++bank) {
        const BankSpan &span = bank == 0 ? a : b;
        if (!span.crcOk)
            continue;
        WalkResult walk =
            walkPayload(bytes.data() + span.offset, span.length, version);
        if (!walk.clean)
            continue; // CRC collision with mangled framing
        for (auto &rec : walk.records) {
            EnrollmentRecord r = std::move(*rec);
            out[r.id] = std::move(r);
        }
        report.ok = true;
        report.bankUsed = bank;
        report.fellBack = bank == 1;
        report.records = out.size();
        if (bank == 1)
            report.detail = "bank A damaged; recovered from bank B";
        return report;
    }
    if (version < kShardVersion) {
        report.detail = "both banks damaged (or bad magic/version)";
        return report;
    }

    // Salvage: both whole-bank checks failed. Recover per record from
    // both banks; index i of bank A is the same record as index i of
    // bank B, so a record is lost only when both frames are damaged.
    WalkResult wa;
    if (a.located)
        wa = walkPayload(bytes.data() + a.offset, a.length, version);
    WalkResult wb;
    if (b.located)
        wb = walkPayload(bytes.data() + b.offset, b.length, version);
    report.damagedA = wa.damaged;
    report.damagedB = wb.damaged;

    std::size_t slots =
        std::max(wa.records.size(), wb.records.size());
    // A torn/truncated image can lose trailing frames in both banks;
    // the declared record count (when sane in either bank) tells us
    // how many records existed so the loss is reported, not silent.
    // (The count field itself can be the corrupted byte, so cap how
    // far it may extend the report: a count wildly beyond what the
    // frames support is damage, not information.)
    const std::size_t sane_bound =
        slots + wa.damaged.size() + wb.damaged.size() + 64;
    for (const WalkResult *walk : {&wa, &wb}) {
        if (walk->declaredCount <= sane_bound)
            slots = std::max(
                slots, static_cast<std::size_t>(walk->declaredCount));
    }
    if (slots == 0 && wa.damaged.empty() && wb.damaged.empty()) {
        report.detail = "both banks unreadable";
        return report;
    }
    for (std::size_t i = 0; i < slots; ++i) {
        const std::optional<EnrollmentRecord> *pick = nullptr;
        if (i < wa.records.size() && wa.records[i].has_value())
            pick = &wa.records[i];
        else if (i < wb.records.size() && wb.records[i].has_value())
            pick = &wb.records[i];
        if (pick != nullptr) {
            EnrollmentRecord r = **pick;
            out[r.id] = std::move(r);
            continue;
        }
        RecordDamage dmg;
        dmg.index = i;
        for (const auto &list : {wa.damaged, wb.damaged}) {
            for (const RecordDamage &d : list) {
                if (d.index == i) {
                    dmg.offset = d.offset;
                    if (dmg.id.empty())
                        dmg.id = d.id;
                }
            }
        }
        report.unrecoverable.push_back(std::move(dmg));
    }

    report.ok = true;
    report.bankUsed = 2;
    report.fellBack = true;
    report.salvaged = true;
    report.records = out.size();
    report.detail = "both banks damaged; per-record salvage recovered " +
                    std::to_string(out.size()) + " records, lost " +
                    std::to_string(report.unrecoverable.size());
    return report;
}

int
findShardRecord(const std::vector<char> &bytes, const std::string &id,
                EnrollmentRecord &out)
{
    bool damaged_hit = false;
    bool complete_walk = false;
    for (int bank = 0; bank < 2; ++bank) {
        const BankSpan span = locateBank(bytes, bank == 1, kShardVersion);
        if (!span.located)
            continue;
        FrameWalker walker(bytes.data() + span.offset, span.length);
        if (!walker.counted())
            continue;
        bool walked_all = true;
        Frame frame;
        while (walker.next(frame)) {
            // Peek the id (leads the body) before paying for the CRC.
            ByteReader br(frame.body, frame.length);
            std::string rec_id;
            if (!br.str(rec_id)) {
                walked_all = false; // mangled frame: ids beyond are
                continue;           // still reachable via framing
            }
            if (rec_id != id)
                continue;
            if (frame.intact() &&
                decodeBody(frame.body, frame.length, kShardVersion, out))
                return 1;
            damaged_hit = true;
        }
        complete_walk = complete_walk || (walked_all && !walker.lost());
    }
    if (damaged_hit)
        return -1;
    return complete_walk ? 0 : -1;
}

int
parseLegacyImage(const std::vector<char> &bytes,
                 std::map<std::string, EnrollmentRecord> &out)
{
    if (parseLegacyV1(bytes, out))
        return kLegacyVersion;
    std::map<std::string, EnrollmentRecord> records;
    if (!parseShardImage(bytes, records, kEpromVersion).ok)
        return 0;
    out = std::move(records);
    return kEpromVersion;
}

uint64_t
channelHash(const std::string &id)
{
    return fnv1a(id.data(), id.size());
}

} // namespace divot::store
