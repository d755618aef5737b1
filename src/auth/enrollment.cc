#include "auth/enrollment.hh"

#include <vector>

#include "util/logging.hh"

namespace divot {

namespace {

/**
 * Lenient bank-A walk run only after the strict read failed: locate
 * the first record frame that no longer verifies so the operator
 * learns *which* calibration burned, not just "bank A damaged".
 * Offsets are payload-relative (frame start); the id is best-effort —
 * it leads the record body and usually survives a corruption that
 * landed elsewhere in the frame.
 */
void
diagnoseBankA(const std::vector<char> &bytes, EpromLoadReport &report)
{
    const store::BankSpan a =
        store::locateBank(bytes, false, store::kEpromVersion);
    if (!a.headerOk) {
        report.detail += " (bank A header/framing damaged)";
        return;
    }
    const store::WalkResult walk = store::walkPayload(
        bytes.data() + a.offset, a.length, store::kEpromVersion);
    if (walk.damaged.empty()) {
        report.detail += " (bank A whole-bank checksum failed)";
        return;
    }
    const store::RecordDamage &dmg = walk.damaged.front();
    report.failedRecordIndex = static_cast<int64_t>(dmg.index);
    report.failedRecordOffset = static_cast<int64_t>(dmg.offset);
    report.failedRecordId = dmg.id;
    report.detail += " (bank A record " + std::to_string(dmg.index) +
                     " at offset " + std::to_string(dmg.offset);
    if (!dmg.id.empty())
        report.detail += ", id '" + dmg.id + "'";
    // A frame with a slot in `records` kept its framing.
    report.detail += dmg.index < walk.records.size()
        ? " failed its CRC)"
        : " lost its framing)";
}

} // namespace

bool
EnrollmentStore::enroll(const std::string &channel, Fingerprint fp,
                        bool overwrite)
{
    if (!fp.valid())
        divot_fatal("enrolling invalid fingerprint for channel '%s'",
                    channel.c_str());
    if (!overwrite && store_.count(channel)) {
        divot_warn("channel '%s' already enrolled; refusing overwrite",
                   channel.c_str());
        return false;
    }
    store::EnrollmentRecord &record = store_[channel];
    record.id = channel;
    record.fp = std::move(fp);
    return true;
}

std::optional<Fingerprint>
EnrollmentStore::lookup(const std::string &channel) const
{
    const auto it = store_.find(channel);
    if (it == store_.end())
        return std::nullopt;
    return it->second.fp;
}

bool
EnrollmentStore::contains(const std::string &channel) const
{
    return store_.count(channel) != 0;
}

bool
EnrollmentStore::saveToFile(const std::string &path) const
{
    // Atomic replace (temp sibling + flush + rename): a power cut
    // mid-save — including mid-*scrub*, where the file being replaced
    // is the only copy of the fleet's calibrations — leaves either the
    // previous image or the new one, never a torn hybrid.
    const store::WriteFault *fault =
        saveFault_.has_value() ? &*saveFault_ : nullptr;
    return store::atomicWriteFile(
        path, store::buildShardImage(store_, store::kEpromVersion), fault);
}

bool
EnrollmentStore::loadFromFile(const std::string &path)
{
    return loadWithReport(path).ok;
}

EpromLoadReport
EnrollmentStore::loadWithReport(const std::string &path,
                                bool scrub_on_fallback)
{
    EpromLoadReport report;
    std::vector<char> bytes;
    if (!store::readFile(path, bytes)) {
        report.detail = "file not readable";
        return report;
    }

    // Build into a local map and swap only on success, so a damaged
    // image never disturbs the in-memory store.
    std::map<std::string, store::EnrollmentRecord> loaded;
    const store::ShardParseReport parse =
        store::parseShardImage(bytes, loaded, store::kEpromVersion);
    if (!parse.ok) {
        if (store::parseLegacyImage(bytes, loaded) ==
            static_cast<int>(store::kLegacyVersion)) {
            report.ok = true;
            report.records = loaded.size();
            report.detail = "legacy v1 single-copy image";
            store_ = std::move(loaded);
            return report;
        }
        report.detail = parse.detail;
        diagnoseBankA(bytes, report);
        divot_warn("enrollment file '%s' failed integrity check in both "
                   "banks", path.c_str());
        return report;
    }

    report.ok = true;
    report.bankUsed = parse.bankUsed;
    report.fellBack = parse.fellBack;
    report.records = loaded.size();
    store_ = std::move(loaded);
    if (!parse.fellBack)
        return report;
    report.detail = parse.detail;
    diagnoseBankA(bytes, report);
    divot_warn("enrollment file '%s': %s", path.c_str(),
               report.detail.c_str());
    if (scrub_on_fallback) {
        // Scrub: rewrite a pristine dual-bank image so the next
        // corruption again has a healthy sibling to fall back on.
        report.scrubbed = saveToFile(path);
        if (!report.scrubbed) {
            divot_warn("enrollment file '%s': scrub rewrite failed",
                       path.c_str());
        }
    }
    return report;
}

} // namespace divot
