#include "store/enrollment_db.hh"

#include <algorithm>
#include <cstdio>
#include <set>

#include "store/io.hh"
#include "util/logging.hh"

namespace divot::store {

namespace {

constexpr uint32_t kJournalMagic = 0x4C414A44; // "DJAL"
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpErase = 2;

/** Interpret a StorageFault as the WriteFault for one physical write. */
WriteFault
writeFaultFor(const StorageFault &fault, std::size_t bytes,
              bool is_commit)
{
    WriteFault wf;
    if (fault.torn) {
        double f = fault.tornFraction;
        if (f < 0.0)
            f = 0.0;
        if (f > 1.0)
            f = 1.0;
        wf.tornAfterBytes =
            static_cast<int64_t>(f * static_cast<double>(bytes));
    }
    if (fault.crash) {
        if (fault.crashPoint == StorageCrashPoint::BeforeWrite)
            wf.crashBeforeWrite = true;
        else if (is_commit &&
                 fault.crashPoint == StorageCrashPoint::BeforeCommit)
            wf.crashBeforeRename = true;
    }
    return wf;
}

/** @return true when the parse saw any damage at all. */
bool
imageDamaged(const ShardParseReport &report)
{
    return !report.ok || report.fellBack || report.salvaged ||
           !report.damagedA.empty() || !report.damagedB.empty() ||
           !report.bankAHealthy || !report.bankBHealthy;
}

/**
 * @return true when a damaged image yielded no records AND named no
 * lost record — the parse failed outright, the framing is so mangled
 * the record count is unknowable, or every lost frame is anonymous (a
 * zero-filled image reads as hundreds of empty frames that fail their
 * CRC). Rewriting such an image would destroy every record it held
 * without naming one of them.
 */
bool
imageUnreadable(const ShardParseReport &report, std::size_t recovered)
{
    return imageDamaged(report) && recovered == 0 &&
           std::none_of(report.unrecoverable.begin(),
                        report.unrecoverable.end(),
                        [](const RecordDamage &dmg) {
                            return !dmg.id.empty();
                        });
}

} // namespace

EnrollmentDb::EnrollmentDb(EnrollmentDbConfig config)
    : config_(std::move(config))
{
    if (config_.shards == 0)
        config_.shards = 1;
    overlays_.resize(config_.shards);
    deferredImageSync_.assign(config_.shards, false);
    if (config_.shardCacheBytes > 0) {
        ShardCacheConfig cc;
        cc.budgetBytes = config_.shardCacheBytes;
        cc.shards = config_.shards;
        cc.lanes = config_.shardCacheLanes;
        cache_ = std::make_unique<ShardImageCache>(cc);
    }
}

std::string
EnrollmentDb::shardPath(unsigned shard) const
{
    return config_.directory + "/shard-" + std::to_string(shard) +
           ".bin";
}

std::string
EnrollmentDb::journalPath() const
{
    return config_.directory + "/journal.wal";
}

unsigned
EnrollmentDb::shardOf(const std::string &id) const
{
    return static_cast<unsigned>(channelHash(id) %
                                 config_.shards);
}

bool
EnrollmentDb::open()
{
    if (!dirExists(config_.directory)) {
        divot_warn("enrollment db directory '%s' does not exist",
                   config_.directory.c_str());
        return false;
    }
    opened_ = true;
    // Deferred image data syncs are legal only while the journal can
    // rebuild every image from scratch — i.e. no image predates this
    // journal. A fresh directory qualifies; reopening over existing
    // images (normal restart or crash recovery) conservatively does
    // not.
    journalCoversImages_ = true;
    for (unsigned s = 0; s < config_.shards && journalCoversImages_;
         ++s) {
        if (fileExists(shardPath(s)))
            journalCoversImages_ = false;
    }
    if (!replayJournal()) {
        opened_ = false;
        divot_warn("enrollment journal '%s' exists but cannot be read",
                   journalPath().c_str());
        return false;
    }
    return true;
}

void
EnrollmentDb::attachFaultInjector(const FaultInjector *injector)
{
    injector_ = injector != nullptr && injector->hasStorageFaults()
        ? injector : nullptr;
}

void
EnrollmentDb::attachTelemetry(Telemetry *telemetry)
{
    if (telemetry == nullptr || !telemetry->enabled()) {
        telemetry_ = nullptr;
        return;
    }
    telemetry_ = telemetry;
    Registry &reg = telemetry->registry();
    tmPuts_ = reg.counter("store.puts");
    tmGets_ = reg.counter("store.gets");
    tmGetDamaged_ = reg.counter("store.gets.damaged");
    tmFlushes_ = reg.counter("store.shard.flushes");
    tmCheckpoints_ = reg.counter("store.checkpoints");
    tmJournalEntries_ = reg.counter("store.journal.entries");
    tmJournalReplays_ = reg.counter("store.journal.replays");
    tmScrubPasses_ = reg.counter("store.scrub.passes");
    tmScrubRepairs_ = reg.counter("store.scrub.repairs");
    tmScrubLost_ = reg.counter("store.scrub.lost_records");
    tmCrashes_ = reg.counter("store.crashes");
    if (cache_ != nullptr)
        cache_->attachTelemetry(telemetry);
}

bool
EnrollmentDb::loadShardView(unsigned shard, ShardView &view)
{
    std::vector<char> bytes;
    if (!readFile(shardPath(shard), bytes) || bytes.empty())
        return false;
    const ShardParseReport report = parseShardImage(bytes, view.records);
    view.clean = !imageDamaged(report);
    return true;
}

std::shared_ptr<const ShardView>
EnrollmentDb::shardView(unsigned shard, bool *from_cache)
{
    if (shard >= config_.shards)
        return nullptr;
    const auto loader = [this, shard](ShardView &view) {
        return loadShardView(shard, view);
    };
    if (cache_ != nullptr)
        return cache_->acquire(shard, loader, from_cache);
    if (from_cache != nullptr)
        *from_cache = false;
    auto view = std::make_shared<ShardView>();
    if (!loader(*view))
        return nullptr;
    view->accountBytes();
    return view;
}

void
EnrollmentDb::setShardCacheLanes(unsigned lanes)
{
    config_.shardCacheLanes = lanes == 0 ? 1 : lanes;
    if (cache_ != nullptr)
        cache_->configureLanes(config_.shardCacheLanes);
}

ShardCacheStats
EnrollmentDb::cacheStats() const
{
    return cache_ != nullptr ? cache_->stats() : ShardCacheStats{};
}

void
EnrollmentDb::settleDurability()
{
    for (unsigned s = 0; s < config_.shards; ++s) {
        if (deferredImageSync_[s]) {
            syncFileData(shardPath(s));
            deferredImageSync_[s] = false;
        }
    }
    if (!pendingDirSync_)
        return;
    syncDir(config_.directory);
    pendingDirSync_ = false;
}

StorageFault
EnrollmentDb::faultFor(uint64_t event) const
{
    if (injector_ == nullptr)
        return StorageFault{};
    return injector_->storageFrameFor(event);
}

bool
EnrollmentDb::appendJournal(uint8_t op, const std::vector<char> &body,
                            const StorageFault &fault)
{
    std::vector<char> entry;
    entry.reserve(body.size() + 40);
    putU64(entry, (static_cast<uint64_t>(op) << 32) | kJournalMagic);
    putU64(entry, journalSeq_);
    putU64(entry, body.size());
    entry.insert(entry.end(), body.begin(), body.end());
    putU64(entry, fnv1a(body));

    const WriteFault wf = writeFaultFor(fault, entry.size(), false);
    // Group commit keeps the journal handle open across appends —
    // one open()/close() per epoch instead of one per record; the
    // durability model (flushed, never fsynced, torn tails detected
    // on replay) is byte-identical either way.
    const bool ok = config_.journalGroupCommit
        ? journalStream_.append(journalPath(), entry, &wf)
        : appendFile(journalPath(), entry, &wf);
    if (fault.torn || wf.crashBeforeWrite) {
        // Power cut mid-append: whatever prefix landed is a torn tail
        // the next open() will detect and discard.
        dead_ = true;
        tmCrashes_.add();
        return false;
    }
    if (!ok)
        return false;
    ++journalSeq_;
    journalBytes_ += entry.size();
    tmJournalEntries_.add();
    return true;
}

bool
EnrollmentDb::replayJournal()
{
    std::vector<char> bytes;
    if (!readFile(journalPath(), bytes)) {
        // A journal that exists but cannot be read holds mutations no
        // image has yet; opening without them would lose them at the
        // next checkpoint's truncate.
        return !fileExists(journalPath());
    }
    if (bytes.empty())
        return true;

    ByteReader pr(bytes);
    uint64_t applied = 0;
    std::size_t good_end = 0;
    while (!pr.done()) {
        uint64_t header = 0, seq = 0, body_len = 0;
        if (!pr.u64(header) || (header & 0xffffffffu) != kJournalMagic)
            break; // framing lost: torn tail starts here
        const uint8_t op = static_cast<uint8_t>(header >> 32);
        if (op != kOpPut && op != kOpErase)
            break;
        if (!pr.u64(seq) || !pr.u64(body_len) ||
            pr.remaining() < 8 || body_len > pr.remaining() - 8) {
            // Entry runs off the end of the file (overflow-safe: a
            // rotted length near 2^64 must not wrap past the bound).
            break; // torn tail
        }
        std::vector<char> body;
        uint64_t crc = 0;
        if (!pr.raw(body, body_len) || !pr.u64(crc))
            break; // short read despite the guard: treat as torn tail
        good_end = pr.pos();
        journalSeq_ = seq + 1;
        if (fnv1a(body) != crc)
            continue; // framing intact, payload rotted: skip the entry

        if (op == kOpPut) {
            EnrollmentRecord rec;
            if (!decodeRecordBody(body, rec))
                continue;
            overlays_[shardOf(rec.id)][rec.id] = std::move(rec);
        } else {
            ByteReader br(body);
            std::string id;
            if (!br.str(id) || !br.done())
                continue;
            overlays_[shardOf(id)][id] = std::nullopt;
        }
        ++applied;
    }

    if (good_end < bytes.size()) {
        // Drop the torn tail so later appends frame cleanly again.
        journalStream_.close();
        truncateFile(journalPath(), good_end);
        divot_warn("enrollment journal '%s': discarded %zu torn tail "
                   "bytes", journalPath().c_str(),
                   bytes.size() - good_end);
    }
    journalBytes_ = good_end;
    replayed_ = applied;
    if (applied > 0)
        tmJournalReplays_.add();
    return true;
}

bool
EnrollmentDb::flushShard(unsigned shard, const StorageFault &fault)
{
    Overlay &overlay = overlays_[shard];
    std::map<std::string, EnrollmentRecord> records;
    const std::shared_ptr<const ShardView> cached =
        cache_ != nullptr ? cache_->peek(shard) : nullptr;
    if (cached != nullptr && cached->clean) {
        // Fast path: a clean cached view is byte-coherent with the
        // on-disk image (every rewrite write-through-updates it, every
        // injected damage invalidates it), so the read + lenient parse
        // of a growing image — the dominant cost of enrollment at
        // fleet scale — is skipped entirely.
        records = cached->records;
    } else {
        std::vector<char> bytes;
        // An image that exists but cannot be read (EIO, EISDIR) is
        // not an empty shard: flushing over it would drop its records.
        bool unreadable = !readFile(shardPath(shard), bytes) &&
                          fileExists(shardPath(shard));
        if (!bytes.empty()) {
            // Lenient parse: keep whatever verifies in either bank.
            const ShardParseReport report =
                parseShardImage(bytes, records);
            unreadable = imageUnreadable(report, records.size());
        }
        if (unreadable) {
            // The overlay must still flush, but overwriting an image
            // that yielded nothing would silently destroy whatever it
            // held. Move the bytes aside for forensics first; their
            // channels surface as Missing/Unrecoverable and re-enroll.
            if (cache_ != nullptr)
                cache_->invalidate(shard);
            std::rename(shardPath(shard).c_str(),
                        (shardPath(shard) + ".corrupt").c_str());
            divot_warn("shard %u image unreadable; preserved as "
                       "'%s.corrupt' before rewrite",
                       shard, shardPath(shard).c_str());
        }
    }

    for (const auto &[id, pending] : overlay) {
        if (pending.has_value())
            records[id] = *pending;
        else
            records.erase(id);
    }
    const std::vector<char> image = buildShardImage(records);
    const WriteFault wf = writeFaultFor(fault, image.size(), true);
    // Group commit batches the directory sync per epoch; while the
    // journal still covers every image record (cold enroll into a
    // fresh directory) the data sync defers to the checkpoint too —
    // a crash in between replays the full journal over whatever
    // prefix of the images survived.
    const bool defer_data =
        config_.journalGroupCommit && journalCoversImages_;
    if (!atomicWriteFile(shardPath(shard), image, &wf,
                         /*sync_dir=*/!config_.journalGroupCommit,
                         /*sync_data=*/!defer_data))
        return false;
    if (config_.journalGroupCommit)
        pendingDirSync_ = true;
    if (defer_data)
        deferredImageSync_[shard] = true;
    if (cache_ != nullptr) {
        ShardView fresh;
        fresh.records = std::move(records);
        fresh.clean = true;
        cache_->update(shard, std::move(fresh));
    }
    overlay.clear();
    tmFlushes_.add();
    return true;
}

void
EnrollmentDb::applyPostWriteDamage(const StorageFault &fault,
                                   unsigned shard)
{
    // Medium damage lands on the shard image when one exists (that is
    // where scrub repair earns its keep), else on the journal.
    const bool on_image = fileExists(shardPath(shard));
    const std::string target = on_image ? shardPath(shard)
                                        : journalPath();
    if (on_image && cache_ != nullptr &&
        (fault.bitRotBits > 0 || fault.truncate)) {
        // The cached decoded view no longer matches the medium; the
        // next reader must re-decode the rotted bytes.
        cache_->invalidate(shard);
    }
    if (fault.bitRotBits > 0) {
        Rng rot = fault.rotRng;
        std::vector<StuckBit> bits;
        bits.reserve(fault.bitRotBits);
        for (uint64_t i = 0; i < fault.bitRotBits; ++i) {
            StuckBit sb;
            sb.offset = rot.uniformInt(1u << 30);
            sb.bit = static_cast<unsigned>(rot.uniformInt(8));
            sb.level = static_cast<int>(rot.uniformInt(2));
            bits.push_back(sb);
        }
        applyStuckBits(target, bits);
    }
    if (fault.truncate) {
        const int64_t size = fileSize(target);
        if (size > 0) {
            double keep = fault.truncateKeep;
            if (keep < 0.0)
                keep = 0.0;
            if (keep > 1.0)
                keep = 1.0;
            truncateFile(target, static_cast<uint64_t>(
                keep * static_cast<double>(size)));
        }
    }
}

bool
EnrollmentDb::mutate(uint8_t op, const std::string &id,
                     const EnrollmentRecord *record)
{
    if (dead_ || !opened_)
        return false;

    const StorageFault fault = faultFor(ioEvent_++);
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::BeforeWrite) {
        dead_ = true;
        tmCrashes_.add();
        return false;
    }

    std::vector<char> body;
    if (op == kOpPut) {
        body = encodeRecordBody(*record);
    } else {
        putString(body, id);
    }
    if (!appendJournal(op, body, fault))
        return false;
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::AfterJournal) {
        // The journal entry is durable; the in-memory apply never
        // happens. Replay recovers the mutation on the next open.
        dead_ = true;
        tmCrashes_.add();
        return false;
    }

    const unsigned shard = shardOf(id);
    if (op == kOpPut)
        overlays_[shard][id] = *record;
    else
        overlays_[shard][id] = std::nullopt;

    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::BeforeCommit) {
        // Force the commit attempt so the cut lands between the temp
        // image and the rename — the crash-matrix cell the dual path
        // (intact old image + replayable journal) must cover.
        flushShard(shard, fault);
        dead_ = true;
        tmCrashes_.add();
        return false;
    }

    bool durable = true;
    if (overlays_[shard].size() >= config_.overlayFlushRecords)
        durable = flushShard(shard, StorageFault{});
    applyPostWriteDamage(fault, shard);
    if (durable && journalBytes_ >= config_.journalCheckpointBytes) {
        for (unsigned s = 0; s < config_.shards && durable; ++s) {
            if (!overlays_[s].empty())
                durable = flushShard(s, StorageFault{});
        }
        if (durable) {
            // Group commit: every rename this epoch deferred its
            // directory sync (and, while the journal covered the
            // images, its data sync); pin them all now, while the
            // journal can still replay anything a lost entry would
            // resurface over.
            settleDurability();
            journalStream_.close();
            truncateFile(journalPath(), 0);
            journalBytes_ = 0;
            journalCoversImages_ = false;
            tmCheckpoints_.add();
        }
    }

    // Count the put before the AfterCommit cut below: the mutation is
    // durable at this point, so it belongs in store.puts even when the
    // process doesn't survive the tick.
    if (op == kOpPut)
        tmPuts_.add();
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::AfterCommit) {
        dead_ = true;
        tmCrashes_.add();
        // The mutation is durable (journaled, possibly flushed); the
        // process just doesn't survive to do anything else.
        return true;
    }
    return true;
}

bool
EnrollmentDb::put(const EnrollmentRecord &record)
{
    if (record.id.empty() || !record.fp.valid()) {
        divot_warn("enrollment db: refusing invalid record '%s'",
                   record.id.c_str());
        return false;
    }
    return mutate(kOpPut, record.id, &record);
}

bool
EnrollmentDb::erase(const std::string &id)
{
    return mutate(kOpErase, id, nullptr);
}

bool
EnrollmentDb::setFlags(const std::string &id, uint64_t flags)
{
    EnrollmentRecord rec;
    if (get(id, rec) != DbGetStatus::Ok)
        return false;
    if (rec.flags == flags)
        return true;
    rec.flags = flags;
    return put(rec);
}

DbGetStatus
EnrollmentDb::get(const std::string &id, EnrollmentRecord &out)
{
    tmGets_.add();
    const unsigned shard = shardOf(id);
    const Overlay &overlay = overlays_[shard];
    const auto it = overlay.find(id);
    if (it != overlay.end()) {
        if (!it->second.has_value())
            return DbGetStatus::Missing;
        out = *it->second;
        return DbGetStatus::Ok;
    }

    if (cache_ != nullptr) {
        const auto view = cache_->acquire(
            shard,
            [this, shard](ShardView &v) {
                return loadShardView(shard, v);
            });
        if (view != nullptr) {
            const auto vit = view->records.find(id);
            if (vit != view->records.end()) {
                out = vit->second;
                return DbGetStatus::Ok;
            }
            if (view->clean)
                return DbGetStatus::Missing; // provable: whole image read
        }
        // Damaged image and the id isn't among the salvaged records:
        // only the targeted frame scan can distinguish "never written"
        // from "written but damaged in every bank". No view at all:
        // the read below tells a missing image from an unreadable one.
        // Fall through.
    }

    std::vector<char> bytes;
    if (!readFile(shardPath(shard), bytes) &&
        fileExists(shardPath(shard))) {
        // The image is there but cannot be read: that proves nothing
        // about the record, so it is damage, not absence.
        tmGetDamaged_.add();
        return DbGetStatus::Unrecoverable;
    }
    if (bytes.empty())
        return DbGetStatus::Missing;
    const int found = findShardRecord(bytes, id, out);
    if (found == 1)
        return DbGetStatus::Ok;
    if (found == 0)
        return DbGetStatus::Missing;
    tmGetDamaged_.add();
    return DbGetStatus::Unrecoverable;
}

bool
EnrollmentDb::checkpoint()
{
    if (dead_ || !opened_)
        return false;
    const StorageFault fault = faultFor(ioEvent_++);
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::BeforeWrite) {
        dead_ = true;
        tmCrashes_.add();
        return false;
    }
    bool first = true;
    for (unsigned s = 0; s < config_.shards; ++s) {
        if (overlays_[s].empty())
            continue;
        // The fault frame targets the first physical write of the
        // operation; later flushes run clean so one scheduled cell
        // interrupts exactly one commit.
        if (!flushShard(s, first ? fault : StorageFault{}))
            return false;
        if (first && (fault.torn || fault.crash)) {
            dead_ = true;
            tmCrashes_.add();
            return false;
        }
        first = false;
    }
    settleDurability();
    journalStream_.close();
    truncateFile(journalPath(), 0);
    journalCoversImages_ = false;
    journalBytes_ = 0;
    tmCheckpoints_.add();
    if (fault.crash &&
        fault.crashPoint == StorageCrashPoint::AfterCommit) {
        dead_ = true;
        tmCrashes_.add();
    }
    return true;
}

ScrubResult
EnrollmentDb::scrubShard(unsigned shard)
{
    ScrubResult result;
    result.shard = shard;
    if (shard >= config_.shards || dead_ || !opened_)
        return result;
    tmScrubPasses_.add();

    std::vector<char> bytes;
    if (!readFile(shardPath(shard), bytes) || bytes.empty())
        return result;
    result.scanned = true;

    std::map<std::string, EnrollmentRecord> records;
    const ShardParseReport report = parseShardImage(bytes, records);
    for (const RecordDamage &dmg : report.unrecoverable) {
        if (!dmg.id.empty())
            result.lostIds.push_back(dmg.id);
        else
            ++result.lostUnnamed;
    }
    if (!imageDamaged(report))
        return result; // pristine image: nothing to repair
    if (imageUnreadable(report, records.size())) {
        // Nothing in the image could be recovered and no lost record
        // could be named (parse failed outright, the framing is
        // mangled beyond accounting, or every lost frame is
        // anonymous). Rewriting from the empty recovered map would
        // destroy every record in the shard without naming one of
        // them — exactly the silent wipe this layer must never do.
        // Leave the file untouched (point lookups keep returning
        // Unrecoverable, and the bytes stay available for forensics)
        // and surface the wholesale loss so the fleet can demote the
        // shard's channels immediately instead of at their next
        // probe.
        result.unreadable = true;
        return result;
    }

    // Rewrite a pristine dual-bank image from everything recoverable
    // (salvaged records plus this shard's pending overlay), so the
    // next corruption again has a healthy sibling bank to fall back
    // on. Unrecoverable records are dropped — their channels must
    // re-enroll — but never silently: the result reports them.
    for (const auto &[id, pending] : overlays_[shard]) {
        if (pending.has_value())
            records[id] = *pending;
        else
            records.erase(id);
    }
    const std::vector<char> image = buildShardImage(records);
    const StorageFault fault = faultFor(ioEvent_++);
    const WriteFault wf = writeFaultFor(fault, image.size(), true);
    if (!atomicWriteFile(shardPath(shard), image, &wf)) {
        if (fault.torn || fault.crash) {
            dead_ = true;
            tmCrashes_.add();
        }
        return result;
    }
    if (cache_ != nullptr) {
        // The rewrite is the shard's new pristine image; write it
        // through so no reader ever sees pre-scrub salvage state.
        ShardView fresh;
        fresh.records = std::move(records);
        fresh.clean = true;
        cache_->update(shard, std::move(fresh));
    }
    overlays_[shard].clear();
    applyPostWriteDamage(fault, shard);
    result.repaired = true;
    tmScrubRepairs_.add();
    tmScrubLost_.add(result.lostIds.size() + result.lostUnnamed);
    return result;
}

ScrubResult
EnrollmentDb::scrubStep()
{
    const unsigned shard = scrubCursor_;
    scrubCursor_ = (scrubCursor_ + 1) % config_.shards;
    return scrubShard(shard);
}

uint64_t
EnrollmentDb::importImage(const std::vector<char> &bytes)
{
    std::map<std::string, EnrollmentRecord> records;
    if (parseLegacyImage(bytes, records) == 0) {
        const ShardParseReport report = parseShardImage(bytes, records);
        if (!report.ok)
            return 0;
    }
    uint64_t imported = 0;
    for (const auto &[id, record] : records) {
        if (put(record))
            ++imported;
    }
    return imported;
}

std::vector<std::string>
EnrollmentDb::ids()
{
    std::set<std::string> all;
    for (unsigned s = 0; s < config_.shards; ++s) {
        std::vector<char> bytes;
        if (readFile(shardPath(s), bytes) && !bytes.empty()) {
            std::map<std::string, EnrollmentRecord> records;
            parseShardImage(bytes, records);
            for (const auto &[id, record] : records)
                all.insert(id);
        }
        for (const auto &[id, pending] : overlays_[s]) {
            if (pending.has_value())
                all.insert(id);
            else
                all.erase(id);
        }
    }
    return {all.begin(), all.end()};
}

} // namespace divot::store
