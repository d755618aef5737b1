/**
 * @file
 * Crash-safe sharded enrollment database.
 *
 * `EnrollmentDb` generalizes the single-file dual-bank EnrollmentStore
 * (PR 2) to fleet scale: records are distributed across N shard files
 * keyed by a stable hash of the channel id, every shard is the same
 * dual-bank + per-record-CRC image, and all of it sits behind a
 * write-ahead journal so each mutation (enroll, re-calibrate,
 * quarantine flag, erase) is atomic across power cuts:
 *
 *   1. the mutation is appended to `journal.wal` (CRC-framed, so a
 *      torn tail is detected and discarded on replay);
 *   2. it lands in the owning shard's in-memory overlay;
 *   3. overlays flush to their shard image (atomic temp+rename
 *      rewrite) when they grow past `overlayFlushRecords`, and the
 *      journal truncates at a checkpoint once every overlay has
 *      flushed.
 *
 * A crash at any point leaves either the old state or the new state
 * reachable: un-flushed mutations replay from the journal on the next
 * open; a torn shard rewrite leaves the abandoned temp file beside an
 * intact image. Memory stays bounded — overlays never exceed the
 * flush threshold and reads (`get`) scan the shard file for one
 * record instead of materializing the shard.
 *
 * Storage faults are injected through the same deterministic
 * `FaultInjector` the instruments use: each mutating operation
 * consumes one IO-event index, and `storageFrameFor(event)` decides
 * whether that operation is torn, crashed at a chosen commit point,
 * bit-rotted, or truncated. A simulated power cut marks the db dead
 * (`alive()` false, every later call refuses); recovery is a fresh
 * EnrollmentDb on the same directory.
 *
 * See DESIGN.md §14 for the shard layout, journal format, and crash
 * matrix.
 */

#ifndef DIVOT_STORE_ENROLLMENT_DB_HH
#define DIVOT_STORE_ENROLLMENT_DB_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "store/codec.hh"
#include "store/io.hh"
#include "store/shard_cache.hh"
#include "telemetry/telemetry.hh"

namespace divot::store {

/** Tunables for one EnrollmentDb. */
struct EnrollmentDbConfig
{
    std::string directory;      //!< shard + journal directory (must exist)
    unsigned shards = 16;       //!< shard file count (fixed at creation)
    uint64_t overlayFlushRecords = 64; //!< per-shard overlay size
                                       //!< triggering a shard flush
    uint64_t journalCheckpointBytes = 1u << 20; //!< journal size
                                                //!< triggering checkpoint

    /** Decoded-image cache budget, bytes; 0 keeps the classic
     *  read-per-lookup path (see shard_cache.hh). */
    std::size_t shardCacheBytes = 0;

    /** Cache lane partition; the fleet reconfigures this to its
     *  hydration-lane count via setShardCacheLanes(). */
    unsigned shardCacheLanes = 1;

    /**
     * Group commit: defer the directory fsync of shard-image renames
     * to one `syncDir` per flush epoch, issued before the journal
     * truncates at a checkpoint. The temp-file fsync still runs on
     * every rewrite, so each image is old-or-new; a power cut that
     * loses a deferred directory entry merely resurfaces the old
     * image, and the still-intact journal replays the difference.
     */
    bool journalGroupCommit = false;
};

/** Outcome of a point lookup. */
enum class DbGetStatus
{
    Ok,            //!< record returned
    Missing,       //!< provably not in the database
    Unrecoverable, //!< frames damaged in every bank — channel must
                   //!< re-enroll
};

/** Outcome of scrubbing one shard. */
struct ScrubResult
{
    unsigned shard = 0;    //!< shard index that was examined
    bool scanned = false;  //!< shard file existed and was examined
    bool repaired = false; //!< image was rewritten from recovered records
    bool unreadable = false; //!< image yielded nothing recoverable and
                             //!< named no lost record; the
                             //!< file is left untouched for forensics
                             //!< and every record in the shard must be
                             //!< presumed lost (owner should fence all
                             //!< channels routed to this shard)
    std::vector<std::string> lostIds; //!< records damaged beyond repair
                                      //!< (ids only when parseable)
    uint64_t lostUnnamed = 0; //!< unrecoverable records with no
                              //!< readable id (owner should fence
                              //!< the shard's channels it can no
                              //!< longer serve)
};

/**
 * The sharded enrollment database. Not thread-safe: callers mutate it
 * from serial sections only (the fleet scheduler's fold phase, bench
 * enrollment loops), which also keeps the IO-event sequence — and
 * therefore every injected storage fault — deterministic.
 */
class EnrollmentDb
{
  public:
    explicit EnrollmentDb(EnrollmentDbConfig config);

    /**
     * Open the database: validate the directory, replay any journal
     * tail left by a crash (torn entries are detected by their CRC
     * frame and truncated away), and prime per-shard bookkeeping.
     *
     * @return false when the directory is unusable, or when a journal
     *         exists but cannot be read (its mutations would be lost)
     */
    bool open();

    /** @return false once a simulated power cut has hit this handle. */
    bool alive() const { return !dead_; }

    /**
     * Insert or replace a record (journal append + overlay; may
     * trigger a shard flush and a checkpoint).
     *
     * @return true when the mutation is durable (journaled or
     *         flushed; see io.hh for the journal's power-cut sync
     *         model); false on a crash/torn fault or dead handle
     */
    bool put(const EnrollmentRecord &record);

    /** Remove a record (tombstone through the same journal path). */
    bool erase(const std::string &id);

    /**
     * Update just the lifecycle flags of an existing record.
     *
     * @return false when the record is missing/unrecoverable or the
     *         rewrite faulted
     */
    bool setFlags(const std::string &id, uint64_t flags);

    /**
     * Point lookup: overlay first, then the decoded-image cache when
     * one is configured (a miss in a *clean* cached view is a provable
     * Missing; a miss in a damaged view falls back to the targeted
     * frame scan so Missing vs Unrecoverable stays exact), else a
     * targeted frame scan of the shard image (no full-shard
     * materialization). A shard image that exists but cannot be read
     * (EIO, EISDIR) answers Unrecoverable, never Missing.
     */
    DbGetStatus get(const std::string &id, EnrollmentRecord &out);

    /**
     * Whole-shard read of the *image layer* (pending overlays are not
     * consulted — the mega-fleet hydrates from durable state only,
     * matching its original per-record image scan). Served from the
     * cache when one is configured, decoded transiently otherwise.
     *
     * @param from_cache optionally reports whether the view was
     *        resident (callers charge transient decode bytes against
     *        their memory budget only when it was not)
     * @return null when the shard has no image on disk
     */
    std::shared_ptr<const ShardView> shardView(unsigned shard,
                                               bool *from_cache = nullptr);

    /**
     * Re-partition the decoded-image cache into `lanes` lanes (shard s
     * belongs to lane s % lanes; see shard_cache.hh for the lane
     * threading discipline). Drops all cached views. No-op without a
     * cache.
     */
    void setShardCacheLanes(unsigned lanes);

    /** @return cache counters (zeroes when no cache is configured). */
    ShardCacheStats cacheStats() const;

    /** Flush every overlay and truncate the journal. */
    bool checkpoint();

    /**
     * Scrub one shard: parse its image leniently and rewrite a
     * pristine dual-bank copy whenever anything short of a clean
     * bank A read was needed (bank-B fallback, per-record salvage).
     * Records damaged in both banks are dropped from the rewrite and
     * reported in the result so the fleet can demote those channels
     * to PendingReenroll. An image that yields *nothing* recoverable
     * and names no lost record is never rewritten (that would
     * silently wipe the shard): it is left in place and flagged
     * `ScrubResult::unreadable`.
     */
    ScrubResult scrubShard(unsigned shard);

    /**
     * Background scrub hook: examine the next shard in round-robin
     * order. Designed to be called once per idle scheduler tick.
     */
    ScrubResult scrubStep();

    /**
     * Import every record of a legacy v1/v2 EnrollmentStore image (or
     * a v3 shard image) through the normal `put` path.
     *
     * @return records imported (0 when the bytes parse as nothing)
     */
    uint64_t importImage(const std::vector<char> &bytes);

    /** @return all ids currently in the database (disk + overlays). */
    std::vector<std::string> ids();

    /** Route an id to its shard index. */
    unsigned shardOf(const std::string &id) const;

    /** @return shard image path (exists only after a flush). */
    std::string shardPath(unsigned shard) const;

    /** @return journal path. */
    std::string journalPath() const;

    /** @return IO events consumed so far (fault-plan addressing). */
    uint64_t ioEvents() const { return ioEvent_; }

    /** @return journal entries replayed by open(). */
    uint64_t replayedEntries() const { return replayed_; }

    /** Attach a fault injector (nullptr detaches). */
    void attachFaultInjector(const FaultInjector *injector);

    /** Attach telemetry; registers the stable store.* counters. */
    void attachTelemetry(Telemetry *telemetry);

    const EnrollmentDbConfig &config() const { return config_; }

  private:
    /** One shard's pending mutations; nullopt marks a tombstone. */
    using Overlay = std::map<std::string,
                             std::optional<EnrollmentRecord>>;

    bool appendJournal(uint8_t op, const std::vector<char> &body,
                       const StorageFault &fault);
    bool flushShard(unsigned shard, const StorageFault &fault);
    /** Decode `shard`'s image into `view`; false when no file. */
    bool loadShardView(unsigned shard, ShardView &view);
    /**
     * Settle every deferred sync of the group-commit epoch: fdatasync
     * each shard image written with a deferred data sync, then the
     * deferred directory sync. Must run before the journal truncates
     * — afterwards the journal no longer covers the images and
     * deferral stops (journalCoversImages_ goes false).
     */
    void settleDurability();
    void applyPostWriteDamage(const StorageFault &fault,
                              unsigned shard);
    bool replayJournal();
    StorageFault faultFor(uint64_t event) const;
    bool mutate(uint8_t op, const std::string &id,
                const EnrollmentRecord *record);

    EnrollmentDbConfig config_;
    std::vector<Overlay> overlays_;
    bool dead_ = false;
    bool opened_ = false;
    uint64_t ioEvent_ = 0;
    uint64_t journalBytes_ = 0;
    uint64_t journalSeq_ = 0;
    uint64_t replayed_ = 0;
    unsigned scrubCursor_ = 0;
    bool pendingDirSync_ = false;
    /**
     * True while the live journal can reconstruct every record held
     * by every shard image — exactly the window (from a fresh
     * directory until the first checkpoint truncation) in which image
     * data syncs may be deferred to the checkpoint. Conservative:
     * reopening over existing images clears it.
     */
    bool journalCoversImages_ = false;
    std::vector<bool> deferredImageSync_; //!< per shard: image was
                                          //!< written sync_data=false
    std::unique_ptr<ShardImageCache> cache_;
    AppendStream journalStream_; //!< group-commit: journal handle
                                 //!< held open across appends; closed
                                 //!< before every truncation
    const FaultInjector *injector_ = nullptr;
    Telemetry *telemetry_ = nullptr;
    Counter tmPuts_;
    Counter tmGets_;
    Counter tmGetDamaged_;
    Counter tmFlushes_;
    Counter tmCheckpoints_;
    Counter tmJournalEntries_;
    Counter tmJournalReplays_;
    Counter tmScrubPasses_;
    Counter tmScrubRepairs_;
    Counter tmScrubLost_;
    Counter tmCrashes_;
};

} // namespace divot::store

#endif // DIVOT_STORE_ENROLLMENT_DB_HH
