/**
 * @file
 * ShardImageCache — shard-level hydration cache with admission
 * control.
 *
 * The EnrollmentDb's read path is deliberately frugal: a point lookup
 * scans one shard file for one CRC frame, and the mega-fleet tick
 * re-reads and re-scans each shard image it touches. That is the
 * right shape when memory is the scarce resource, but at 10^5..10^6
 * channels the same few hundred shard images are decoded over and
 * over — the parse, not the physics, dominates the tick. This cache
 * keeps whole *decoded* shard images (the post-CRC-salvage record
 * map) resident under a byte budget:
 *
 *  - LRU over shards, byte-budgeted: the cache never holds more than
 *    `budgetBytes` of decoded records, however many shards that is.
 *  - Frequency-based admission: a shard is only admitted by evicting
 *    colder shards. Each access bumps a saturating per-shard
 *    frequency; a candidate may evict the LRU victim only while the
 *    victim's frequency does not exceed its own. Under a scan pattern
 *    whose working set exceeds the budget, plain LRU degenerates to
 *    0% hits (every miss evicts the entry the scan needs next);
 *    admission control instead pins a stable hot subset and serves
 *    budget/working-set of the traffic from memory.
 *  - Lane partition: with `lanes = K`, shard s belongs to lane
 *    s % K, with its own LRU list and budget share. Calls touching
 *    lane k's shards must all come from the thread driving lane k
 *    (the hydration-lane discipline); the cache itself takes no locks,
 *    so the access order per lane — and with it every admission and
 *    eviction decision — is deterministic at any thread count.
 *
 * Coherence contract: the cache belongs to the EnrollmentDb, which
 * updates it (write-through) whenever it rewrites a shard image and
 * invalidates it whenever injected damage lands on one. Bytes written
 * behind the db's back (forensic tooling, external truncation) are
 * outside the coherence domain, exactly like an OS page cache.
 *
 * Every cache metric is MetricStability::Unstable: hit patterns
 * depend on the budget knob, and the stable telemetry export must be
 * byte-identical with the cache on or off.
 */

#ifndef DIVOT_STORE_SHARD_CACHE_HH
#define DIVOT_STORE_SHARD_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/codec.hh"
#include "telemetry/telemetry.hh"

namespace divot::store {

/** One decoded shard image, shared between the cache and readers. */
struct ShardView
{
    /** Every record recoverable from the image (whole-bank read or
     *  per-record salvage — the same preference order, bank A first,
     *  that the targeted frame scan uses). */
    std::map<std::string, EnrollmentRecord> records;

    /** True when the parse saw no damage at all: both banks located
     *  and whole-bank CRC-verified, zero damaged frames. A miss in
     *  `records` of a clean view is a *provable* Missing; a miss in a
     *  damaged view must fall back to the targeted frame scan to
     *  distinguish Missing from Unrecoverable. */
    bool clean = false;

    /** Approximate decoded footprint, bytes (budget accounting). */
    std::size_t bytes = 0;

    /** Recompute `bytes` from `records`. */
    void accountBytes();
};

/** Cache tuning. */
struct ShardCacheConfig
{
    std::size_t budgetBytes = 0; //!< decoded-image budget; 0 disables
    unsigned shards = 1;         //!< shard-index space (fixed)
    unsigned lanes = 1;          //!< lane partition (see file header)
};

/** Aggregate counters (summed over lanes). */
struct ShardCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;      //!< loader invocations
    uint64_t admissions = 0;  //!< loaded views admitted
    uint64_t rejections = 0;  //!< loaded views served transiently
                              //!< (victim hotter, or view > budget)
    uint64_t evictions = 0;
    uint64_t updates = 0;     //!< write-through image rewrites
    uint64_t invalidations = 0;
    std::size_t bytes = 0;    //!< currently resident decoded bytes
    std::size_t peakBytes = 0;
};

/**
 * The byte-budgeted, admission-filtered, lane-partitioned cache of
 * decoded shard images.
 */
class ShardImageCache
{
  public:
    explicit ShardImageCache(ShardCacheConfig config);

    /** Fill `view` from disk; false when there is nothing to read. */
    using Loader = std::function<bool(ShardView &view)>;

    /**
     * Return the decoded image of `shard`, loading (and possibly
     * admitting) it on a miss. A loaded-but-rejected view is returned
     * transiently — valid for the caller, never stored.
     *
     * @param from_cache optionally reports whether this was a hit
     * @return null when the loader found nothing to read
     */
    std::shared_ptr<const ShardView> acquire(unsigned shard,
                                             const Loader &loader,
                                             bool *from_cache = nullptr);

    /**
     * Return `shard`'s resident view, or null without touching disk.
     * Counts as an access (LRU + frequency) when resident.
     */
    std::shared_ptr<const ShardView> peek(unsigned shard);

    /**
     * Write-through: the db rewrote `shard`'s image and `view` is its
     * exact new decoded content. Replaces the resident entry (or
     * attempts admission like an access would).
     */
    void update(unsigned shard, ShardView view);

    /** Drop `shard`'s entry (damage landed on the image). */
    void invalidate(unsigned shard);

    /** Drop everything (reopen, lane re-partition). */
    void invalidateAll();

    /**
     * Re-partition into `lanes` lanes. Drops every entry: per-lane
     * LRU state cannot be split deterministically, and the callers
     * that re-partition (attachStore, fleet construction) run before
     * the traffic the determinism contract covers.
     */
    void configureLanes(unsigned lanes);

    const ShardCacheConfig &config() const { return config_; }

    /** @return counters summed across lanes (serial sections only). */
    ShardCacheStats stats() const;

    /** Register the store.cache.* counters (all Unstable). */
    void attachTelemetry(Telemetry *telemetry);

  private:
    struct Entry
    {
        std::shared_ptr<const ShardView> view; //!< null = not cached
        std::list<unsigned>::iterator lruIt;   //!< valid when cached
        uint32_t frequency = 0; //!< saturating access count
    };

    struct Lane
    {
        std::list<unsigned> lru; //!< front = hottest
        std::size_t bytes = 0;
        std::size_t budget = 0;
        ShardCacheStats stats;
    };

    Lane &laneOf(unsigned shard) { return lanes_[shard % lanes_.size()]; }
    void evict(Lane &lane, unsigned shard);
    /** Try to make room for and insert `view`; false = rejected. */
    bool admit(Lane &lane, unsigned shard,
               std::shared_ptr<const ShardView> view);
    void rebuildLanes(unsigned lanes);

    ShardCacheConfig config_;
    std::vector<Entry> entries_; //!< indexed by shard
    std::vector<Lane> lanes_;
    Counter tmHits_;
    Counter tmMisses_;
    Counter tmAdmissions_;
    Counter tmRejections_;
    Counter tmEvictions_;
    Counter tmUpdates_;
    Counter tmInvalidations_;
};

} // namespace divot::store

#endif // DIVOT_STORE_SHARD_CACHE_HH
