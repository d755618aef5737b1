/**
 * @file
 * Content-keyed LRU cache for clean detector traces.
 *
 * Rendering the reflection physics (LatticeSimulator::probe is
 * O(segments x steps)) dominates the cost of a measurement, yet a
 * Monte-Carlo campaign re-measures the *same physical line* hundreds
 * of times: only the comparator noise differs between repetitions.
 * The cache keys each trace by the content that determines it — the
 * per-segment impedance profile, terminations, velocity, loss, and
 * the capture span — so an unperturbed line hits and a tampered or
 * environment-shifted line (whose snapshot rewrites impedances and
 * velocity) computes a fresh key and misses. Invalidation is therefore
 * structural, not explicit: stale entries can never be returned, they
 * can only age out of the LRU list.
 *
 * Keys are a pair of independent 64-bit FNV-1a digests over the raw
 * parameter bytes; a collision requires two distinct lines to agree on
 * 128 hash bits simultaneously, which is negligible against the
 * campaign sizes involved (billions of measurements would be needed
 * before a birthday collision becomes plausible).
 */

#ifndef DIVOT_ITDR_TRACE_CACHE_HH
#define DIVOT_ITDR_TRACE_CACHE_HH

#include <cstdint>
#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

#include "signal/waveform.hh"

namespace divot {

class TransmissionLine;

/** 128-bit content digest identifying one rendered trace. */
struct TraceKey
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool operator==(const TraceKey &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

/**
 * Incremental FNV-1a digest builder for trace keys: feed every
 * parameter that influences the rendered trace, then take key().
 */
class TraceKeyBuilder
{
  public:
    TraceKeyBuilder();

    /** Mix one double (by bit pattern). */
    TraceKeyBuilder &add(double v);

    /** Mix one integer. */
    TraceKeyBuilder &add(uint64_t v);

    /** Mix a line's full electrical content (profile + terminations). */
    TraceKeyBuilder &add(const TransmissionLine &line);

    /** @return the accumulated digest. */
    TraceKey key() const { return key_; }

  private:
    TraceKey key_;

    void mixWord(uint64_t word);
};

/**
 * Fixed-capacity LRU map from trace keys to rendered waveforms.
 */
class TraceCache
{
  public:
    /**
     * @param capacity maximum retained traces; 0 disables the cache
     *                 (find always misses, insert is a no-op)
     */
    explicit TraceCache(std::size_t capacity = 8);

    // index_ holds iterators into entries_, so a memberwise copy would
    // index the source's list. A move carries both along intact.
    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;
    TraceCache(TraceCache &&) = default;
    TraceCache &operator=(TraceCache &&) = default;

    /**
     * Look up a trace; promotes the entry to most-recently-used.
     *
     * @return pointer to the cached waveform, valid until the next
     *         insert, or nullptr on a miss
     */
    const Waveform *find(const TraceKey &key);

    /** Insert (or overwrite) a trace, evicting the LRU tail if full. */
    const Waveform *insert(const TraceKey &key, Waveform trace);

    /** @return retained entry count. */
    std::size_t size() const { return entries_.size(); }

    /** @return configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /** @return lifetime hit count. */
    uint64_t hits() const { return hits_; }

    /** @return lifetime miss count. */
    uint64_t misses() const { return misses_; }

    /** @return lifetime LRU evictions (full cache pushing out the
     *  least-recently-used trace). */
    uint64_t evictions() const { return evictions_; }

  private:
    struct KeyHash
    {
        std::size_t operator()(const TraceKey &k) const
        {
            return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
        }
    };

    using Entry = std::pair<TraceKey, Waveform>;

    std::size_t capacity_;
    std::list<Entry> entries_;  //!< front = most recently used
    std::unordered_map<TraceKey, std::list<Entry>::iterator, KeyHash> index_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace divot

#endif // DIVOT_ITDR_TRACE_CACHE_HH
