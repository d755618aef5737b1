/**
 * @file
 * Tests for the reflection-trace cache: LRU mechanics, content keying
 * (tamper / environment changes must miss — the invalidation path),
 * and the iTDR integration that makes repeated measurements of an
 * unperturbed line skip the lattice re-simulation.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "itdr/itdr.hh"
#include "itdr/trace_cache.hh"
#include "txline/environment.hh"
#include "txline/manufacturing.hh"

namespace divot {
namespace {

Waveform
wave(double v)
{
    return Waveform(1.0, {v, v});
}

TransmissionLine
cacheTestLine(uint64_t seed = 1)
{
    ProcessParams params;
    ManufacturingProcess fab(params, Rng(seed));
    auto z = fab.drawImpedanceProfile(0.1, 0.5e-3);
    return TransmissionLine(std::move(z), 0.5e-3, params.velocity,
                            50.0, 50.2, params.lossNeperPerMeter, "c");
}

TEST(TraceCache, FindAfterInsertHits)
{
    TraceCache cache(4);
    const TraceKey key = TraceKeyBuilder().add(1.0).add(2.0).key();
    EXPECT_EQ(cache.find(key), nullptr);
    cache.insert(key, wave(3.0));
    const Waveform *hit = cache.find(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ((*hit)[0], 3.0);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(TraceCache, LruEvictsTheColdestEntry)
{
    TraceCache cache(2);
    const TraceKey a = TraceKeyBuilder().add(uint64_t{1}).key();
    const TraceKey b = TraceKeyBuilder().add(uint64_t{2}).key();
    const TraceKey c = TraceKeyBuilder().add(uint64_t{3}).key();
    cache.insert(a, wave(1.0));
    cache.insert(b, wave(2.0));
    ASSERT_NE(cache.find(a), nullptr);  // a is now most-recently-used
    cache.insert(c, wave(3.0));         // evicts b, not a
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.find(a), nullptr);
    EXPECT_EQ(cache.find(b), nullptr);
    EXPECT_NE(cache.find(c), nullptr);
}

// The index holds iterators into the entry list: copies are refused,
// and a moved-to cache finds, promotes and evicts through the index
// it carried along.
static_assert(!std::is_copy_constructible_v<TraceCache>);
static_assert(!std::is_copy_assignable_v<TraceCache>);

TEST(TraceCache, MovedCacheKeepsItsIndex)
{
    TraceCache source(2);
    const TraceKey a = TraceKeyBuilder().add(uint64_t{1}).key();
    const TraceKey b = TraceKeyBuilder().add(uint64_t{2}).key();
    const TraceKey c = TraceKeyBuilder().add(uint64_t{3}).key();
    source.insert(a, wave(1.0));
    source.insert(b, wave(2.0));
    TraceCache cache(std::move(source));
    ASSERT_NE(cache.find(a), nullptr);
    cache.insert(c, wave(3.0));  // evicts b
    EXPECT_EQ(cache.find(b), nullptr);
    ASSERT_NE(cache.find(c), nullptr);
    EXPECT_DOUBLE_EQ((*cache.find(a))[0], 1.0);
}

TEST(TraceCache, ZeroCapacityDisables)
{
    TraceCache cache(0);
    const TraceKey key = TraceKeyBuilder().add(1.0).key();
    EXPECT_EQ(cache.insert(key, wave(1.0)), nullptr);
    EXPECT_EQ(cache.find(key), nullptr);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TraceCache, DistinctContentDistinctKeys)
{
    const auto line_a = cacheTestLine(1);
    const auto line_b = cacheTestLine(2);
    const TraceKey ka = TraceKeyBuilder().add(line_a).key();
    const TraceKey kb = TraceKeyBuilder().add(line_b).key();
    EXPECT_FALSE(ka == kb);
    // The same content always produces the same key.
    const TraceKey ka2 = TraceKeyBuilder().add(line_a).key();
    EXPECT_TRUE(ka == ka2);
}

TEST(TraceCache, ItdrRepeatedMeasurementsHit)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 17;
    ITdr itdr(cfg, Rng(5));
    const auto line = cacheTestLine();
    itdr.measure(line);
    itdr.measure(line);
    itdr.measure(line);
    EXPECT_EQ(itdr.traceCache().misses(), 1u);
    EXPECT_EQ(itdr.traceCache().hits(), 2u);
}

TEST(TraceCache, CachedMeasurementMatchesUncached)
{
    const auto line = cacheTestLine();
    ItdrConfig cached_cfg;
    cached_cfg.trialsPerPhase = 17;
    ItdrConfig uncached_cfg = cached_cfg;
    uncached_cfg.traceCacheCapacity = 0;
    ITdr cached(cached_cfg, Rng(7));
    ITdr uncached(uncached_cfg, Rng(7));
    for (int pass = 0; pass < 2; ++pass) {
        const IipMeasurement a = cached.measure(line);
        const IipMeasurement b = uncached.measure(line);
        ASSERT_EQ(a.iip.size(), b.iip.size());
        for (std::size_t i = 0; i < a.iip.size(); ++i)
            EXPECT_DOUBLE_EQ(a.iip[i], b.iip[i]);
    }
    EXPECT_EQ(cached.traceCache().hits(), 1u);
    EXPECT_EQ(uncached.traceCache().hits(), 0u);
}

TEST(TraceCache, TamperInvalidatesByContent)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 17;
    ITdr itdr(cfg, Rng(9));
    const auto line = cacheTestLine();
    itdr.measure(line);
    itdr.measure(line);
    ASSERT_EQ(itdr.traceCache().hits(), 1u);

    // A tampered copy must re-render: its content key differs.
    TransmissionLine attacked = line;
    attacked.setLoadImpedance(70.0);
    itdr.measure(attacked);
    EXPECT_EQ(itdr.traceCache().misses(), 2u);

    // The pristine trace is still cached (LRU holds both).
    itdr.measure(line);
    EXPECT_EQ(itdr.traceCache().hits(), 2u);
}

TEST(TraceCache, EnvironmentShiftInvalidatesByContent)
{
    ItdrConfig cfg;
    cfg.trialsPerPhase = 17;
    ITdr itdr(cfg, Rng(11));
    const auto line = cacheTestLine();

    EnvironmentConditions hot;
    hot.temperatureC = 75.0;
    Environment env(hot, Rng(1));
    const TransmissionLine shifted = env.snapshot(line, 0.0);

    itdr.measure(line);
    itdr.measure(shifted);
    EXPECT_EQ(itdr.traceCache().misses(), 2u);
    EXPECT_EQ(itdr.traceCache().hits(), 0u);
}

} // namespace
} // namespace divot
