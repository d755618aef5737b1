#include "itdr/trace_cache.hh"

#include <cstring>

#include "txline/txline.hh"

namespace divot {

namespace {

constexpr uint64_t kFnvOffsetLo = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvOffsetHi = 0x6c62272e07bb0142ULL;  // distinct basis
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t
fnvStep(uint64_t h, uint64_t word)
{
    // Word-wise FNV-1a with a fold between the two multiplies so
    // high-byte-only differences (doubles near each other share low
    // mantissa bytes) still avalanche across the whole word. The
    // byte-wise original cost 16 dependent multiplies per double and
    // dominated the cache-key path once the strobe loops vectorized;
    // hashing a fleet-size impedance profile is now ~8x cheaper. Key
    // *values* change, but nothing persists or compares them across
    // versions — only equality within one process matters.
    h ^= word;
    h *= kFnvPrime;
    h ^= h >> 32;
    h *= kFnvPrime;
    return h;
}

} // namespace

TraceKeyBuilder::TraceKeyBuilder()
{
    key_.lo = kFnvOffsetLo;
    key_.hi = kFnvOffsetHi;
}

void
TraceKeyBuilder::mixWord(uint64_t word)
{
    key_.lo = fnvStep(key_.lo, word);
    key_.hi = fnvStep(key_.hi, ~word);
}

TraceKeyBuilder &
TraceKeyBuilder::add(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mixWord(bits);
    return *this;
}

TraceKeyBuilder &
TraceKeyBuilder::add(uint64_t v)
{
    mixWord(v);
    return *this;
}

TraceKeyBuilder &
TraceKeyBuilder::add(const TransmissionLine &line)
{
    add(static_cast<uint64_t>(line.segments()));
    for (double z : line.impedances())
        add(z);
    add(line.segmentLength());
    add(line.velocity());
    add(line.sourceImpedance());
    add(line.loadImpedance());
    add(line.lossNeperPerMeter());
    return *this;
}

TraceCache::TraceCache(std::size_t capacity)
    : capacity_(capacity)
{
}

const Waveform *
TraceCache::find(const TraceKey &key)
{
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    it->second = entries_.begin();
    return &entries_.front().second;
}

const Waveform *
TraceCache::insert(const TraceKey &key, Waveform trace)
{
    if (capacity_ == 0)
        return nullptr;
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(trace);
        entries_.splice(entries_.begin(), entries_, it->second);
        it->second = entries_.begin();
        return &entries_.front().second;
    }
    if (entries_.size() >= capacity_) {
        index_.erase(entries_.back().first);
        entries_.pop_back();
        ++evictions_;
    }
    entries_.emplace_front(key, std::move(trace));
    index_[key] = entries_.begin();
    return &entries_.front().second;
}

} // namespace divot
