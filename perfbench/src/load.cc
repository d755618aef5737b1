#include "load.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common.hh"
#include "trace.hh"

namespace perfbench {

using namespace divot;
using service::RequestKind;
using service::ResponseStatus;
using service::ServiceRequest;
using service::ServiceResponse;

ZipfPicker::ZipfPicker(std::size_t n, double s, Rng &rng)
    : cdf_(n), item_(n)
{
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf_[r] = acc;
    }
    for (double &c : cdf_)
        c /= acc;
    for (std::size_t i = 0; i < n; ++i)
        item_[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(item_[i - 1], item_[rng.uniformInt(i)]);
}

std::size_t
ZipfPicker::pick(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return item_[rank];
}

RequestLog::RequestLog(double threshold, uint64_t detTicks)
    : threshold_(threshold), detTicks_(detTicks)
{}

void
RequestLog::sent(const ServiceRequest &rq, uint64_t tick, double time,
                 bool ghost)
{
    ++submitted_;
    Entry &e = entries_[rq.id];
    e.time = time;
    e.tick = tick;
    e.kind = rq.kind;
    e.ghost = ghost;
}

void
RequestLog::fail(const std::string &why)
{
    ++bad_;
    if (errors_.size() < 8)
        errors_.push_back(why);
}

namespace {

bool
sameResponse(const ServiceResponse &a, const ServiceResponse &b)
{
    return a.id == b.id && a.kind == b.kind && a.status == b.status &&
        a.tick == b.tick && a.channel == b.channel && a.state == b.state &&
        a.phase == b.phase && a.flags == b.flags &&
        std::memcmp(&a.similarity, &b.similarity, sizeof a.similarity) ==
            0 &&
        a.generation == b.generation && a.channels == b.channels &&
        a.fenced == b.fenced && a.quarantined == b.quarantined;
}

} // namespace

void
RequestLog::answer(const ServiceResponse &r, double time, Tracer &tr)
{
    const auto it = entries_.find(r.id);
    if (it == entries_.end()) {
        fail("response to an unknown or already answered request");
        return;
    }
    const Entry e = it->second;
    entries_.erase(it);
    tr.async("service.request", e.time, time, r.id);

    const bool missed = r.status == ResponseStatus::Busy ||
        r.status == ResponseStatus::Rejected;
    if (r.kind != e.kind)
        fail("response kind differs from the request's");
    else if (e.ghost && r.status != ResponseStatus::Unknown)
        fail("unknown channel name not answered Unknown");
    else if (!e.ghost && r.status == ResponseStatus::Unknown)
        fail("enrolled channel answered Unknown");
    else if (missed)
        fail(std::string("request answered ") +
             service::responseStatusName(r.status));
    else if (r.kind == RequestKind::Verify &&
             r.status == ResponseStatus::Ok &&
             ((r.flags & service::kResponseAuthenticated) != 0) !=
                 (r.similarity >= threshold_))
        fail("Verify authenticated flag disagrees with its similarity");

    // DIVQ round trip: the response frame must decode to itself.
    std::vector<char> frame;
    {
        auto span = tr.span("service.codec_encode");
        service::appendResponseFrame(frame, r);
    }
    ServiceResponse back;
    service::FrameParse parse;
    {
        auto span = tr.span("service.codec_decode");
        parse = service::decodeResponseFrame(frame.data(), frame.size(),
                                             back);
    }
    if (!parse.ok() || parse.consumed != frame.size() ||
        !sameResponse(r, back))
        fail("response frame does not round-trip");

    if (e.tick < detTicks_)
        digest_ = service::foldResponseDigest(digest_, r);
    if (r.kind == RequestKind::Verify && !e.ghost) {
        verifyMs_.push_back(missed ? kMissed : (time - e.time) * 1e3);
        if (e.tick < detTicks_)
            verifyTicks_.push_back(
                missed ? kMissed
                       : static_cast<double>(r.tick - e.tick + 1));
    }
}

uint64_t
RequestLog::unanswered() const
{
    return entries_.size();
}

void
WindowedRate::tick(uint64_t responses, double seconds)
{
    responses_ += responses;
    seconds_ += seconds;
    if (++ticks_ < size_)
        return;
    rates_.push_back(static_cast<double>(responses_) / seconds_);
    ticks_ = 0;
    responses_ = 0;
    seconds_ = 0.0;
}

double
WindowedRate::median() const
{
    if (rates_.empty())
        return seconds_ > 0 ? static_cast<double>(responses_) / seconds_
                            : 0.0;
    return perfbench::median(rates_);
}

ShardViewProbe
probeShardViews(store::EnrollmentDb &db, unsigned lanes, Tracer &tr)
{
    db.setShardCacheLanes(lanes);
    auto pass = [&](const char *name) {
        std::vector<double> us;
        for (unsigned s = 0; s < db.config().shards; ++s) {
            auto span = tr.span(name);
            const double t0 = now();
            const auto view = db.shardView(s);
            us.push_back((now() - t0) * 1e6);
        }
        return median(us);
    };
    ShardViewProbe out;
    out.coldUs = pass("store.shard_view_cold");
    out.warmUs = pass("store.shard_view_warm");
    return out;
}

double
kernelTargetCode(SimdTarget requested)
{
    switch (resolveSimdTarget(requested)) {
    case SimdTarget::Avx2: return 1.0;
    case SimdTarget::Neon: return 2.0;
    default: return 0.0;
    }
}

std::map<std::string, uint64_t>
counterSnapshot(const Telemetry &tm)
{
    std::map<std::string, uint64_t> out;
    for (const CounterSnapshot &c : tm.registry().counters(true))
        out[c.name] = c.value;
    return out;
}

double
counterDelta(const std::map<std::string, uint64_t> &before,
             const std::map<std::string, uint64_t> &after,
             const std::string &suffix)
{
    auto sum = [&](const std::map<std::string, uint64_t> &m) {
        uint64_t total = 0;
        for (const auto &[name, value] : m) {
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                total += value;
        }
        return total;
    };
    return static_cast<double>(sum(after) - sum(before));
}

double
histogramSum(const Telemetry &tm, const std::string &suffix)
{
    double total = 0.0;
    for (const HistogramSnapshot &h : tm.registry().histograms(true)) {
        if (h.name.size() >= suffix.size() &&
            h.name.compare(h.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            total += static_cast<double>(h.sum);
    }
    return total;
}

} // namespace perfbench
