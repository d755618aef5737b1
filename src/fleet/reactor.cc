#include "fleet/reactor.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace divot {

const char *
reactorEventName(ReactorEventType type)
{
    switch (type) {
    case ReactorEventType::HydrateRequest:
        return "hydrate";
    case ReactorEventType::ProbeComplete:
        return "probe_complete";
    case ReactorEventType::FuseEpoch:
        return "fuse_epoch";
    case ReactorEventType::EvictPressure:
        return "evict";
    case ReactorEventType::ScrubStep:
        return "scrub";
    case ReactorEventType::RecalibrateRequest:
        return "recalibrate";
    case ReactorEventType::FaultEvent:
        return "fault";
    case ReactorEventType::RequestArrival:
        return "request_arrival";
    case ReactorEventType::RequestComplete:
        return "request_complete";
    }
    return "?";
}

Reactor::Reactor(std::size_t instruments)
    : instruments_(instruments), freeInstruments_(instruments)
{
}

bool
Reactor::heapAfter(const HeapEntry &a, const HeapEntry &b)
{
    // std::push_heap builds a max-heap; invert for (vtime, seq) min.
    if (a.vtime != b.vtime)
        return a.vtime > b.vtime;
    return a.seq > b.seq;
}

uint64_t
Reactor::schedule(ReactorEventType type, double vtime,
                  std::size_t channel, uint64_t ticket)
{
    const uint64_t seq = nextSeq_++;
    HeapEntry entry;
    entry.vtime = vtime;
    entry.seq = seq;
    entry.event.vtime = vtime;
    entry.event.seq = seq;
    entry.event.type = type;
    entry.event.channel = channel;
    entry.event.ticket = ticket;
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), heapAfter);
    highWater_ = std::max(highWater_, heap_.size());
    return seq;
}

ReactorEvent
Reactor::pop()
{
    if (heap_.empty())
        divot_fatal("reactor pop() on an empty queue");
    tmQueueDepth_.record(heap_.size());
    std::pop_heap(heap_.begin(), heap_.end(), heapAfter);
    ReactorEvent event = heap_.back().event;
    heap_.pop_back();
    countConsumed(event);
    return event;
}

ReactorEvent
Reactor::dispatchImmediate(ReactorEventType type, double vtime,
                           std::size_t channel)
{
    ReactorEvent event;
    event.vtime = vtime;
    event.seq = nextSeq_++;
    event.type = type;
    event.channel = channel;
    countConsumed(event);
    return event;
}

void
Reactor::countConsumed(const ReactorEvent &event)
{
    const std::size_t slot = static_cast<std::size_t>(event.type);
    ++consumed_[slot];
    tmEvents_[slot].add();
    tmQueueHighWater_.max(static_cast<int64_t>(highWater_));
}

void
Reactor::acquireInstrument()
{
    if (freeInstruments_ == 0)
        divot_fatal("reactor instrument over-dispatch (pool of %zu)",
                    instruments_);
    --freeInstruments_;
}

void
Reactor::releaseInstrument(double busy)
{
    if (freeInstruments_ >= instruments_)
        divot_fatal("reactor instrument over-release (pool of %zu)",
                    instruments_);
    ++freeInstruments_;
    busySeconds_ += busy;
}

double
Reactor::utilization(double elapsed_seconds) const
{
    const double capacity =
        elapsed_seconds * static_cast<double>(instruments_);
    if (!(capacity > 0.0))
        return 0.0;
    return std::min(1.0, busySeconds_ / capacity);
}

int64_t
Reactor::utilizationPerMille(double elapsed_seconds) const
{
    return static_cast<int64_t>(
        std::llround(utilization(elapsed_seconds) * 1000.0));
}

uint64_t
Reactor::consumed(ReactorEventType type) const
{
    return consumed_[static_cast<std::size_t>(type)];
}

uint64_t
Reactor::consumedTotal() const
{
    uint64_t total = 0;
    for (std::size_t i = 0; i < kReactorEventTypes; ++i)
        total += consumed_[i];
    return total;
}

void
Reactor::absorb(Reactor &lane)
{
    for (std::size_t i = 0; i < kReactorEventTypes; ++i) {
        consumed_[i] += lane.consumed_[i];
        lane.consumed_[i] = 0;
    }
}

void
Reactor::reserve(std::size_t events)
{
    if (events > heap_.capacity())
        heap_.reserve(events);
}

void
Reactor::attachTelemetry(Telemetry *telemetry)
{
    if (telemetry == nullptr || !telemetry->enabled()) {
        for (std::size_t i = 0; i < kReactorEventTypes; ++i)
            tmEvents_[i] = Counter();
        tmQueueDepth_ = HistogramMetric();
        tmQueueHighWater_ = Gauge();
        return;
    }
    Registry &reg = telemetry->registry();
    for (std::size_t i = 0; i < kReactorEventTypes; ++i) {
        tmEvents_[i] = reg.counter(
            std::string("fleet.reactor.events.") +
            reactorEventName(static_cast<ReactorEventType>(i)));
    }
    tmQueueDepth_ = reg.histogram("fleet.reactor.queue.depth",
                                  {1, 2, 4, 8, 16, 32, 64},
                                  MetricStability::Unstable);
    tmQueueHighWater_ = reg.gauge("fleet.reactor.queue.high_water",
                                  MetricStability::Unstable);
}

} // namespace divot
