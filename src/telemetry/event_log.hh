/**
 * @file
 * EventLog — bounded ring buffer of discrete observability events:
 * BusEvents applied by the DIVOT gate, health-screen failures,
 * authenticator state-ladder transitions, fleet trust flips.
 *
 * Events carry a per-channel tag and a deterministic stamp (simulated
 * time + producer ordinal), never wall-clock time, so the sorted view
 * is bit-identical across thread counts as long as nothing wrapped
 * out of the ring (see SpanTracer for the same caveat).
 */

#ifndef DIVOT_TELEMETRY_EVENT_LOG_HH
#define DIVOT_TELEMETRY_EVENT_LOG_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace divot {

/** One logged event. */
struct TelemetryEvent
{
    double time = 0.0;    //!< simulated seconds (fleet wall clock,
                          //!< instrument cycle * t_clk, ...)
    uint64_t ordinal = 0; //!< producer sequence (round, tick, request)
    std::string kind;     //!< event class ("auth.state", "health",
                          //!< "fleet.trust")
    std::string tag;      //!< channel / component tag
    std::string detail;   //!< human-readable payload
};

/**
 * Bounded ring of TelemetryEvents.
 */
class EventLog
{
  public:
    /**
     * @param capacity retained events (ring; 0 keeps counts only)
     * @param enabled  disabled logs drop everything for free
     */
    EventLog(std::size_t capacity, bool enabled)
        : capacity_(capacity), enabled_(enabled) {}

    /** @return whether events are being collected. */
    bool enabled() const { return enabled_; }

    /** Append an event (oldest evicted when the ring is full). */
    void record(TelemetryEvent event);

    /** @return events recorded since construction. */
    uint64_t recorded() const
    {
        return recorded_.load(std::memory_order_relaxed);
    }

    /** @return events evicted by ring overflow. */
    uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** @return retained event count. */
    std::size_t size() const;

    /** @return ring capacity. */
    std::size_t capacity() const { return capacity_; }

    /** @return retained events sorted by (time, tag, ordinal, kind) —
     *  deterministic whenever the retained *set* is. */
    std::vector<TelemetryEvent> sorted() const;

  private:
    std::size_t capacity_;
    bool enabled_;
    mutable std::mutex mutex_;
    std::deque<TelemetryEvent> ring_;
    std::atomic<uint64_t> recorded_{0};
    std::atomic<uint64_t> dropped_{0};
};

} // namespace divot

#endif // DIVOT_TELEMETRY_EVENT_LOG_HH
