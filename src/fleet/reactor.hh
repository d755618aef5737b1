/**
 * @file
 * Reactor — the deterministic event core the fleet scheduler runs on.
 *
 * The old ChannelScheduler::tick was a synchronous pipeline: select,
 * serially hydrate, run every probe of the round behind one barrier,
 * fuse, scrub. The reactor inverts it: everything that happens to a
 * fleet is an *event* — a hydration request, a probe completion, an
 * epoch-boundary fusion, eviction pressure, a scrub step, an operator
 * recalibration, a fault manifestation — consumed one at a time from
 * a queue ordered purely by (virtual wall-clock, sequence number).
 *
 * Determinism contract (DESIGN.md §15): events are scheduled only
 * from the (single-threaded) consumption loop and from the public
 * tick()/reenroll entry points, so sequence numbers — and with them
 * the total event order — are a pure function of (seed, config).
 * Worker threads execute an epoch's probe *computations* in one
 * parallel batch, but their results are consumed at each probe's
 * ProbeComplete event, whose position in the order was fixed when the
 * batch was launched. Fused verdicts, telemetry exports, and store
 * IO-event sequences (hence injected storage faults) are therefore
 * bit-identical at any thread count.
 *
 * The reactor itself is policy-free: it owns the queue, the
 * instrument free-list, virtual-time utilization accounting, and the
 * fleet.reactor.* metrics. What an event *means* lives in its owner
 * (ChannelScheduler handlers); per-channel lifecycle is tracked with
 * the ChannelPhase state machine below.
 */

#ifndef DIVOT_FLEET_REACTOR_HH
#define DIVOT_FLEET_REACTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/telemetry.hh"

namespace divot {

/** Everything that can happen to a fleet, as a queue event. */
enum class ReactorEventType : uint8_t
{
    HydrateRequest,     //!< channel wants its enrollment resident and
                        //!< an instrument dispatched
    ProbeComplete,      //!< a dispatched probe's verdict is due
    FuseEpoch,          //!< epoch boundary: fuse the latest verdicts
    EvictPressure,      //!< resident enrollment budget needs enforcing
    ScrubStep,          //!< an idle instrument slot pays for one
                        //!< background store scrub pass
    RecalibrateRequest, //!< operator re-enrolls a fenced channel
    FaultEvent,         //!< a fault manifested (unrecoverable record,
                        //!< failed persist); consumed for recovery
                        //!< accounting
    RequestArrival,     //!< an admitted service request enters the
                        //!< epoch (ticket = service request slot)
    RequestComplete     //!< a service response is due for emission
                        //!< (ticket = service request slot)
};

/** Number of ReactorEventType values (telemetry table size). */
constexpr std::size_t kReactorEventTypes = 9;

/** @return stable lower-case event-type name ("hydrate", ...). */
const char *reactorEventName(ReactorEventType type);

/**
 * Per-channel lifecycle phase — the state machine extracted from the
 * monolithic tick body. Transitions happen only while consuming
 * events:
 *
 *   Idle --HydrateRequest--> Hydrating --ok--> Probing
 *   Hydrating --unrecoverable--> Fenced          (FaultEvent emitted)
 *   Probing --ProbeComplete--> Idle
 *   Idle/Probing --ScrubStep loss--> Fenced      (FaultEvent emitted)
 *   Fenced --RecalibrateRequest--> Idle          (persist may fault)
 */
enum class ChannelPhase : uint8_t
{
    Idle,      //!< eligible for selection
    Hydrating, //!< selected; enrollment being made resident
    Probing,   //!< instrument dispatched, completion event pending
    Fenced     //!< PendingReenroll: no enrollment to probe against
};

/** One queued event. Meaning of `channel`/`ticket` depends on the
 *  type (channel index, result slot). */
struct ReactorEvent
{
    double vtime = 0.0;  //!< virtual wall-clock, seconds
    uint64_t seq = 0;    //!< schedule order; total-order tie-break
    ReactorEventType type = ReactorEventType::HydrateRequest;
    std::size_t channel = 0;
    uint64_t ticket = 0;
};

/**
 * Deterministic event queue + instrument accounting.
 */
class Reactor
{
  public:
    /** @param instruments size of the shared iTDR pool */
    explicit Reactor(std::size_t instruments);

    /**
     * Queue an event. `vtime` may be in the past relative to popped
     * events (same-instant follow-ups); ordering is (vtime, seq) with
     * seq assigned here, monotonically.
     *
     * @return the event's sequence number
     */
    uint64_t schedule(ReactorEventType type, double vtime,
                      std::size_t channel = 0, uint64_t ticket = 0);

    /** @return whether any event is queued. */
    bool empty() const { return heap_.empty(); }

    /** @return queued event count. */
    std::size_t depth() const { return heap_.size(); }

    /** Remove and return the next event, recording queue-depth and
     *  per-type consumption metrics. */
    ReactorEvent pop();

    /**
     * Count an operator-initiated event (reenrollChannel) that is
     * consumed immediately instead of queued: it still gets a
     * sequence number and per-type accounting so the event order
     * stays a complete record.
     *
     * @return the event, stamped with its sequence number
     */
    ReactorEvent dispatchImmediate(ReactorEventType type, double vtime,
                                   std::size_t channel = 0);

    /** @name Instrument pool accounting. */
    ///@{
    /** @return instruments not currently dispatched. */
    std::size_t freeInstruments() const { return freeInstruments_; }

    /** Dispatch one instrument (fatal when none is free). */
    void acquireInstrument();

    /**
     * Return an instrument, crediting `busy` seconds of measurement
     * time to the utilization account.
     */
    void releaseInstrument(double busy);

    /** @return accumulated busy seconds across all instruments. */
    double busySeconds() const { return busySeconds_; }

    /**
     * @return busy / (instruments x elapsed) in [0, 1]; 0 before any
     *         virtual time has elapsed
     */
    double utilization(double elapsed_seconds) const;

    /** @return utilization scaled to per-mille (deterministic
     *  integer for the stable gauge). */
    int64_t utilizationPerMille(double elapsed_seconds) const;
    ///@}

    /** @return events consumed (popped + immediate) of `type`. */
    uint64_t consumed(ReactorEventType type) const;

    /** @return total events consumed. */
    uint64_t consumedTotal() const;

    /** @return peak queue depth reached (deterministic). */
    std::size_t queueHighWater() const { return highWater_; }

    /**
     * Fold a lane reactor's per-type consumption counts into this
     * (primary) reactor and zero the lane's, so `consumed()` totals
     * are lane-count-invariant however hydration was partitioned.
     * Telemetry counters are NOT re-added — the lane bumped the
     * shared cells once when it popped.
     */
    void absorb(Reactor &lane);

    /**
     * Grow-only heap reservation: pre-size the event arena so
     * steady-state epochs schedule without reallocating. Never
     * shrinks.
     */
    void reserve(std::size_t events);

    /**
     * Attach a telemetry sink: per-type consumption counters
     * ("fleet.reactor.events.<type>") — Stable, because the event
     * order is — plus a queue-depth histogram recorded at every pop
     * and a queue high-water gauge. The queue-shape metrics are
     * Unstable: with hydration sharded across reactor lanes each lane
     * sees only its partition's depths, so the shape depends on the
     * lane count while the event *order* does not (the lane-invariant
     * shape gauge is the scheduler's "fleet.reactor.queue.peak").
     * Pass nullptr to detach. Not owned; must outlive the reactor.
     */
    void attachTelemetry(Telemetry *telemetry);

  private:
    struct HeapEntry
    {
        double vtime;
        uint64_t seq;
        ReactorEvent event;
    };

    std::size_t instruments_;
    std::size_t freeInstruments_;
    std::vector<HeapEntry> heap_; //!< binary min-heap on (vtime, seq)
    uint64_t nextSeq_ = 0;
    std::size_t highWater_ = 0;
    double busySeconds_ = 0.0;
    uint64_t consumed_[kReactorEventTypes] = {};

    Counter tmEvents_[kReactorEventTypes];
    HistogramMetric tmQueueDepth_;
    Gauge tmQueueHighWater_;

    void countConsumed(const ReactorEvent &event);
    static bool heapAfter(const HeapEntry &a, const HeapEntry &b);
};

} // namespace divot

#endif // DIVOT_FLEET_REACTOR_HH
