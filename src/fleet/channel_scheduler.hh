/**
 * @file
 * ChannelScheduler — multiplexes a bounded pool of iTDR instruments
 * across the N BusChannels of a fleet and feeds every probe into a
 * FleetAuthenticator for a fused bus verdict.
 *
 * The instrument pool models shared measurement hardware: with
 * `instruments = k`, at most k probes are in flight at once. Which
 * channels get them is a deterministic function of fleet state:
 *
 *  - RoundRobin: channels in fixed rotation, oldest-probed first.
 *  - RiskWeighted: priority = staleness x risk weight of the
 *    channel's authenticator state, so quarantined / degraded /
 *    alarmed channels are re-probed more often than healthy ones
 *    (tie-break: lower channel index).
 *
 * Since the reactor refactor (DESIGN.md §15) a tick is not a
 * monolithic pipeline but an epoch of the fleet Reactor: hydration,
 * probe completion, fusion, eviction pressure, scrub, and faults are
 * queue events consumed in (virtual wall-clock, sequence) order, and
 * each channel steps through the ChannelPhase state machine as its
 * events arrive. Every probe of a tick measures at the tick's
 * wall-clock and completes on its boundary, so rounds and stable
 * telemetry are bit-identical to the pre-reactor scheduler.
 *
 * Determinism contract (see DESIGN.md §4, §10 and §15): probe
 * computations run in parallel on the shared ThreadPool but touch
 * disjoint channels and write disjoint result slots; their *effects*
 * (FleetAuthenticator observation, store IO, telemetry events) happen
 * only while the single-threaded event loop consumes the
 * corresponding event, in an order that is a pure function of
 * (seed, config). Fleet rounds are therefore bit-identical at any
 * thread count, with and without a store or fault plans attached.
 */

#ifndef DIVOT_FLEET_CHANNEL_SCHEDULER_HH
#define DIVOT_FLEET_CHANNEL_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/bus_channel.hh"
#include "fleet/fleet_auth.hh"
#include "fleet/reactor.hh"
#include "store/enrollment_db.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"

namespace divot {

/** Channel-selection policy for the shared instrument pool. */
enum class SchedulerPolicy
{
    RoundRobin,  //!< fixed rotation, staleness only
    RiskWeighted //!< staleness x authenticator-state risk weight
};

/** @return human-readable policy name. */
const char *schedulerPolicyName(SchedulerPolicy policy);

/** Fleet-wide scheduler configuration. */
struct FleetConfig
{
    std::size_t instruments = 2; //!< iTDR pool size: probes in flight
    SchedulerPolicy policy = SchedulerPolicy::RoundRobin;
    unsigned threads = 0;        //!< worker threads (0 = hardware)
    FusionConfig fusion;         //!< similarity fusion rule
    double similarityThreshold = 0.35; //!< fused-score accept bar
    unsigned tamperWireVotes = 1; //!< M-of-N bus alarm quorum
    TelemetryConfig telemetry;   //!< fleet-owned observability (on by
                                 //!< default; enabled=false for the
                                 //!< zero-overhead ablation path)

    /**
     * Global admission bound of the request service (FleetService):
     * requests admitted but not yet answered. A submit past the bound
     * is rejected Busy instead of growing an unbounded queue — the
     * backpressure half of the service contract (DESIGN.md §17).
     */
    std::size_t requestQueueDepth = 64;

    /** Per-channel admission bound: in-flight requests naming the
     *  same channel beyond this are rejected Busy. */
    std::size_t requestChannelDepth = 4;

    /**
     * Reactor hydration lanes (store-backed fleets only): the
     * epoch's hydration requests are partitioned by store shard —
     * lane k owns channels whose shard s satisfies s % K == k — into
     * K independent (vtime, seq) event queues drained in parallel,
     * one thread per lane; the staged outcomes are merged serially in
     * the ascending-channel order the single-lane loop would have
     * consumed, so fused verdicts, stable telemetry, and event counts
     * are bit-identical for K=1 vs any K at any thread count (see
     * DESIGN.md §16). 0 = auto: min(store shards, 8). Storeless
     * fleets always run one lane.
     */
    unsigned reactorLanes = 0;
};

/** One channel probe performed during a tick. */
struct ChannelProbe
{
    std::size_t channel = 0; //!< channel index
    AuthVerdict verdict{};   //!< that channel's round verdict
};

/** Everything that happened in one scheduler tick (= reactor epoch). */
struct FleetRound
{
    uint64_t tick = 0;                //!< tick index (0-based)
    std::vector<ChannelProbe> probes; //!< ascending channel order
    FleetVerdict fused{};             //!< bus verdict after the tick
};

/** TraceCache counters for one channel. */
struct ChannelCacheStats
{
    std::string name;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
};

/** TraceCache counters across the fleet. */
struct FleetCacheStats
{
    std::vector<ChannelCacheStats> perChannel;
    ChannelCacheStats totals; //!< name = "fleet"
};

/**
 * Service-side observer of the reactor's request events. The fleet
 * service implements this; the scheduler calls it only from the
 * single-threaded event-consumption loop, so hook implementations may
 * mutate service state and schedule RequestComplete events without
 * breaking the determinism contract.
 */
struct ServiceHook
{
    virtual ~ServiceHook() = default;
    /** An admitted request's RequestArrival event is being consumed. */
    virtual void onRequestArrival(const ReactorEvent &event) = 0;
    /** A RequestComplete event is being consumed: emit the response. */
    virtual void onRequestComplete(const ReactorEvent &event) = 0;
    /**
     * A channel verdict was observed into the fused authenticator —
     * either a real probe completion or a fence demotion (verdict
     * state PendingReenroll, no instrument ran).
     */
    virtual void onProbeObserved(std::size_t channel,
                                 const AuthVerdict &verdict,
                                 double vtime) = 0;
    /** The epoch fused; `fused` is the fleet verdict. */
    virtual void onEpochFused(const FleetVerdict &fused,
                              double vtime) = 0;
};

/**
 * Owns the channels, the reactor, and the probe schedule.
 */
class ChannelScheduler
{
  public:
    ChannelScheduler(FleetConfig config, Rng rng);
    ~ChannelScheduler();

    ChannelScheduler(const ChannelScheduler &) = delete;
    ChannelScheduler &operator=(const ChannelScheduler &) = delete;
    ChannelScheduler(ChannelScheduler &&) noexcept;
    ChannelScheduler &operator=(ChannelScheduler &&) noexcept;

    /**
     * Fabricate and add a channel; its RNG lane is a stable fork of
     * the scheduler seed and the channel index, so fleet composition
     * order is the only thing that matters.
     *
     * @return the new channel's index
     */
    std::size_t addChannel(BusChannelConfig config);

    /** Enroll every channel (parallel) and freeze the tick length. */
    void calibrateAll();

    /**
     * One scheduler tick = one reactor epoch: seed the event queue
     * with probe dispatches, drain it in deterministic order, fuse on
     * the epoch boundary, and return the round.
     */
    FleetRound tick();

    /** Run `rounds` ticks; @return the final round. */
    FleetRound run(std::size_t rounds);

    /** @return number of channels in the fleet. */
    std::size_t channelCount() const { return channels_.size(); }

    /** @return channel `index` (for staging attacks / inspection). */
    BusChannel &channel(std::size_t index);

    /** @return channel `index`, read-only. */
    const BusChannel &channel(std::size_t index) const;

    /** @return fused verdict of the most recent tick. */
    const FleetVerdict &lastVerdict() const { return lastVerdict_; }

    /** @return ticks executed so far. */
    uint64_t ticks() const { return tick_; }

    /** @return how often channel `index` has been probed. */
    uint64_t probeCount(std::size_t index) const;

    /** @return per-channel and fleet-total trace-cache counters. */
    FleetCacheStats cacheStats() const;

    /** @return scheduler configuration. */
    const FleetConfig &config() const { return config_; }

    /** @return wall-clock length of one tick, seconds: the slowest
     *  channel's round (valid after calibrateAll()). */
    double tickDuration() const { return slot_; }

    /** @return the fleet-owned telemetry sink (never null; disabled
     *  when FleetConfig::telemetry.enabled is false). */
    Telemetry &telemetry() { return *telemetry_; }
    const Telemetry &telemetry() const { return *telemetry_; }

    /** @return the deterministic event core (queue stats, per-type
     *  consumption counts, instrument accounting). Lane consumption
     *  counts are folded in, so totals are lane-count-invariant. */
    const Reactor &reactor() const { return *reactor_; }

    /** @return resolved reactor-lane count (1 until a store is
     *  attached). */
    unsigned reactorLaneCount() const { return laneCount_; }

    /** @return lane-invariant peak of total queued events across the
     *  primary reactor and every lane (the stable queue-shape
     *  metric). */
    std::size_t queuePeak() const { return queuePeak_; }

    /** @return lifecycle phase of channel `index`. */
    ChannelPhase channelPhase(std::size_t index) const;

    /** @return instrument utilization over all virtual time elapsed
     *  so far, in [0, 1]. */
    double instrumentUtilization() const;

    /**
     * Back the fleet with a durable enrollment database and switch to
     * lazy hydration: enrollments are persisted to `db`, fingerprints
     * are loaded on first probe and evicted LRU whenever the resident
     * total exceeds `resident_budget_bytes` (0 = unlimited; the
     * channels probed in the current tick are always kept, so the
     * tick working set is the effective floor). Channels whose records
     * come back unrecoverable are demoted to PendingReenroll instead
     * of aborting the fleet. `db` is borrowed and must outlive the
     * scheduler (and be open()ed).
     *
     * Hydration, eviction, and scrub are reactor events consumed from
     * the serial event loop in deterministic order, so the store's
     * IO-event sequence — and any injected storage fault — stays a
     * pure function of (seed, config) at any thread count.
     */
    void attachStore(store::EnrollmentDb *db,
                     std::size_t resident_budget_bytes = 0);

    /** @return bytes of enrollment data currently resident. */
    std::size_t residentEnrollmentBytes() const { return resident_; }

    /**
     * Operator path out of PendingReenroll: re-calibrate the channel
     * against its current line and persist the fresh enrollment.
     * Consumed as an immediate RecalibrateRequest event (a failed
     * persist additionally consumes a FaultEvent).
     *
     * @return false when no store is attached or the persist failed
     */
    bool reenrollChannel(std::size_t index);

    /** @name Request-service seam (used by service::FleetService). */
    ///@{
    /** Sentinel returned by findChannel() for unknown names. */
    static constexpr std::size_t kNoChannel =
        static_cast<std::size_t>(-1);

    /** @return index of the channel named `name` (first-added wins on
     *  duplicates), or kNoChannel. */
    std::size_t findChannel(const std::string &name) const;

    /** Attach (or detach with nullptr) the request-service hook.
     *  Borrowed; must outlive the scheduler or detach first. */
    void attachService(ServiceHook *hook) { hook_ = hook; }

    /**
     * Queue a RequestArrival event for the next epoch. Entry-point
     * scheduling (like reenrollChannel): legal between ticks, never
     * from worker threads. The event is consumed at the head of the
     * next tick, before channel ranking, in admission order.
     */
    void scheduleRequestArrival(std::size_t channel, uint64_t ticket);

    /** Queue a RequestComplete event at `vtime`. Called by the hook
     *  from within the consumption loop. */
    void scheduleRequestComplete(std::size_t channel, uint64_t ticket,
                                 double vtime);

    /**
     * Add request pressure to a channel's scheduling priority: the
     * boost dominates staleness x risk, so a requested channel is
     * probed at the next dispatch opportunity. Cleared when the
     * channel's next verdict is observed (probe or fence).
     */
    void boostChannel(std::size_t index);

    /** Persist channel `index`'s current enrollment (the service
     *  Enroll verb). @return false when storeless or the put failed */
    bool persistEnrollment(std::size_t index);

    /** @return persisted enrollment generation of channel `index`. */
    uint64_t enrollmentGeneration(std::size_t index) const;

    /** @return total virtual seconds ticked so far. */
    double elapsedSeconds() const { return elapsed_; }
    ///@}

  private:
    std::vector<std::size_t> selectChannels() const;
    bool persistChannel(std::size_t index);
    void persistAll();
    /** Hydrate `index` from the store; demotes to PendingReenroll on
     *  unrecoverable/missing records. @return probe-ready */
    bool hydrateChannel(std::size_t index, double wall);
    /** Evict LRU enrollments until the resident budget holds;
     *  channels probed at `current_tick` are pinned. */
    void enforceResidentBudget(int64_t current_tick);
    void demoteToPendingReenroll(std::size_t index, double wall);
    /** Rebuild the shard → channel-indices routing table. */
    void rebuildShardRouting();
    /** @return K for the attached store (see
     *  FleetConfig::reactorLanes). */
    unsigned resolveLanes() const;
    /** @return the lane owning channel `index` (shard % laneCount_). */
    unsigned laneOf(std::size_t index) const;
    /** Schedule onto `target` and fold the fleet-wide queued total
     *  into the lane-invariant queue-peak gauge. */
    void scheduleEvent(Reactor &target, ReactorEventType type,
                       double vtime, std::size_t channel = 0,
                       uint64_t ticket = 0);
    /** Lanes: drain the epoch's hydration through the lane
     *  reactors that hold a request, in parallel, and merge the
     *  staged outcomes in ascending-channel order. */
    void hydrateLanes(const std::vector<std::size_t> &selected);

    /** @name Reactor event handlers (single-threaded event loop). */
    ///@{
    void handleEvent(const ReactorEvent &event);
    void onHydrateRequest(const ReactorEvent &event);
    void onProbeComplete(const ReactorEvent &event);
    void onFuseEpoch(const ReactorEvent &event);
    void onEvictPressure(const ReactorEvent &event);
    void onScrubStep(const ReactorEvent &event);
    /** Run the epoch's probe batch (one parallelFor, exactly the
     *  pre-reactor submission shape) and schedule the completion +
     *  epoch-tail events. */
    void launchProbes();
    ///@}

    FleetConfig config_;
    Rng rng_;
    std::unique_ptr<Telemetry> telemetry_; //!< owned; channels and the
                                           //!< pool borrow it
    std::vector<std::unique_ptr<BusChannel>> channels_;
    std::vector<int64_t> lastProbeTick_; //!< -1 = never probed
    std::vector<uint64_t> probeCounts_;
    FleetAuthenticator fleetAuth_;
    std::unique_ptr<class ThreadPool> pool_;
    std::unique_ptr<Reactor> reactor_;
    /** Lane reactors (store-backed, laneCount_ > 1);
     *  lane k drains shards s ≡ k (mod laneCount_). */
    std::vector<std::unique_ptr<Reactor>> laneReactors_;
    unsigned laneCount_ = 1;
    std::size_t queuePeak_ = 0; //!< lane-invariant queued-event peak
    double slot_ = 0.0; //!< max channel roundDuration()
    uint64_t tick_ = 0;
    bool calibrated_ = false;
    FleetVerdict lastVerdict_{};
    bool lastTrusted_ = true; //!< previous tick's busTrusted (for
                              //!< trust-flip events)

    /** @name Per-channel state machine + routing indexes. */
    ///@{
    std::vector<ChannelPhase> phase_;
    /** name → channel index; first-added wins on duplicate names
     *  (mirrors the old first-match linear scan). */
    std::unordered_map<std::string, std::size_t> nameIndex_;
    /** store shard → channel indices routed to it, ascending. */
    std::unordered_map<std::size_t, std::vector<std::size_t>>
        shardChannels_;
    ///@}

    /** @name Per-epoch (per-tick) reactor state. */
    ///@{
    FleetRound round_{};          //!< round under construction
    double epochWall_ = 0.0;      //!< epoch start, virtual seconds
    double epochEnd_ = 0.0;       //!< epoch boundary, virtual seconds
    double elapsed_ = 0.0;        //!< total virtual time ticked
    std::vector<std::size_t> epochReady_; //!< hydrated set
    ///@}

    /** @name Durable-store backing (lazy hydrate / LRU evict). */
    ///@{
    store::EnrollmentDb *db_ = nullptr; //!< borrowed, may be null
    std::size_t residentBudget_ = 0;    //!< bytes; 0 = unlimited
    std::size_t resident_ = 0;          //!< resident enrollment bytes
    std::vector<uint64_t> generations_; //!< persists per channel
    ///@}

    /** @name Request-service state. */
    ///@{
    ServiceHook *hook_ = nullptr;        //!< borrowed, may be null
    std::vector<uint64_t> requestBoost_; //!< per-channel priority
                                         //!< boost; cleared at the
                                         //!< next observed verdict
    ///@}

    /** @name Fleet-level metric handles. */
    ///@{
    Counter tmTicks_;
    Counter tmProbes_;
    Counter tmInstrumentSlots_;
    Counter tmIdleSlots_;
    Counter tmTrusted_;
    Counter tmUntrusted_;
    Counter tmAlarms_;
    Counter tmTrustFlips_;
    HistogramMetric tmStaleness_;
    HistogramMetric tmRiskWeight_;
    Gauge tmUtilization_;     //!< fleet.instrument.utilization, ‰
    Gauge tmIdleSlotPermille_; //!< fleet.reactor.idle_slot.permille
    Gauge tmQueuePeak_;       //!< fleet.reactor.queue.peak (Stable:
                              //!< fleet-wide total at schedule points,
                              //!< identical for 1 or K lanes)
    std::vector<Counter> tmChannelProbes_; //!< indexed like channels_
    Counter tmHydrates_;        //!< store.hydrates
    Counter tmEvictions_;       //!< store.evictions
    Counter tmPendingReenroll_; //!< store.pending_reenroll
    Counter tmScrubTicks_;      //!< store.scrub.idle_ticks
    ///@}
};

} // namespace divot

#endif // DIVOT_FLEET_CHANNEL_SCHEDULER_HH
