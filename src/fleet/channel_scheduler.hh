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
 * A tick is one epoch of fixed steps (DESIGN.md §15): the requests
 * admitted since the last epoch enter it, channels are selected,
 * hydrated and probed at the tick's wall-clock, every probe completes
 * on the tick boundary in ascending channel order, and the epoch ends
 * with fusion, eviction and — when an instrument slot idled — one
 * store scrub step.
 *
 * Determinism contract (see DESIGN.md §4, §10 and §15): probe
 * computations and lane hydration run in parallel on the shared
 * ThreadPool but touch disjoint channels and write disjoint result
 * slots; their *effects* (FleetAuthenticator observation, store IO
 * order, telemetry events, service responses) are applied by the
 * straight-line epoch on the calling thread, in an order that is a
 * pure function of (seed, config). Fleet rounds are therefore
 * bit-identical at any thread count, with and without a store or
 * fault plans attached.
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
     * Hydration lanes (store-backed fleets only): the epoch's
     * selected channels are bucketed by store shard — lane k holds
     * the channels whose shard s satisfies s % K == k — and each
     * non-empty bucket hydrates on its own thread; the staged outcomes
     * are merged serially in ascending channel order, so fused
     * verdicts and stable telemetry are bit-identical for K=1 vs any
     * K at any thread count (see DESIGN.md §16). Resolved by
     * resolveHydrationLanes(): 0 = min(store shards, 8), and never
     * more lanes than shards. Storeless fleets always run one lane.
     */
    unsigned reactorLanes = 0;
};

/**
 * @return the hydration-lane count for a store of `shards` shards:
 *         min(shards, 8) when `requested` is 0, else
 *         min(requested, shards). 0 shards counts as 1. A lane
 *         beyond the shard count could never own a shard, and would
 *         still take its share of the decoded-image cache budget.
 */
unsigned resolveHydrationLanes(unsigned requested, unsigned shards);

/**
 * A channel's lifecycle phase as a service response reports it (the
 * ServiceResponse::phase wire value). Responses are built only at
 * epoch steps where no channel is mid-hydration or mid-probe, so the
 * phase is Fenced iff the channel is PendingReenroll, else Idle. The
 * ordinals are folded into response digests and must not change.
 */
enum class ChannelPhase : uint8_t
{
    Idle = 0,  //!< eligible for selection
    Fenced = 3 //!< PendingReenroll: no enrollment to probe against
};

/** One channel probe performed during a tick. */
struct ChannelProbe
{
    std::size_t channel = 0; //!< channel index
    AuthVerdict verdict{};   //!< that channel's round verdict
};

/** Everything that happened in one scheduler tick (= one epoch). */
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
 * Service-side observer of the epoch's request steps. The fleet
 * service implements this; the scheduler calls it only from tick()'s
 * straight-line steps on the calling thread, never from a worker, so
 * hook implementations may mutate service state and emit responses
 * without breaking the determinism contract.
 */
struct ServiceHook
{
    virtual ~ServiceHook() = default;
    /** An admitted request enters the epoch (its first step), in
     *  admission order, at virtual time `vtime`. */
    virtual void onRequestArrival(uint64_t ticket, double vtime) = 0;
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
 * Owns the channels, the instrument accounting, and the probe
 * schedule.
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
     * One scheduler tick = one epoch: hand the requests admitted
     * since the last epoch to the service, select, hydrate, run the
     * probe batch, complete the probes in ascending channel order,
     * then fuse, evict and scrub; return the round.
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

    /** @return resolved hydration-lane count (1 until a store is
     *  attached; see resolveHydrationLanes()). */
    unsigned reactorLaneCount() const { return laneCount_; }

    /** @return peak length of the list of requests admitted since the
     *  last epoch (the stable "fleet.reactor.queue.peak" gauge). */
    std::size_t queuePeak() const { return queuePeak_; }

    /** @return lifecycle phase of channel `index` (Fenced iff
     *  PendingReenroll). */
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
     * Hydration, eviction, and scrub are epoch steps applied in
     * deterministic order on the calling thread, so the store's
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
     * Runs between epochs or at an epoch's request step.
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
     * Add an admitted request to the next epoch. Legal between ticks,
     * never from worker threads. The next tick hands it to the hook's
     * onRequestArrival() as its first step, before channel ranking,
     * in admission order.
     */
    void queueArrival(uint64_t ticket);

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
    /** Evict LRU enrollments until the resident budget holds;
     *  channels probed at `current_tick` are pinned. */
    void enforceResidentBudget(int64_t current_tick);
    void demoteToPendingReenroll(std::size_t index, double wall);
    /** Rebuild the shard → channel-indices routing table. */
    void rebuildShardRouting();
    /** @return the lane owning channel `index` (shard % laneCount_). */
    unsigned laneOf(std::size_t index) const;
    /** Make the selected channels' enrollments resident, one thread
     *  per non-empty lane bucket, and merge the outcomes in ascending
     *  channel order; lost records fence their channel.
     *  @return the probe-ready channels, ascending */
    std::vector<std::size_t>
    hydrate(const std::vector<std::size_t> &selected, double wall);
    /** Spend an idle instrument slot on one store scrub step and
     *  fence the channels whose records it finds lost. */
    void scrub(double wall);

    FleetConfig config_;
    Rng rng_;
    std::unique_ptr<Telemetry> telemetry_; //!< owned; channels and the
                                           //!< pool borrow it
    std::vector<std::unique_ptr<BusChannel>> channels_;
    std::vector<int64_t> lastProbeTick_; //!< -1 = never probed
    std::vector<uint64_t> probeCounts_;
    FleetAuthenticator fleetAuth_;
    std::unique_ptr<class ThreadPool> pool_;
    unsigned laneCount_ = 1; //!< lane k hydrates shards s ≡ k (mod K)
    double busySeconds_ = 0.0; //!< instrument time spent probing
    double slot_ = 0.0; //!< max channel roundDuration()
    uint64_t tick_ = 0;
    bool calibrated_ = false;
    FleetVerdict lastVerdict_{};
    bool lastTrusted_ = true; //!< previous tick's busTrusted (for
                              //!< trust-flip events)

    /** @name Routing indexes. */
    ///@{
    /** name → channel index; first-added wins on duplicate names
     *  (mirrors the old first-match linear scan). */
    std::unordered_map<std::string, std::size_t> nameIndex_;
    /** store shard → channel indices routed to it, ascending. */
    std::unordered_map<std::size_t, std::vector<std::size_t>>
        shardChannels_;
    ///@}

    double elapsed_ = 0.0; //!< total virtual time ticked

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
    std::vector<uint64_t> arrivals_;     //!< tickets admitted since
                                         //!< the last epoch
    std::size_t queuePeak_ = 0;          //!< longest arrivals_
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
                              //!< longest arrival list)
    std::vector<Counter> tmChannelProbes_; //!< indexed like channels_
    Counter tmHydrates_;        //!< store.hydrates
    Counter tmEvictions_;       //!< store.evictions
    Counter tmPendingReenroll_; //!< store.pending_reenroll
    Counter tmScrubTicks_;      //!< store.scrub.idle_ticks
    ///@}
};

} // namespace divot

#endif // DIVOT_FLEET_CHANNEL_SCHEDULER_HH
