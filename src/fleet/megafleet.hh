/**
 * @file
 * MegaFleet — a bounded-memory fleet service for very large channel
 * counts (10^5+), built directly on the sharded EnrollmentDb.
 *
 * The full BusChannel stack fabricates a transmission line, an
 * environment model, and an instrument per channel — megabytes and
 * milliseconds each, fine for dozens of wires, impossible for a
 * hundred thousand. MegaFleet keeps the *persistence and fusion*
 * semantics of the fleet layer while replacing the physics with a
 * deterministic synthetic channel model:
 *
 *  - enrollment fingerprint of channel i = a waveform drawn from
 *    `rng.forkStable(kTagMegaChannel + i)` — a pure function of the
 *    fleet seed and the index, never materialized fleet-wide;
 *  - a probe of channel i at tick t = that enrollment plus noise from
 *    `forkStable(mix(i, t))`, so any probe can be recomputed from
 *    scratch without holding anything resident.
 *
 * Memory contract: the per-channel registry holds only lifecycle
 * state and the latest fused score (O(10 bytes) per channel). All
 * fingerprints live in the EnrollmentDb; each tick hydrates exactly
 * the probed batch — grouped by shard so every shard file is read at
 * most once per tick — and releases it when the tick ends. Peak
 * resident enrollment bytes are reported so benches can assert the
 * budget held.
 *
 * Determinism contract: probes of one tick write disjoint slots and
 * draw only from forkStable streams; hydration, fusion, and every
 * EnrollmentDb mutation run in serial sections in ascending channel
 * order. Fused verdicts are therefore bit-identical at any thread
 * count, with or without an active storage FaultPlan (the db's
 * IO-event sequence is thread-independent either way).
 *
 * Crash behavior: a simulated power cut (StorageCrash cell) kills the
 * db handle mid-enrollment; MegaFleet reopens the directory — which
 * replays the journal — and continues, re-putting the interrupted
 * record. Channels whose records are damaged beyond every recovery
 * path land in PendingReenroll and stop contributing evidence; they
 * never authenticate junk.
 */

#ifndef DIVOT_FLEET_MEGAFLEET_HH
#define DIVOT_FLEET_MEGAFLEET_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fingerprint/fusion.hh"
#include "fleet/channel_scheduler.hh"
#include "service/request.hh"
#include "store/enrollment_db.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"

namespace divot {

/** MegaFleet tuning. */
struct MegaFleetConfig
{
    std::size_t channels = 100000;  //!< fleet size
    std::size_t fingerprintBins = 32; //!< samples per synthetic IIP
    double noiseSigma = 1e-4;       //!< probe noise, relative
    double similarityThreshold = 0.35; //!< fused-score accept bar
    double tamperThreshold = 1e-6;  //!< per-wire peak-error alarm bar
    unsigned tamperWireVotes = 3;   //!< M-of-N bus alarm quorum
    FusionConfig fusion;            //!< similarity fusion rule
    unsigned threads = 0;           //!< worker threads (0 = hardware)
    std::size_t probesPerTick = 4096; //!< wires probed per tick

    /**
     * Hydration lanes: shard s belongs to lane s % K, each lane walks
     * its shards in ascending order on its own thread, and the staged
     * results merge serially in ascending shard order — so fused
     * verdicts and the digest are bit-identical for K=1 vs any K at
     * any thread count. Resolved like FleetConfig::reactorLanes
     * (resolveHydrationLanes): 0 = min(store shards, 8), never more
     * lanes than shards. The store's decoded-image cache is
     * re-partitioned to the same lane count.
     */
    unsigned reactorLanes = 0;
    store::EnrollmentDbConfig store;  //!< shard directory + tunables
    std::size_t residentBudgetBytes = 32u << 20; //!< hydration budget
    TelemetryConfig telemetry;      //!< observability (on by default)
    std::size_t instruments = 8;    //!< modeled iTDR pool size for the
                                    //!< instrument-schedule accounting
                                    //!< (waves of `instruments` probes,
                                    //!< each as long as its slowest)

    /**
     * Probe-batch selection. RiskWeighted (default) is hierarchical:
     * a deterministic hot set — channels whose last probe tripped the
     * tamper bar or scored below the similarity threshold, plus every
     * channel named by a pending service request — is probed first in
     * ascending index order, and the remaining budget backfills
     * round-robin from the cursor. O(hot + batch) per tick, so the
     * risk tier never costs an O(N log N) fleet-wide sort. RoundRobin
     * is the legacy pure-rotation schedule. With an empty hot set the
     * two are identical, batch for batch.
     */
    SchedulerPolicy policy = SchedulerPolicy::RiskWeighted;

    /** Global admission bound of the request front end (in-flight
     *  requests; beyond it submits reject Busy). */
    std::size_t requestQueueDepth = 1024;

    /** Per-channel admission bound (see FleetConfig). */
    std::size_t requestChannelDepth = 4;
};

/** Summary of a MegaFleet run. */
struct MegaFleetReport
{
    uint64_t enrolled = 0;       //!< records durably enrolled
    uint64_t crashRecoveries = 0; //!< db reopen+replay cycles survived
    uint64_t ticks = 0;          //!< monitoring ticks executed
    uint64_t probes = 0;         //!< per-wire probes performed
    uint64_t hydrates = 0;       //!< records hydrated from shards
    uint64_t pendingReenroll = 0; //!< channels fenced (records lost)
    bool lastTrusted = false;    //!< busTrusted after the final tick
    double lastFusedSimilarity = 0.0; //!< fused score, final tick
    uint64_t verdictDigest = 0;  //!< FNV-1a over every fused verdict
                                 //!< (bit-identity comparisons)
    std::size_t peakResidentBytes = 0; //!< max hydrated bytes held at
                                       //!< any instant
    double instrumentUtilization = 0.0; //!< busy / capacity of the
                                        //!< modeled instrument pool
};

/** One fused bus verdict from a MegaFleet tick. */
struct MegaFleetVerdict
{
    uint64_t tick = 0;
    bool busAuthenticated = false;
    bool tamperAlarm = false;
    bool busTrusted = false;
    double fusedSimilarity = 0.0;
    std::size_t contributingWires = 0;
    std::size_t tamperedWires = 0;
    std::size_t pendingReenrollWires = 0;
};

/**
 * The bounded-memory fleet service.
 */
class MegaFleet
{
  public:
    MegaFleet(MegaFleetConfig config, Rng rng);
    ~MegaFleet();

    MegaFleet(const MegaFleet &) = delete;
    MegaFleet &operator=(const MegaFleet &) = delete;

    /**
     * Enroll every channel into the EnrollmentDb (serial, ascending
     * index; survives simulated power cuts by reopening + replaying).
     * Finishes with a checkpoint so every record sits in a shard
     * image.
     *
     * @return channels durably enrolled
     */
    uint64_t enrollAll();

    /** One monitoring tick over the next probe batch. */
    MegaFleetVerdict tick();

    /** Run `ticks` monitoring ticks. */
    MegaFleetReport run(uint64_t ticks);

    /** @return the running report (valid any time). */
    const MegaFleetReport &report() const { return report_; }

    /** @return the backing database (open; may have been reopened). */
    store::EnrollmentDb &db() { return *db_; }

    /** @return the fleet-owned telemetry sink. */
    Telemetry &telemetry() { return *telemetry_; }

    /** Attach a fault injector to the db (campaign hook). */
    void attachFaultInjector(const FaultInjector *injector);

    /** @return the synthetic enrollment waveform of channel `index`
     *  (pure function of the fleet seed; test/verification hook). */
    std::vector<double> syntheticEnrollment(std::size_t index) const;

    /** @return derived id of channel `index` ("ch<index>"). */
    static std::string channelId(std::size_t index);

    /** @return modeled probe round duration of channel `index`,
     *  seconds — a pure function of the fleet seed and the index. */
    double probeDuration(std::size_t index) const;

    /** @name Request front end (the same protocol FleetService
     *  answers — service/request.hh). */
    ///@{
    /**
     * Submit one request. Bounded admission, decided synchronously:
     * Busy/Unknown rejections emit their response immediately;
     * admitted requests answer during the next tick()s — immediately
     * for QuarantineStatus/Enroll/Reenroll, at the channel's next
     * probe for Verify (the request pulls the channel into the hot
     * set, ahead of the round-robin rotation), after fusion for
     * FleetSummary.
     *
     * @return true when admitted
     */
    bool submit(const service::ServiceRequest &request);

    /** Move out responses emitted so far, in emission order. */
    std::vector<service::ServiceResponse> drainResponses();

    /** @return chained FNV digest over every emitted response frame
     *  (the request-leg bit-identity currency). */
    uint64_t responseDigest() const { return responseDigest_; }

    /** @return admission/emission totals of the front end. */
    const service::ServiceStats &serviceStats() const
    {
        return serviceStats_;
    }

    /** @return requests admitted but not yet answered. */
    std::size_t pendingRequests() const;
    ///@}

  private:
    /** Per-channel registry entry — deliberately tiny. */
    struct ChannelSlot
    {
        float lastScore = -1.0f; //!< latest similarity (< 0 = none)
        uint8_t state = 0;       //!< 0 monitoring, 1 pending-reenroll
        bool tampered = false;   //!< latest probe tripped the wire bar
    };

    /** One admitted request (channel resolved at admission). */
    struct Admitted
    {
        service::ServiceRequest request;
        std::size_t channel = kNoChannel;
    };

    /** Sentinel channel for FleetSummary / unknown names. */
    static constexpr std::size_t kNoChannel =
        static_cast<std::size_t>(-1);

    void reopenDb();
    MegaFleetVerdict fuse();
    /** Fold one tick's probe batch into the instrument-pool busy /
     *  capacity account. */
    void accountInstrumentSchedule(
        const std::vector<std::size_t> &channels);
    /** Parse "ch<i>" into an index; kNoChannel when malformed or out
     *  of range. */
    std::size_t parseChannel(const std::string &name) const;
    /** Fold + record one emitted response. */
    void emitResponse(service::ServiceResponse response);
    /** Emit an immediate rejection at submit time. */
    void rejectRequest(const service::ServiceRequest &request,
                       service::ResponseStatus status);
    /** Answer every verify ticket parked on `channel` as Fenced. */
    void answerFenced(std::size_t channel);
    /** Drain admitted requests into the tick: immediate kinds answer
     *  now, Verify parks on its (hot-set-boosted) channel, summaries
     *  wait for fusion. */
    void processArrivals();
    /** Durable put with the bounded crash-reopen-replay loop.
     *  @return durable */
    bool putWithRecovery(const store::EnrollmentRecord &record);

    MegaFleetConfig config_;
    unsigned lanes_ = 1; //!< resolved reactorLanes
    Rng rng_;
    std::unique_ptr<Telemetry> telemetry_;
    std::unique_ptr<store::EnrollmentDb> db_;
    std::unique_ptr<class ThreadPool> pool_;
    const FaultInjector *injector_ = nullptr;
    std::vector<ChannelSlot> slots_;
    std::size_t cursor_ = 0; //!< round-robin probe cursor
    uint64_t tick_ = 0;
    MegaFleetReport report_;
    double busySeconds_ = 0.0;     //!< Σ probe durations scheduled
    double capacitySeconds_ = 0.0; //!< Σ instruments x wave makespan

    /** @name Request front end + hot-set tier. */
    ///@{
    /** Risk tier: channels probed ahead of the rotation (ascending
     *  order — std::set keeps selection deterministic). Members are
     *  re-evaluated when probed. */
    std::set<std::size_t> hot_;
    std::deque<Admitted> admitted_;  //!< not yet entered a tick
    /** channel → verify requests waiting for its next probe. */
    std::map<std::size_t, std::vector<service::ServiceRequest>>
        verifyWaiting_;
    std::vector<service::ServiceRequest> summaryWaiting_;
    std::map<std::size_t, std::size_t> channelLoad_; //!< in-flight
    std::size_t parked_ = 0; //!< verify/summary requests carried
                             //!< across ticks (admission accounting)
    std::vector<service::ServiceResponse> responses_;
    uint64_t responseDigest_ = 0;
    service::ServiceStats serviceStats_;
    ///@}

    Counter tmTicks_;
    Counter tmProbes_;
    Counter tmHydrates_;
    Counter tmPending_;
    Counter tmCrashRecoveries_;
    Counter tmRequests_;  //!< megafleet.requests
    Counter tmResponses_; //!< megafleet.responses
    Gauge tmUtilization_; //!< megafleet.instrument.utilization, ‰
};

} // namespace divot

#endif // DIVOT_FLEET_MEGAFLEET_HH
