/**
 * @file
 * FleetService — the request front end of a store-backed fleet.
 *
 * External traffic consults the authentication authority through a
 * typed request stream (service/request.hh). Admission is bounded and
 * synchronous: submit() either admits the request into the next fleet
 * epoch or answers immediately with an explicit rejection (Busy on
 * a full global/per-channel queue, Unknown for a name the fleet has
 * never seen). An admitted request enters the next epoch as its first
 * step, before channel ranking, and its response is emitted at the
 * epoch step that decides it — so admission, hydration, probing, and
 * response emission are one deterministic order, a pure function of
 * (seed, config) at any thread count. A Verify boosts its channel's
 * staleness x risk priority (request pressure IS risk pressure), so
 * the scheduler spends the next instrument slot answering it.
 *
 * Per-request lifecycle:
 *  - Enroll / Reenroll / QuarantineStatus complete at their arrival
 *    step (store persists happen on the epoch's calling thread).
 *  - Verify waits for its channel's next observed verdict — a real
 *    probe or a fence demotion — and answers Fenced without burning
 *    an instrument when the channel is already quarantined.
 *  - FleetSummary waits for the epoch's fusion.
 *
 * Every response is folded into a chained FNV digest of its encoded
 * frame; two runs served the same traffic iff digests match, which is
 * what the serial-vs-pooled and lane gates compare.
 */

#ifndef DIVOT_SERVICE_FLEET_SERVICE_HH
#define DIVOT_SERVICE_FLEET_SERVICE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fleet/channel_scheduler.hh"
#include "service/request.hh"

namespace divot::service {

/**
 * Request service over a ChannelScheduler. Borrowing: the fleet must
 * outlive the service; the service detaches its hook on destruction.
 */
class FleetService final : public ServiceHook
{
  public:
    explicit FleetService(ChannelScheduler &fleet);
    ~FleetService() override;

    FleetService(const FleetService &) = delete;
    FleetService &operator=(const FleetService &) = delete;

    /**
     * Submit one request. Admission is decided here, synchronously:
     * a rejection (Busy, Unknown) emits its response immediately;
     * an admitted request answers during a later tick().
     *
     * @return true when admitted
     */
    bool submit(const ServiceRequest &request);

    /**
     * Replay a framed request stream (e.g. a recorded file): decode
     * frames in order, submitting each. Stops at the first damaged
     * frame — replayed traffic is evidence, not best effort.
     *
     * @return the stream decode outcome (frames before the damage
     *         were submitted; their admission results are in stats())
     */
    StreamDecode submitStream(const std::vector<char> &bytes);

    /** Run one fleet tick: pending arrivals enter the epoch, boosted
     *  channels get probed, due responses are emitted. */
    FleetRound tick();

    /** Move out the responses emitted so far, in emission order. */
    std::vector<ServiceResponse> drainResponses();

    /** @return chained FNV digest over every emitted response frame
     *  (rejections included), regardless of drains. */
    uint64_t responseDigest() const { return digest_; }

    /** @return admitted requests not yet answered. */
    std::size_t pendingRequests() const { return inflight_.size(); }

    /** @return admission/emission totals. */
    const ServiceStats &stats() const { return stats_; }

    /** @return the fleet this service fronts. */
    ChannelScheduler &fleet() { return fleet_; }

    /** @name ServiceHook (called from the fleet's epoch steps). */
    ///@{
    void onRequestArrival(uint64_t ticket, double vtime) override;
    void onProbeObserved(std::size_t channel,
                         const AuthVerdict &verdict,
                         double vtime) override;
    void onEpochFused(const FleetVerdict &fused, double vtime) override;
    ///@}

  private:
    /** One admitted request waiting for its response. */
    struct Pending
    {
        ServiceRequest request;
        std::size_t channel = ChannelScheduler::kNoChannel;
        ServiceResponse response; //!< built by the lifecycle handlers
        SpanScope span;           //!< service.request span
    };

    ChannelScheduler &fleet_;
    std::unordered_map<uint64_t, Pending> inflight_; //!< by ticket
    uint64_t nextTicket_ = 0;
    std::vector<std::size_t> channelLoad_; //!< in-flight per channel
    std::vector<std::vector<uint64_t>> pendingVerify_; //!< tickets
                                                       //!< per channel
    std::vector<uint64_t> pendingSummary_;
    std::vector<ServiceResponse> emitted_;
    uint64_t digest_ = 0;
    ServiceStats stats_;

    Counter tmRequests_[kRequestKinds];    //!< service.requests.<kind>
    Counter tmResponses_[kResponseStatuses]; //!< service.responses.<s>
    Counter tmAdmitted_;                   //!< service.admitted
    Counter tmRejected_;                   //!< service.rejected
    Gauge tmQueuePeak_;                    //!< service.queue.peak

    /** Emit an immediate rejection response at submit time. */
    void reject(const ServiceRequest &request, ResponseStatus status);
    /** Fold + record + store a finished response. */
    void emitResponse(ServiceResponse response);
    /** Close `ticket`'s span at `vtime`, release its admission slot
     *  and emit its response. */
    void complete(uint64_t ticket, double vtime);
    /** Snapshot channel lifecycle fields into `response`. */
    void fillChannelState(std::size_t channel,
                          ServiceResponse &response) const;
    Pending &pendingAt(uint64_t ticket);
};

} // namespace divot::service

#endif // DIVOT_SERVICE_FLEET_SERVICE_HH
