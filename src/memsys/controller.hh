/**
 * @file
 * Memory controller with FR-FCFS scheduling, open-page policy, and
 * periodic refresh — the DRAM control logic of Section III's example
 * design, into which the CPU-side iTDR is integrated.
 *
 * The controller owns a request queue; each cycle it picks the oldest
 * row-hit request (FR-FCFS), falling back to the oldest request,
 * issuing PRE/ACT/RD/WR as the bank state demands. The DIVOT hooks:
 *
 *  - when the CPU-side authenticator distrusts the bus, the
 *    controller *stalls* issuing data commands (reaction: avoid
 *    reading replayed data / writing secrets to a foreign device);
 *  - when the memory-side gate blocks the device, data commands fail
 *    at the SDRAM and the controller counts the rejection.
 */

#ifndef DIVOT_MEMSYS_CONTROLLER_HH
#define DIVOT_MEMSYS_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "memsys/sdram.hh"
#include "util/stats.hh"

namespace divot {

/** One memory request from the CPU. */
struct MemRequest
{
    uint64_t id = 0;
    bool isWrite = false;
    uint64_t address = 0;
    uint64_t data = 0;          //!< payload for writes
    uint64_t arrivalCycle = 0;
};

/** Completion record handed to the callback. */
struct MemCompletion
{
    MemRequest request;
    uint64_t completionCycle = 0;
    uint64_t data = 0;          //!< payload for reads
    bool rowHit = false;
    bool failed = false;        //!< rejected after the stall bound
                                //!< expired (no data transferred);
                                //!< the requester must re-issue once
                                //!< trust is re-established
};

/** Controller statistics. */
struct ControllerStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t rowHits = 0;
    uint64_t rowMisses = 0;
    uint64_t refreshes = 0;
    uint64_t stalledCycles = 0;   //!< cycles spent distrusting the bus
    uint64_t gateRejections = 0;  //!< device-side blocks observed
    uint64_t failedRequests = 0;  //!< requests rejected at the stall
                                  //!< bound instead of served
    RunningStats latency;         //!< request latency in cycles

    /** @return row-hit fraction of all data commands. */
    double rowHitRate() const;
};

/**
 * The memory controller.
 */
class MemoryController
{
  public:
    using CompletionCallback = std::function<void(const MemCompletion &)>;

    /**
     * @param sdram     the attached device (caller keeps it alive)
     * @param queue_cap request queue capacity
     */
    MemoryController(Sdram &sdram, std::size_t queue_cap = 64);

    /**
     * Enqueue a request.
     *
     * @return false when the queue is full (caller retries later)
     */
    bool enqueue(MemRequest request);

    /** Advance one clock cycle: schedule and issue one command. */
    void tick(uint64_t cycle);

    /** @return true when no requests are queued or in flight. */
    bool idle() const;

    /** Register the completion callback. */
    void onCompletion(CompletionCallback cb) { callback_ = std::move(cb); }

    /**
     * CPU-side DIVOT hook: while distrusted, no new data commands are
     * issued (the paper's "stop normal memory operation until the
     * fingerprint matches again").
     */
    void setBusTrusted(bool trusted) { busTrusted_ = trusted; }

    /** @return whether the controller currently trusts the bus. */
    bool busTrusted() const { return busTrusted_; }

    /**
     * Bound the distrust stall: after `cycles` consecutive stalled
     * cycles with requests waiting, queued requests are rejected with
     * `MemCompletion::failed` instead of waiting forever. 0 (the
     * default) keeps the legacy unbounded stall. The DIVOT gate sets
     * this from the monitoring-round length so a quarantined
     * instrument degrades availability instead of deadlocking the
     * queue.
     */
    void setStallBound(uint64_t cycles) { stallBound_ = cycles; }

    /** @return the configured stall bound (0 = unbounded). */
    uint64_t stallBound() const { return stallBound_; }

    /** @return accumulated statistics. */
    const ControllerStats &stats() const { return stats_; }

    /** @return number of queued requests. */
    std::size_t queueDepth() const { return queue_.size(); }

  private:
    struct InFlight
    {
        MemRequest request;
        uint64_t doneCycle;
        bool rowHit;
    };

    /** Queued request plus whether it already needed a PRE/ACT. */
    struct QueuedRequest
    {
        MemRequest request;
        bool missedRow = false;
    };

    Sdram &sdram_;
    std::size_t queueCap_;
    std::deque<QueuedRequest> queue_;
    std::vector<InFlight> inFlight_;
    CompletionCallback callback_;
    ControllerStats stats_;
    bool busTrusted_ = true;
    uint64_t nextRefresh_;
    uint64_t stallBound_ = 0;
    uint64_t stallStreak_ = 0;

    DramAddress decode(uint64_t address) const;
    void completeFinished(uint64_t cycle);
    void failQueued(uint64_t cycle);
    bool tryIssueFor(QueuedRequest &entry, uint64_t cycle,
                     std::size_t queue_index);
};

} // namespace divot

#endif // DIVOT_MEMSYS_CONTROLLER_HH
