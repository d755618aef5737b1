/**
 * @file
 * Reusable worker-thread pool for the measurement campaigns.
 *
 * The Monte-Carlo studies are embarrassingly parallel once every
 * measurement task owns its random stream (Rng::forkStable) and its
 * wall-clock slot is precomputed, so the pool is deliberately simple:
 * a work queue drained by persistent workers plus a parallelFor that
 * fans indexed tasks out, works on them from the calling thread too,
 * and returns when they are complete, and a parallelChains that runs
 * chains of ordered steps on one such fan-out. Determinism is the
 * caller's contract — tasks must write disjoint state and must not
 * share random streams — the pool itself adds no ordering guarantees
 * beyond completion and the step order within a chain.
 */

#ifndef DIVOT_UTIL_THREAD_POOL_HH
#define DIVOT_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hh"

namespace divot {

/**
 * Fixed-size pool of worker threads with a FIFO work queue.
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 resolves through
     *                defaultThreadCount() (the DIVOT_THREADS
     *                environment variable, else hardware concurrency)
     */
    explicit ThreadPool(unsigned threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Thread count a default-constructed pool uses: the DIVOT_THREADS
     * environment variable when set to a positive integer that fits
     * `unsigned`, otherwise (with a warning when set)
     * std::thread::hardware_concurrency() (minimum 1).
     */
    static unsigned defaultThreadCount();

    /** @return number of worker threads (>= 1). */
    unsigned threadCount() const { return threadCount_; }

    /**
     * Enqueue one task. The first exception escaping any task is
     * captured (the worker keeps running) and rethrown by the next
     * drain(); later exceptions before that drain are dropped —
     * matching parallelFor's first-error contract.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. A captured
     *  exception stays pending for drain(). */
    void wait();

    /**
     * Block until every submitted task has finished, then rethrow the
     * first exception any task raised since the last drain (clearing
     * it). Returns normally when no task threw.
     */
    void drain();

    /**
     * Run body(0..n-1) and return once every body has finished.
     * Indices are claimed dynamically, in blocks sized from n and the
     * worker count, so bodies must be independent (disjoint writes,
     * no shared random streams).
     *
     * The calling thread claims blocks too, beside at most
     * threadCount() - 1 helper tasks queued on the pool. Completion
     * is per call: the call waits for its own bodies only, never for
     * unrelated submit() tasks, and it may return before a helper
     * that found nothing left to claim has even started (such a
     * helper never touches `body`). A fan-out the caller finishes
     * alone, e.g. while every worker is busy, therefore costs only
     * the helpers' enqueue; there is no size threshold.
     *
     * With a single worker, or n == 1, the loop runs inline on the
     * calling thread in index order — the serial reference path used
     * by the determinism tests. Otherwise the first exception a body
     * throws is rethrown here after every body has run. Errors from
     * submit() tasks are left pending for drain().
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Run body(c, s) for every chain c < chains and step s < steps,
     * where each chain's steps run in order and one at a time: step s
     * of a chain starts only after its step s - 1 has finished, on
     * whichever thread claims it. Chains are independent of each
     * other; a chain's steps may share state, which the claim mutex
     * hands from thread to thread.
     *
     * A free worker takes the next step of the unclaimed chain with
     * the most steps left; ties go to the chain it just ran, then to
     * the lowest index. So every worker stays busy while at least
     * threadCount() chains are unfinished, and the chains finish
     * together instead of in rounds of whole chains. The workers are
     * min(threadCount(), chains) loops of one parallelFor call.
     *
     * With a single worker, or chains == 1, the chains run inline on
     * the calling thread, each to completion, in chain order: the
     * serial reference. On every path a chain whose step throws runs
     * no further steps while the other chains run to completion; the
     * first exception is rethrown once every claimed step has
     * finished. Zero chains or zero steps is a no-op.
     */
    void parallelChains(
        std::size_t chains, std::size_t steps,
        const std::function<void(std::size_t, std::size_t)> &body);

    /**
     * Attach a telemetry sink under `prefix`. Every pool metric
     * registers as Unstable, so none enters the deterministic export:
     * submitted-task counts, queue-depth high-water and the worker
     * count depend on scheduling, and parallelFor call/item counts on
     * how callers partition their work. Pass nullptr to detach. Not
     * owned; must outlive the pool.
     */
    void attachTelemetry(Telemetry *telemetry,
                         const std::string &prefix = "pool");

  private:
    unsigned threadCount_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::size_t pending_ = 0;  //!< queued + running tasks
    bool stopping_ = false;
    std::exception_ptr firstError_;  //!< first task exception since
                                     //!< the last drain()

    /** @name Telemetry plumbing (inert until attachTelemetry). */
    ///@{
    Counter tmTasks_;          //!< Unstable: helper tasks scale with
                               //!< the worker count
    Counter tmParallelFors_;   //!< Unstable call count
    Counter tmParallelItems_;  //!< Unstable total indices dispatched
    Gauge tmQueueDepthMax_;    //!< Unstable high-water mark
    Gauge tmWorkers_;          //!< Unstable worker count
    ///@}

    void workerLoop();
    void recordError(std::exception_ptr error);
};

} // namespace divot

#endif // DIVOT_UTIL_THREAD_POOL_HH
