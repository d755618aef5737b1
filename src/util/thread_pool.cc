#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <exception>
#include <memory>
#include <utility>

#include "util/logging.hh"

namespace divot {

unsigned
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("DIVOT_THREADS")) {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(env, &end, 10);
        // Out-of-range values must not wrap: 2^32 would cast to a
        // pool with no workers, whose submitted tasks never run.
        if (end != env && *end == '\0' && errno != ERANGE && v >= 1 &&
            static_cast<unsigned long>(v) <=
                std::numeric_limits<unsigned>::max())
            return static_cast<unsigned>(v);
        divot_warn("ignoring invalid DIVOT_THREADS value '%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned threads)
    : threadCount_(threads > 0 ? threads : defaultThreadCount())
{
    // A single-thread pool runs everything inline in parallelFor and
    // on one worker in submit; still spawn the worker so submit works.
    workers_.reserve(threadCount_);
    for (unsigned i = 0; i < threadCount_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            // Keep the worker alive: the error surfaces at the next
            // drain() instead of terminating the process.
            recordError(std::current_exception());
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
            if (pending_ == 0)
                allDone_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            divot_panic("submit on a stopping ThreadPool");
        queue_.push_back(std::move(task));
        ++pending_;
        tmTasks_.add();
        tmQueueDepthMax_.max(static_cast<int64_t>(queue_.size()));
    }
    taskReady_.notify_one();
}

void
ThreadPool::attachTelemetry(Telemetry *telemetry,
                            const std::string &prefix)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (telemetry == nullptr || !telemetry->enabled()) {
        tmTasks_ = Counter();
        tmParallelFors_ = Counter();
        tmParallelItems_ = Counter();
        tmQueueDepthMax_ = Gauge();
        tmWorkers_ = Gauge();
        return;
    }
    Registry &reg = telemetry->registry();
    tmTasks_ = reg.counter(prefix + ".tasks",
                           MetricStability::Unstable);
    // Execution-shape accounting, like queue depth: the number of
    // parallelFor fan-outs depends on how work is partitioned (e.g.
    // the hydration lane count), not on what the fleet computed, so the
    // counts stay out of the stable deterministic export.
    tmParallelFors_ = reg.counter(prefix + ".parallel_for.calls",
                                  MetricStability::Unstable);
    tmParallelItems_ = reg.counter(prefix + ".parallel_for.items",
                                   MetricStability::Unstable);
    tmQueueDepthMax_ = reg.gauge(prefix + ".queue_depth.max",
                                 MetricStability::Unstable);
    tmWorkers_ = reg.gauge(prefix + ".workers",
                           MetricStability::Unstable);
    tmWorkers_.set(threadCount_);
}

void
ThreadPool::recordError(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!firstError_)
        firstError_ = std::move(error);
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return pending_ == 0; });
}

void
ThreadPool::drain()
{
    wait();
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        error = std::exchange(firstError_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

namespace {

/**
 * One parallelFor call's shared state. The caller and its helpers
 * hold it through a shared_ptr, so a helper the pool schedules after
 * the call returned still finds it alive; such a helper's first claim
 * lands past `n`, and it leaves without touching `body`.
 */
struct ForLoop
{
    ForLoop(std::size_t count, std::size_t blockSize,
            const std::function<void(std::size_t)> &fn)
        : n(count), block(blockSize), body(&fn)
    {
    }

    const std::size_t n;
    const std::size_t block;
    /** Dereferenced only for claimed indices, i.e. while the caller
     *  still waits for them. */
    const std::function<void(std::size_t)> *const body;
    std::atomic<std::size_t> next{0};  //!< first unclaimed index

    std::mutex mutex;
    std::condition_variable finished;
    std::size_t done = 0;            //!< bodies run (guarded by mutex)
    std::exception_ptr firstError;   //!< guarded by mutex

    /** Claim and run blocks of indices until none are left. */
    void run()
    {
        for (;;) {
            const std::size_t begin =
                next.fetch_add(block, std::memory_order_relaxed);
            if (begin >= n)
                return;
            const std::size_t end = std::min(n, begin + block);
            for (std::size_t i = begin; i < end; ++i) {
                try {
                    (*body)(i);
                } catch (...) {
                    // Record but keep going: every body runs even
                    // when an early one fails, matching the serial
                    // path's side effects as closely as possible
                    // before the error is rethrown.
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!firstError)
                        firstError = std::current_exception();
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            done += end - begin;
            if (done == n)
                finished.notify_one();
        }
    }
};

} // namespace

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    tmParallelFors_.add();
    tmParallelItems_.add(n);
    if (threadCount_ <= 1 || n == 1) {
        // Serial reference path: same bodies, same order, no pool.
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // About eight blocks per worker: few enough that claims stay off
    // the profile for trivial bodies, enough to even out uneven ones.
    const std::size_t block =
        std::max<std::size_t>(1, n / (8 * std::size_t{threadCount_}));
    const std::size_t blocks = (n + block - 1) / block;
    const std::size_t helpers =
        std::min<std::size_t>(threadCount_, blocks) - 1;

    auto loop = std::make_shared<ForLoop>(n, block, body);
    for (std::size_t h = 0; h < helpers; ++h)
        submit([loop] { loop->run(); });
    loop->run();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(loop->mutex);
        loop->finished.wait(lock, [&] { return loop->done == n; });
        error = loop->firstError;
    }
    if (error)
        std::rethrow_exception(error);
}

namespace {

/** One parallelChains call's claim table; every field is guarded by
 *  `mutex`, whose hand-off orders a chain's steps across threads. */
struct ChainTable
{
    static constexpr std::size_t kNone = ~std::size_t{0};

    ChainTable(std::size_t chains, std::size_t stepCount)
        : steps(stepCount), next(chains, 0), claimed(chains, 0)
    {
    }

    const std::size_t steps;
    std::vector<std::size_t> next;  //!< next step per chain; `steps`
                                    //!< once finished or failed
    std::vector<char> claimed;      //!< a step of the chain is running
    std::size_t running = 0;        //!< claimed steps
    std::exception_ptr firstError;
    std::mutex mutex;
    std::condition_variable released;

    /** The unclaimed chain with the most steps left (ties: `last`,
     *  then the lowest index), or kNone. */
    std::size_t pick(std::size_t last) const
    {
        std::size_t best = kNone;
        std::size_t bestLeft = 0;
        for (std::size_t c = 0; c < next.size(); ++c) {
            const std::size_t left = steps - next[c];
            if (claimed[c] != 0 || left == 0)
                continue;
            if (left > bestLeft || (left == bestLeft && c == last)) {
                best = c;
                bestLeft = left;
            }
        }
        return best;
    }

    /** One worker: claim, run and release steps until no chain has
     *  one left and none is running. */
    void work(const std::function<void(std::size_t, std::size_t)> &body)
    {
        std::size_t last = kNone;
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            std::size_t c = kNone;
            released.wait(lock, [&] {
                c = pick(last);
                return c != kNone || running == 0;
            });
            if (c == kNone)
                return;
            const std::size_t s = next[c];
            claimed[c] = 1;
            ++running;
            lock.unlock();
            std::exception_ptr error;
            try {
                body(c, s);
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            claimed[c] = 0;
            --running;
            next[c] = error ? steps : s + 1;
            if (error && !firstError)
                firstError = std::move(error);
            last = c;
            // Wakes workers parked at the tail of the call: the chain
            // is claimable again, or everything has finished.
            released.notify_all();
        }
    }
};

} // namespace

void
ThreadPool::parallelChains(
    std::size_t chains, std::size_t steps,
    const std::function<void(std::size_t, std::size_t)> &body)
{
    if (chains == 0 || steps == 0)
        return;
    if (threadCount_ <= 1 || chains == 1) {
        // Serial reference path: each chain to completion, in order.
        std::exception_ptr firstError;
        for (std::size_t c = 0; c < chains; ++c) {
            try {
                for (std::size_t s = 0; s < steps; ++s)
                    body(c, s);
            } catch (...) {
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
        if (firstError)
            std::rethrow_exception(firstError);
        return;
    }

    ChainTable table(chains, steps);
    parallelFor(std::min<std::size_t>(threadCount_, chains),
                [&](std::size_t) { table.work(body); });
    if (table.firstError)
        std::rethrow_exception(table.firstError);
}

} // namespace divot
