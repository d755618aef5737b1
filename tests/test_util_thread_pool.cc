/**
 * @file
 * Tests for the campaign thread pool: queue semantics, parallelFor
 * coverage, caller participation and per-call completion, exception
 * propagation, the parallelChains step order, serial reference and
 * error contract, and the DIVOT_THREADS resolution the study and the
 * benches rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.hh"

namespace divot {
namespace {

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce)
{
    // Sizes on both sides of n = 8 × threads, where blocks grow past
    // one index: single-index blocks below it, multi-index blocks
    // with a short last one above it.
    for (const unsigned threads : {2u, 3u, 4u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        for (const std::size_t n : {2u, 3u, 5u, 31u, 33u, 4097u}) {
            std::vector<std::atomic<int>> visits(n);
            pool.parallelFor(n, [&](std::size_t i) { ++visits[i]; });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(visits[i].load(), 1)
                    << "threads " << threads << ", n " << n
                    << ", index " << i;
            }
        }
    }
}

TEST(ThreadPool, ParallelForDisjointWritesMatchSerial)
{
    constexpr std::size_t n = 512;
    auto body = [](std::size_t i) {
        return static_cast<double>(i) * 1.5 + 2.0;
    };

    std::vector<double> serial(n), parallel(n);
    ThreadPool one(1);
    one.parallelFor(n, [&](std::size_t i) { serial[i] = body(i); });
    ThreadPool many(8);
    many.parallelFor(n, [&](std::size_t i) { parallel[i] = body(i); });
    EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, SubmitAndWaitDrainsQueue)
{
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 64);

    // The pool stays usable after a drain.
    pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 65);
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](std::size_t i) {
                             ++ran;
                             if (i == 37)
                                 throw std::runtime_error("bin 37");
                         }),
        std::runtime_error);
    // Every body ran before the rethrow: the pool is reusable.
    pool.parallelFor(8, [&](std::size_t) { ++ran; });
    EXPECT_GE(ran.load(), 8);
}

TEST(ThreadPool, SubmitExceptionSurfacesAtDrain)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    pool.submit([&done] { ++done; });
    pool.submit([&done] { ++done; });
    // wait() never throws; the error stays pending for drain().
    pool.wait();
    EXPECT_EQ(done.load(), 2);
    EXPECT_THROW(pool.drain(), std::runtime_error);

    // The error is cleared: the next drain is clean and the pool
    // stays usable.
    pool.submit([&done] { ++done; });
    EXPECT_NO_THROW(pool.drain());
    EXPECT_EQ(done.load(), 3);
}

TEST(ThreadPool, ParallelForLeavesSubmitErrorsForDrain)
{
    ThreadPool pool(4);
    pool.submit([] { throw std::runtime_error("task failed"); });
    pool.wait();

    // No body throws, so the fan-out must not report (or clear) the
    // submitted task's error: that one belongs to drain().
    std::atomic<int> ran{0};
    EXPECT_NO_THROW(pool.parallelFor(16, [&](std::size_t) { ++ran; }));
    EXPECT_EQ(ran.load(), 16);
    EXPECT_THROW(pool.drain(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsOnCallerWhenWorkersAreBusy)
{
    ThreadPool pool(3);
    std::mutex mutex;
    std::condition_variable changed;
    int parked = 0;
    bool open = false;
    for (int w = 0; w < 3; ++w) {
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mutex);
            ++parked;
            changed.notify_all();
            changed.wait(lock, [&] { return open; });
        });
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return parked == 3; });
    }
    auto openGate = [&] {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        changed.notify_all();
    };
    // Opens the gate after 2 s, so a pool that leaves the bodies to
    // its (parked) workers fails this test instead of hanging it.
    std::thread valve([&] {
        {
            std::unique_lock<std::mutex> lock(mutex);
            changed.wait_for(lock, std::chrono::seconds(2),
                             [&] { return open; });
        }
        openGate();
    });

    std::vector<std::thread::id> ranOn(6);
    pool.parallelFor(ranOn.size(),
                     [&](std::size_t i) {
                         ranOn[i] = std::this_thread::get_id();
                     });
    openGate();
    valve.join();
    pool.drain();
    for (std::size_t i = 0; i < ranOn.size(); ++i)
        EXPECT_EQ(ranOn[i], std::this_thread::get_id()) << "index " << i;
}

TEST(ThreadPool, DrainKeepsFirstOfManyErrors)
{
    ThreadPool pool(1);  // serialize: "first" is well defined
    for (int i = 0; i < 4; ++i) {
        pool.submit([i] {
            throw std::runtime_error("task " + std::to_string(i));
        });
    }
    try {
        pool.drain();
        FAIL() << "drain did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 0");
    }
}

TEST(ThreadPool, ZeroIterationsIsANoop)
{
    ThreadPool pool(2);
    bool touched = false;
    pool.parallelFor(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelChainsRunsEveryStepOnceInOrder)
{
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
        ThreadPool pool(threads);
        for (const std::size_t chains : {1u, 2u, 3u, 6u, 13u}) {
            for (const std::size_t steps : {1u, 2u, 7u}) {
                // `done` is plain state a chain's steps share across
                // threads: only the claim hand-off orders it.
                std::vector<std::size_t> done(chains, 0);
                std::vector<std::atomic<bool>> inFlight(chains);
                std::vector<std::atomic<int>> visits(chains * steps);
                std::atomic<int> overlaps{0};
                std::atomic<int> outOfOrder{0};
                pool.parallelChains(
                    chains, steps, [&](std::size_t c, std::size_t s) {
                        if (inFlight[c].exchange(true))
                            ++overlaps;
                        if (done[c] != s)
                            ++outOfOrder;
                        ++visits[c * steps + s];
                        std::this_thread::yield();
                        done[c] = s + 1;
                        inFlight[c] = false;
                    });
                EXPECT_EQ(overlaps.load(), 0);
                EXPECT_EQ(outOfOrder.load(), 0);
                for (std::size_t c = 0; c < chains; ++c) {
                    EXPECT_EQ(done[c], steps);
                    for (std::size_t s = 0; s < steps; ++s) {
                        EXPECT_EQ(visits[c * steps + s].load(), 1)
                            << "threads " << threads << ", chains "
                            << chains << ", steps " << steps
                            << ", step (" << c << ", " << s << ")";
                    }
                }
            }
        }
    }
}

TEST(ThreadPool, ParallelChainsSerialReferenceRunsInlineInChainOrder)
{
    struct Shape
    {
        unsigned threads;
        std::size_t chains;
    };
    // One worker, and one chain on several.
    for (const Shape shape : {Shape{1, 4}, Shape{4, 1}}) {
        ThreadPool pool(shape.threads);
        std::vector<std::pair<std::size_t, std::size_t>> order;
        std::vector<std::thread::id> ranOn;
        pool.parallelChains(shape.chains, 3,
                            [&](std::size_t c, std::size_t s) {
                                order.emplace_back(c, s);
                                ranOn.push_back(
                                    std::this_thread::get_id());
                            });
        std::vector<std::pair<std::size_t, std::size_t>> expected;
        for (std::size_t c = 0; c < shape.chains; ++c) {
            for (std::size_t s = 0; s < 3; ++s)
                expected.emplace_back(c, s);
        }
        EXPECT_EQ(order, expected) << "threads " << shape.threads;
        for (const std::thread::id id : ranOn)
            EXPECT_EQ(id, std::this_thread::get_id());
    }
}

TEST(ThreadPool, ParallelChainsWithNoStepsIsANoop)
{
    for (const unsigned threads : {1u, 3u}) {
        ThreadPool pool(threads);
        bool touched = false;
        auto body = [&](std::size_t, std::size_t) { touched = true; };
        pool.parallelChains(0, 5, body);
        pool.parallelChains(5, 0, body);
        EXPECT_FALSE(touched);
    }
}

TEST(ThreadPool, ParallelChainsFailedChainStopsAndOthersFinish)
{
    constexpr std::size_t chains = 5;
    constexpr std::size_t steps = 6;
    for (const unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> ran(chains * steps);
        std::atomic<int> running{0};
        std::atomic<int> finished{0};
        auto body = [&](std::size_t c, std::size_t s) {
            ++running;
            ++ran[c * steps + s];
            std::this_thread::yield();
            --running;
            ++finished;
            if (c == 2 && s == 3)
                throw std::runtime_error("chain 2");
            if (c == 4 && s == 1)
                throw std::logic_error("chain 4");
        };
        std::string caught;
        try {
            pool.parallelChains(chains, steps, body);
        } catch (const std::exception &e) {
            caught = e.what();
            // Every claimed step had finished before the rethrow.
            EXPECT_EQ(running.load(), 0);
            EXPECT_EQ(finished.load(), 6 + 6 + 4 + 6 + 2);
        }
        // Serially chain 2 fails first; on a pool either may.
        if (threads == 1)
            EXPECT_EQ(caught, "chain 2");
        else
            EXPECT_TRUE(caught == "chain 2" || caught == "chain 4")
                << caught;
        for (std::size_t c = 0; c < chains; ++c) {
            const std::size_t last =
                c == 2 ? 3 : (c == 4 ? 1 : steps - 1);
            for (std::size_t s = 0; s < steps; ++s) {
                EXPECT_EQ(ran[c * steps + s].load(), s <= last ? 1 : 0)
                    << "threads " << threads << ", step (" << c << ", "
                    << s << ")";
            }
        }
        // The pool stays usable.
        std::atomic<int> after{0};
        pool.parallelChains(3, 2, [&](std::size_t, std::size_t) {
            ++after;
        });
        EXPECT_EQ(after.load(), 6);
    }
}

TEST(ThreadPool, ParallelChainsHandsNextStepsToFreeWorkers)
{
    // 3 chains x 2 steps on 2 workers. Step 1 of chains 0 and 1 waits
    // for step 0 of chain 2 to start. A free worker must take chain
    // 2's step 0 (most steps left) once it finishes a step 0; a pool
    // that ran each chain whole on one worker would park both workers
    // in chains 0 and 1 and never start chain 2. The wait is bounded,
    // so that schedule fails here instead of hanging.
    ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable started;
    bool chain2Started = false;
    std::atomic<int> timedOut{0};
    pool.parallelChains(3, 2, [&](std::size_t c, std::size_t s) {
        std::unique_lock<std::mutex> lock(mutex);
        if (c == 2 && s == 0) {
            chain2Started = true;
            started.notify_all();
        } else if (c < 2 && s == 1) {
            if (!started.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return chain2Started; }))
                ++timedOut;
        }
    });
    EXPECT_TRUE(chain2Started);
    EXPECT_EQ(timedOut.load(), 0);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvironment)
{
    ASSERT_EQ(setenv("DIVOT_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 3u);

    ASSERT_EQ(setenv("DIVOT_THREADS", "garbage", 1), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);

    ASSERT_EQ(unsetenv("DIVOT_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPool, DefaultThreadCountRejectsValuesBeyondUnsigned)
{
    ASSERT_EQ(unsetenv("DIVOT_THREADS"), 0);
    const unsigned fallback = ThreadPool::defaultThreadCount();

    // 2^32 fits a long but not an unsigned; it used to wrap to a pool
    // with no workers, so submit() never ran and drain() hung.
    ASSERT_EQ(setenv("DIVOT_THREADS", "4294967296", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback);
    {
        ThreadPool pool(0);
        ASSERT_EQ(pool.threadCount(), fallback);
        std::atomic<int> ran{0};
        pool.submit([&ran] { ++ran; });
        pool.drain();
        EXPECT_EQ(ran.load(), 1);
    }

    // Beyond long: strtol reports ERANGE and saturates.
    ASSERT_EQ(setenv("DIVOT_THREADS", "99999999999999999999", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback);

    ASSERT_EQ(unsetenv("DIVOT_THREADS"), 0);
}

} // namespace
} // namespace divot
