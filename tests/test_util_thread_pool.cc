/**
 * @file
 * Tests for the campaign thread pool: queue semantics, parallelFor
 * coverage, caller participation and per-call completion, exception
 * propagation, and the DIVOT_THREADS resolution the study driver and
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
