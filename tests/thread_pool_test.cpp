/**
 * @file
 * Edge-case tests for util::ThreadPool: value-returning submit,
 * exception propagation through futures (the pool must survive a
 * throwing task), parallel_for boundary conditions, and
 * util::TaskGroup's wait-for-all on wait() and on destruction.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace fastgl {
namespace {

TEST(ThreadPoolSubmit, ReturnsTaskValueThroughFuture)
{
    util::ThreadPool pool(2);
    std::future<int> answer = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(answer.get(), 42);

    std::future<std::string> text =
        pool.submit([] { return std::string("overlap"); });
    EXPECT_EQ(text.get(), "overlap");
}

TEST(ThreadPoolSubmit, ExceptionSurfacesViaFutureNotTerminate)
{
    util::ThreadPool pool(2);
    std::future<void> bad =
        pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(bad.get(), std::runtime_error);

    // The pool must still be alive and able to run further tasks.
    std::future<int> good = pool.submit([] { return 7; });
    EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolSubmit, ManyThrowingTasksDoNotKillWorkers)
{
    util::ThreadPool pool(3);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i) {
        futures.push_back(pool.submit(
            [i] { if (i % 2 == 0) throw std::runtime_error("even"); }));
    }
    int threw = 0;
    for (auto &f : futures) {
        try {
            f.get();
        } catch (const std::runtime_error &) {
            ++threw;
        }
    }
    EXPECT_EQ(threw, 16);
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolParallelFor, CountZeroIsNoop)
{
    util::ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallel_for(0, [&](size_t, size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolParallelFor, CountSmallerThanWorkersCoversAllOnce)
{
    util::ThreadPool pool(8);
    std::vector<std::atomic<int>> touched(3);
    pool.parallel_for(3, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            touched[i].fetch_add(1);
    });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolParallelFor, LargeRangePartitionIsExact)
{
    util::ThreadPool pool(4);
    constexpr size_t kCount = 10007; // prime: uneven chunking
    std::vector<std::atomic<int>> touched(kCount);
    pool.parallel_for(kCount, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            touched[i].fetch_add(1);
    });
    for (size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolParallelFor, ThrowingChunkSurfacesHereAndPoolSurvives)
{
    util::ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](size_t begin, size_t end) {
                              if (begin == 0)
                                  throw std::runtime_error("chunk died");
                              completed.fetch_add(int(end - begin));
                          }),
        std::runtime_error);
    // The non-throwing chunks all ran to completion (75 of 100 items).
    EXPECT_EQ(completed.load(), 75);
    // And the pool still works.
    EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPoolParallelFor, SingleWorkerPoolStillPartitions)
{
    util::ThreadPool pool(1);
    std::vector<int> touched(64, 0);
    pool.parallel_for(64, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            ++touched[i];
    });
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 64);
}

TEST(ThreadPool, PendingCountDrainsToZero)
{
    util::ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(pool.submit([] {}));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(pool.pending(), 0u);
}

/** Sleep long enough that a wait which returned early would be seen. */
void
linger()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(ThreadPool, TaskGroupRethrowsFirstFailureAfterEveryTaskFinished)
{
    util::ThreadPool pool(3);
    std::atomic<int> finished{0};
    util::TaskGroup group(pool);
    group.run([] { throw std::runtime_error("first"); });
    group.run([&] {
        linger();
        finished.fetch_add(1);
    });
    group.run([] { throw std::logic_error("second"); });
    group.run([&] {
        linger();
        finished.fetch_add(1);
    });
    try {
        group.wait();
        FAIL() << "wait() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
    EXPECT_EQ(finished.load(), 2);

    // The group is empty again and runs a second round.
    group.run([&] { finished.fetch_add(1); });
    group.wait();
    EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPool, TaskGroupDestructorWaitsForItsTasks)
{
    util::ThreadPool pool(2);
    std::atomic<int> finished{0};
    {
        util::TaskGroup group(pool);
        for (int i = 0; i < 4; ++i) {
            group.run([&] {
                linger();
                finished.fetch_add(1);
            });
        }
        // A failure nobody waits for is dropped, not thrown.
        group.run([] { throw std::runtime_error("unobserved"); });
    }
    EXPECT_EQ(finished.load(), 4);
    EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
}

} // namespace
} // namespace fastgl
