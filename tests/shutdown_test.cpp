/**
 * @file
 * Tests for util::StageShutdown — the close-queues/join/drain idiom of
 * serve::Server's stage graph.
 * The load-bearing property: a request_stop() racing a running stage
 * graph closes every queue exactly once and never deadlocks, no matter
 * where the stages are blocked (full push, empty pop) when it lands.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/bounded_queue.h"
#include "util/shutdown.h"

namespace fastgl {
namespace {

TEST(StageShutdown, StartsUnstoppedAndStopIsSticky)
{
    util::StageShutdown shutdown;
    EXPECT_FALSE(shutdown.stop_requested());
    shutdown.request_stop(); // no closer registered: just the flag
    EXPECT_TRUE(shutdown.stop_requested());
    shutdown.request_stop(); // idempotent
    EXPECT_TRUE(shutdown.stop_requested());
}

TEST(StageShutdown, BeginRunResetsTheFlagForTheNextRun)
{
    util::StageShutdown shutdown;
    shutdown.request_stop();
    ASSERT_TRUE(shutdown.stop_requested());

    // A stop that happened before the run began targeted no run; the
    // new run starts clean (a serve() after a stopped one must execute
    // fully).
    int closes = 0;
    shutdown.begin_run([&closes] { ++closes; });
    EXPECT_FALSE(shutdown.stop_requested());
    EXPECT_EQ(closes, 0);

    shutdown.request_stop();
    EXPECT_TRUE(shutdown.stop_requested());
    EXPECT_EQ(closes, 1);
    shutdown.end_run();

    // After end_run the closer is gone; stopping is flag-only again.
    shutdown.request_stop();
    EXPECT_EQ(closes, 1);
}

TEST(StageShutdown, MidFlightStopUnblocksAllStagesWithoutDeadlock)
{
    // A two-stage graph wired like the pipelines: producers block on a
    // tiny full queue, consumers block on an empty one. request_stop()
    // from outside must unwedge every thread. The whole test runs
    // under a watchdog so a regression fails instead of hanging CI.
    util::BoundedQueue<int> work(1);
    util::BoundedQueue<int> done(1);
    util::StageShutdown shutdown;
    shutdown.begin_run([&work, &done] {
        work.close();
        done.close();
    });

    std::atomic<int> exited{0};
    std::vector<std::thread> stages;
    for (int i = 0; i < 3; ++i) {
        stages.emplace_back([&work, &shutdown, &exited] {
            // Producers: the queue holds one item, so all but the
            // first push block until the stop closes the queue.
            int item = 0;
            while (!shutdown.stop_requested()) {
                if (!work.push(item++))
                    break;
            }
            exited.fetch_add(1);
        });
    }
    for (int i = 0; i < 2; ++i) {
        stages.emplace_back([&done, &exited] {
            // Consumers of a queue nothing feeds: blocked in pop()
            // until close() drains them out with nullopt.
            while (done.pop())
                ;
            exited.fetch_add(1);
        });
    }

    // Let the stages actually reach their blocking calls.
    while (work.size() < work.capacity())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(exited.load(), 0) << "stages exited before the stop";

    shutdown.request_stop();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (exited.load() < 5 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(exited.load(), 5) << "a stage is deadlocked after stop";
    for (std::thread &t : stages)
        t.join();
    EXPECT_TRUE(shutdown.stop_requested());
    shutdown.end_run();
}

TEST(StageShutdown, ConcurrentStopsCloseQueuesExactlyOnceSafely)
{
    // close() is idempotent on BoundedQueue, but the closer must still
    // be safe to invoke from many racing request_stop() calls.
    util::StageShutdown shutdown;
    std::atomic<int> closes{0};
    shutdown.begin_run([&closes] { closes.fetch_add(1); });

    std::vector<std::thread> stoppers;
    for (int i = 0; i < 8; ++i)
        stoppers.emplace_back([&shutdown] { shutdown.request_stop(); });
    for (std::thread &t : stoppers)
        t.join();
    EXPECT_TRUE(shutdown.stop_requested());
    // Every stop ran the closer (stop is level- not edge-triggered);
    // the closer itself must tolerate that, as queue close() does.
    EXPECT_GE(closes.load(), 1);
    shutdown.end_run();
}

} // namespace
} // namespace fastgl
