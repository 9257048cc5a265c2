/**
 * @file
 * Fixed-size thread pool used for genuinely concurrent execution of the
 * Fused-Map hash insertions, the compute kernels, and the sampling of
 * core::Pipeline's Reorder windows; and TaskGroup, which waits for a
 * set of the pool's tasks together.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace fastgl {
namespace util {

/** A simple work-queue thread pool. Tasks may not block on each other. */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means hardware_concurrency(). */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue any callable; returns a future for its result. A thrown
     * exception is captured and rethrown from future::get(), never from
     * the worker (the pool survives throwing tasks).
     */
    template <typename F>
    auto
    submit(F &&task) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto packaged = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(task));
        std::future<R> future = packaged->get_future();
        enqueue([packaged] { (*packaged)(); });
        return future;
    }

    /**
     * Run @p fn(chunk_begin, chunk_end) over [0, count) split into
     * roughly equal contiguous chunks, one per worker, and wait. A
     * count of 0 is a no-op; fewer items than workers produce fewer
     * chunks. If a chunk throws, the first exception (in chunk order)
     * is rethrown here after all chunks finished.
     */
    void parallel_for(size_t count,
                      const std::function<void(size_t, size_t)> &fn);

    size_t size() const { return workers_.size(); }

    /** Tasks enqueued but not yet claimed by a worker. */
    size_t
    pending() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return tasks_.size();
    }

  private:
    void enqueue(std::function<void()> task);
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Tasks submitted to one pool and waited for together. wait() returns
 * once every task has finished, then rethrows the first failure in
 * submission order. The destructor waits as well (and drops any
 * failure), so on every exit of the owning scope, an exception
 * included, no task outlives the state it writes. Declare that state
 * before the group. A group is not thread safe: one thread runs and
 * waits.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool, size_t expected_tasks = 0)
        : pool_(pool)
    {
        futures_.reserve(expected_tasks);
    }

    ~TaskGroup()
    {
        for (std::future<void> &future : futures_)
            future.wait();
    }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit @p task to the pool as a member of this group. */
    template <typename F>
    void
    run(F &&task)
    {
        futures_.push_back(pool_.submit(std::forward<F>(task)));
    }

    /**
     * Wait for every task run so far, then rethrow the first failure;
     * the group is empty afterwards and may run more tasks.
     */
    void wait();

  private:
    ThreadPool &pool_;
    std::vector<std::future<void>> futures_;
};

} // namespace util
} // namespace fastgl
