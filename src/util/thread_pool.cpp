#include "util/thread_pool.h"

#include <algorithm>

namespace fastgl {
namespace util {

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0) {
        threads = std::max(2u, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::parallel_for(size_t count,
                         const std::function<void(size_t, size_t)> &fn)
{
    if (count == 0)
        return;
    const size_t chunks = std::min(count, workers_.size());
    const size_t chunk_size = (count + chunks - 1) / chunks;
    TaskGroup group(*this, chunks);
    for (size_t begin = 0; begin < count; begin += chunk_size) {
        const size_t end = std::min(count, begin + chunk_size);
        group.run([&fn, begin, end] { fn(begin, end); });
    }
    group.wait();
}

void
TaskGroup::wait()
{
    // Wait for every task before surfacing the first failure so no
    // task is still touching caller state when the caller unwinds.
    std::exception_ptr first;
    for (std::future<void> &future : futures_) {
        try {
            future.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    futures_.clear();
    if (first)
        std::rethrow_exception(first);
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

} // namespace util
} // namespace fastgl
