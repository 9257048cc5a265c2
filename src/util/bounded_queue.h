/**
 * @file
 * Bounded MPMC queue — the hand-over structure between the stages of the
 * overlapped pipelines (core::Trainer's batch producer, the serving
 * loop).
 *
 * Producers block while the queue is full (backpressure: a slow consumer
 * throttles sampling instead of letting sampled batches or requests
 * pile up), consumers block while it is empty.
 * `close()` gives close-and-drain semantics: pushes are refused but
 * consumers keep popping until the queue runs dry, then receive nullopt.
 * `fail()` propagates an exception: pending items are dropped and every
 * blocked or future `pop()` rethrows the failure, so one dying stage
 * tears the whole pipeline down instead of deadlocking it.
 */
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

namespace fastgl {
namespace util {

/** Counters exposed by BoundedQueue for tests and stage accounting. */
struct QueueStats
{
    uint64_t pushed = 0;       ///< Items accepted by push/try_push.
    uint64_t popped = 0;       ///< Items handed to pop/try_pop.
    uint64_t push_blocked = 0; ///< Pushes that had to wait (backpressure).
    uint64_t pop_blocked = 0;  ///< Pops that had to wait (starvation).
    size_t max_depth = 0;      ///< High-water mark of the queue depth.
};

/** Blocking bounded multi-producer multi-consumer FIFO. */
template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity maximum items in flight (>= 1). */
    explicit BoundedQueue(size_t capacity)
        : capacity_(capacity < 1 ? 1 : capacity)
    {
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Enqueue @p value, blocking while the queue is full.
     * @return false when the queue was closed or failed (the value is
     *         discarded); true when the value was enqueued.
     */
    bool
    push(T value)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!has_room())
            ++stats_.push_blocked;
        not_full_.wait(lock, [this] {
            return closed_ || error_ || has_room();
        });
        if (closed_ || error_)
            return false;
        items_.push_back(std::move(value));
        on_pushed();
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /** Non-blocking push; false when full, closed, or failed. */
    bool
    try_push(T value)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || error_ || !has_room())
                return false;
            items_.push_back(std::move(value));
            on_pushed();
        }
        not_empty_.notify_one();
        return true;
    }

    /**
     * Dequeue one item, blocking while the queue is empty and open.
     * @return the item; nullopt once the queue is closed *and* drained.
     * @throws rethrows the exception passed to fail(), if any.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (items_.empty() && !closed_ && !error_)
            ++stats_.pop_blocked;
        not_empty_.wait(lock, [this] {
            return closed_ || error_ || !items_.empty();
        });
        if (error_)
            std::rethrow_exception(error_);
        if (items_.empty())
            return std::nullopt; // closed and drained
        std::optional<T> value(std::move(items_.front()));
        items_.pop_front();
        ++stats_.popped;
        lock.unlock();
        not_full_.notify_one();
        return value;
    }

    /** Non-blocking pop; nullopt when empty (or closed and drained). */
    std::optional<T>
    try_pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (error_)
            std::rethrow_exception(error_);
        if (items_.empty())
            return std::nullopt;
        std::optional<T> value(std::move(items_.front()));
        items_.pop_front();
        ++stats_.popped;
        lock.unlock();
        not_full_.notify_one();
        return value;
    }

    /** Refuse further pushes; consumers drain what remains (idempotent). */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    /**
     * Abort the queue with @p error: pending items are dropped, pushes
     * return false, and every pop rethrows @p error. The first failure
     * wins; later calls are no-ops.
     */
    void
    fail(std::exception_ptr error)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_) {
                error_ = std::move(error);
                items_.clear();
            }
            closed_ = true;
        }
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    bool
    failed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return error_ != nullptr;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    size_t capacity() const { return capacity_; }

    QueueStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

  private:
    bool has_room() const { return items_.size() < capacity_; }

    void
    on_pushed()
    {
        ++stats_.pushed;
        stats_.max_depth = std::max(stats_.max_depth, items_.size());
    }

    const size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<T> items_;
    QueueStats stats_;
    bool closed_ = false;
    std::exception_ptr error_;
};

} // namespace util
} // namespace fastgl
