/**
 * @file
 * Cooperative shutdown of a multi-stage thread graph.
 *
 * The serving loop in fastgl::serve tears its stage graph down with one
 * idiom: a stop flag the stages poll, plus a "close everything" action
 * (typically closing the BoundedQueues between stages) that must run
 * exactly when a run is in flight. StageShutdown packages that idiom,
 * so a stage graph does not hand-roll the same flag + mutex + callback
 * trio.
 *
 * Lifecycle per run:
 *
 *   shutdown.begin_run(close_all);   // reset flag, register the closer
 *   ... spawn stages; each polls shutdown.stop_requested() ...
 *   ... any thread may call shutdown.request_stop() ...
 *   shutdown.end_run();              // after joins: unregister closer
 *
 * request_stop() is idempotent and safe from any thread, including
 * before begin_run (each run starts fresh — the reset and the closer
 * registration happen atomically, so a stop can never fall between
 * them and leave stages blocked on their queues) and after end_run
 * (the closer is unregistered; the stray flag is cleared by the next
 * begin_run).
 */
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <utility>

namespace fastgl {
namespace util {

/** One stop flag + close-the-queues action for a stage graph. */
class StageShutdown
{
  public:
    StageShutdown() = default;
    StageShutdown(const StageShutdown &) = delete;
    StageShutdown &operator=(const StageShutdown &) = delete;

    /**
     * Start a run: clear the stop flag and register @p close_all, the
     * action that unblocks every stage (close/fail the connecting
     * queues). Flag and closer change under one lock, so a concurrent
     * request_stop() either happens-before this call (and is
     * discarded — it targeted no run) or observes the new closer and
     * stops the new run.
     */
    void
    begin_run(std::function<void()> close_all)
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_.store(false, std::memory_order_release);
        close_ = std::move(close_all);
    }

    /** End a run (call after all stage threads joined). */
    void
    end_run()
    {
        std::lock_guard<std::mutex> lock(mu_);
        close_ = nullptr;
    }

    /**
     * Ask the current run to wind down: sets the flag and invokes the
     * registered closer (if a run is in flight). Safe from any thread;
     * idempotent.
     */
    void
    request_stop()
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_.store(true, std::memory_order_release);
        if (close_)
            close_();
    }

    /** True once request_stop() was called for the current run. */
    bool
    stop_requested() const
    {
        return stop_.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> stop_{false};
    /** Guards close_, which is only set while a run is in flight. */
    std::mutex mu_;
    std::function<void()> close_;
};

} // namespace util
} // namespace fastgl
