/**
 * @file
 * Wall-clock timing helpers for host-side measurement.
 *
 * Note: simulated (modelled) GPU/PCIe time is produced by fastgl::sim, not
 * by these timers; WallTimer exists for measuring the real host cost of the
 * algorithms themselves (hash probes, set intersections, numeric training).
 */
#pragma once

#include <chrono>
#include <cstdint>

namespace fastgl {
namespace util {

/** Simple monotonic stopwatch. */
class WallTimer
{
  public:
    WallTimer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Seconds since construction or the last reset(). */
    double
    elapsed_seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/** Accumulates time over multiple start/stop intervals. */
class IntervalTimer
{
  public:
    /** Begin an interval. */
    void start() { timer_.reset(); running_ = true; }

    /** End the interval and add it to the total. */
    void
    stop()
    {
        if (running_) {
            total_ += timer_.elapsed_seconds();
            ++intervals_;
            running_ = false;
        }
    }

    /** Total accumulated seconds. */
    double total_seconds() const { return total_; }

    /** Number of completed intervals. */
    uint64_t intervals() const { return intervals_; }

    /** Clear all accumulated state. */
    void clear() { total_ = 0.0; intervals_ = 0; running_ = false; }

  private:
    WallTimer timer_;
    double total_ = 0.0;
    uint64_t intervals_ = 0;
    bool running_ = false;
};

} // namespace util
} // namespace fastgl
