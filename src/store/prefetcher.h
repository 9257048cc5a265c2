/**
 * @file
 * Sampler-lookahead prefetcher for the storage tier.
 *
 * Sampling runs ahead of gathering (the trainer's in-order lookahead
 * buffer knows future batches' node sets before their features are
 * needed), so the storage blocks a
 * future batch will touch can be read while earlier batches compute.
 * The prefetcher tracks a sliding window of registered future batches
 * with per-block reference counts: a block is issued to the IoScheduler
 * at most once per window no matter how many pending batches need it,
 * and leaves the window only when the last registered batch that
 * referenced it completes.
 *
 * Single-writer, like the IoScheduler: one sequencing loop registers
 * and retires batches in order.
 */
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace fastgl {
namespace store {

/** Cumulative prefetcher counters. */
struct PrefetchStats
{
    int64_t batches_registered = 0;
    int64_t blocks_requested = 0; ///< Block refs across registrations.
    int64_t blocks_issued = 0;    ///< Sent to the IoScheduler (unique
                                  ///< per window).
    int64_t blocks_suppressed = 0;///< Already in the window; not
                                  ///< issued again.
};

/** Sliding-window block dedup in front of prefetch reads. */
class LookaheadPrefetcher
{
  public:
    explicit LookaheadPrefetcher(int64_t num_blocks);

    /**
     * Register future batch @p batch_id's (deduplicated or not) block
     * list and return the blocks that entered the window — exactly the
     * ones the caller should hand to IoScheduler::submit as a prefetch.
     * A block already referenced by an earlier still-pending batch is
     * suppressed; duplicate IDs within @p blocks count once.
     */
    std::vector<int64_t> register_batch(int64_t batch_id,
                                        std::span<const int64_t> blocks);

    /**
     * Drop batch @p batch_id from the window, decrementing its blocks'
     * reference counts. Unknown IDs are a no-op (demand-only batches
     * are never registered).
     */
    void retire_batch(int64_t batch_id);

    /** Pending batches still holding window references. */
    int64_t window_size() const
    {
        return static_cast<int64_t>(window_.size());
    }

    /** Window reference count of @p block (test introspection). */
    int64_t
    refcount(int64_t block) const
    {
        return refcount_[static_cast<size_t>(block)];
    }

    const PrefetchStats &stats() const { return stats_; }

    /** Empty the window and zero the statistics. */
    void reset();

  private:
    int64_t num_blocks_ = 0;
    /** refcount_[b] = pending registered batches referencing b. */
    std::vector<int32_t> refcount_;
    /** (batch_id, per-batch unique block list), registration order. */
    std::vector<std::pair<int64_t, std::vector<int64_t>>> window_;
    /** Per-registration dedup scratch, epoch-stamped. */
    std::vector<uint32_t> seen_stamp_;
    uint32_t stamp_ = 0;
    PrefetchStats stats_;
};

} // namespace store
} // namespace fastgl
