/**
 * @file
 * Block-IO front end of the tiered feature store.
 *
 * Batch gathers and the prefetcher both speak in *blocks* here; the
 * scheduler's job is to make those requests cheap before they reach
 * the modelled drive:
 *
 *  - **coalescing** — duplicate block IDs inside one request batch
 *    collapse to a single read (rows of one block requested by several
 *    nodes move once);
 *  - **staging** — fetched blocks land in a bounded FIFO staging
 *    buffer (the host-pinned bounce buffer a real GIDS-style reader
 *    keeps); a request that finds its block staged pays nothing;
 *  - **windowing** — the surviving reads are issued to the
 *    sim::StorageLink in windows of the drive's queue depth, so a
 *    batch of reads pays ceil(n / window) read latencies, not n.
 *
 * Deterministic and single-writer: only one sequencing loop (trainer
 * epoch loop, serving sequencer) drives a scheduler, so plain counters
 * suffice and results are bit-identical across runs and thread widths.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "sim/storage_link.h"

namespace fastgl {
namespace store {

/** Bytes per storage block. */
inline constexpr uint64_t kBlockBytes = 16384;

/** IoScheduler tuning knobs. */
struct IoSchedulerOptions
{
    /** Staging-buffer capacity in blocks (FIFO eviction). */
    int64_t staging_blocks = 4096;
};

/** Cumulative IoScheduler counters. */
struct IoStats
{
    int64_t requested_blocks = 0; ///< Block IDs submitted (with dups).
    int64_t coalesced_blocks = 0; ///< Duplicates merged away.
    int64_t staged_hits = 0;      ///< Requests served from staging.
    int64_t fetched_blocks = 0;   ///< Blocks read from the drive.
    double demand_seconds = 0.0;  ///< Stall time of demand fetches.
    double prefetch_seconds = 0.0;///< Overlapped prefetch read time.
};

/** Coalescing, staging, and windowed charging over one StorageLink. */
class IoScheduler
{
  public:
    /**
     * @param link       the modelled drive (owned by the caller)
     * @param num_blocks total blocks the store spans
     * @param opts       staging capacity
     */
    IoScheduler(sim::StorageLink *link, int64_t num_blocks,
                IoSchedulerOptions opts);

    /**
     * Submit one batch of block IDs. Duplicates are coalesced, staged
     * blocks are free, and the rest are read in bounded windows. When
     * @p prefetch is set the read time is accounted as overlapped
     * (prefetch_seconds) instead of stall (demand_seconds) and newly
     * staged blocks are flagged so later demand hits on them can be
     * attributed to the prefetcher.
     * @return the modelled read seconds of this submission.
     */
    double submit(std::span<const int64_t> blocks, bool prefetch);

    /** True while @p block sits in the staging buffer. */
    bool
    staged(int64_t block) const
    {
        return staged_[static_cast<size_t>(block)] != 0;
    }

    /** Demand hits on blocks the prefetcher staged (attribution). */
    int64_t prefetch_hits() const { return prefetch_hits_; }

    const IoStats &stats() const { return stats_; }
    const IoSchedulerOptions &options() const { return opts_; }
    int64_t num_blocks() const { return num_blocks_; }

    /** Drop all staged blocks and zero the statistics. */
    void reset();

  private:
    sim::StorageLink *link_;
    int64_t num_blocks_ = 0;
    IoSchedulerOptions opts_;
    /** staged_[b]: 0 = absent, 1 = demand-staged, 2 = prefetched. */
    std::vector<uint8_t> staged_;
    /** FIFO of staged block IDs, oldest first. */
    std::deque<int64_t> staging_fifo_;
    /** Per-submission dedup scratch, epoch-stamped to avoid clears. */
    std::vector<uint32_t> seen_stamp_;
    uint32_t stamp_ = 0;
    std::vector<int64_t> fresh_;
    int64_t prefetch_hits_ = 0;
    IoStats stats_;
};

} // namespace store
} // namespace fastgl
