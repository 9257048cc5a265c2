/**
 * @file
 * Modelled NVMe/SSD storage tier — the link below host DRAM.
 *
 * The out-of-core feature store (fastgl::store) keeps cold feature rows
 * on block storage; this model converts block-read counts into virtual
 * seconds, as store::FeatureResidency::io_seconds converts PCIe bytes.
 * Reads are block-granular and issued in bounded in-flight windows (the
 * GIDS-style batched GPU-initiated access pattern): a window of up to
 * `queue_depth` reads pays one read latency, so deeper queues amortise
 * latency while bandwidth scales with the bytes actually moved.
 */
#pragma once

#include <cstdint>

namespace fastgl {
namespace sim {

/** Performance envelope of one modelled storage device. */
struct StorageSpec
{
    const char *name = "nvme";
    /** Per-window read latency, seconds (one round trip of a full
     *  in-flight window of block reads). */
    double read_latency = 80e-6;
    /** Sustained sequential read bandwidth, B/s. */
    double read_bw = 6.0e9;
    /** Max block reads in flight per window (device queue depth). */
    int queue_depth = 64;
};

/** Datacentre NVMe drive (PCIe 4.0 class). */
StorageSpec nvme_spec();

/** SATA SSD: ~10x the latency, ~1/10 the bandwidth of NVMe. */
StorageSpec sata_ssd_spec();

/**
 * One modelled storage device. Deterministic: seconds are a pure
 * function of (spec, block count, block size, in-flight bound), never
 * of threads or wall time — the same contract as the PCIe formulas
 * (store::FeatureResidency::io_seconds, core::Pipeline::plan_transfer).
 */
class StorageLink
{
  public:
    explicit StorageLink(const StorageSpec &spec) : spec_(spec) {}

    /**
     * Account one batched read of @p blocks blocks of @p block_bytes
     * each, with at most @p inflight reads outstanding (clamped to the
     * device queue depth; <= 0 means the full queue depth).
     * @return the modelled read time in seconds:
     *         ceil(blocks / inflight) windows x read_latency, plus the
     *         bytes over read_bw.
     */
    double read_blocks(int64_t blocks, uint64_t block_bytes,
                       int inflight = 0);

    /** Time read_blocks would charge, without recording it. */
    double estimate_blocks(int64_t blocks, uint64_t block_bytes,
                           int inflight = 0) const;

    const StorageSpec &spec() const { return spec_; }
    int64_t blocks_read() const { return blocks_read_; }
    uint64_t total_bytes() const { return total_bytes_; }
    /** Batched read_blocks calls issued. */
    int64_t reads() const { return reads_; }
    double total_time() const { return total_time_; }

    void
    reset()
    {
        blocks_read_ = reads_ = 0;
        total_bytes_ = 0;
        total_time_ = 0.0;
    }

  private:
    StorageSpec spec_;
    int64_t blocks_read_ = 0;
    int64_t reads_ = 0;
    uint64_t total_bytes_ = 0;
    double total_time_ = 0.0;
};

} // namespace sim
} // namespace fastgl
