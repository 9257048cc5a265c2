/**
 * @file
 * TieredFeatureStore — the out-of-core tier below the device caches
 * (store::FeatureResidency stacks the two). The hottest host_mem share
 * of all rows lives in host DRAM; everything else sits on a modelled
 * NVMe/SSD drive (sim::StorageLink) in block_bytes blocks laid out by
 * store::FeatureLayout. A row on neither a device cache nor host DRAM
 * maps to its block and goes through the IoScheduler (coalescing,
 * staging, bounded in-flight windows); the LookaheadPrefetcher reads
 * future batches' blocks as overlapped time, so the demand stall
 * shrinks to the uncovered tail.
 *
 * Accounting only: the store never touches gathered feature bytes —
 * losses, panels, and fingerprints are bit-identical with storage on
 * or off. Everything is virtual-clock deterministic and single-writer.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/feature_store.h"
#include "graph/partition.h"
#include "match/feature_cache.h"
#include "sim/storage_link.h"
#include "store/feature_layout.h"
#include "store/io_scheduler.h"
#include "store/prefetcher.h"

namespace fastgl {
namespace store {

/** Which modelled drive backs the cold tier. */
enum class StorageKind
{
    kNone, ///< Everything fits in host DRAM (legacy behaviour).
    kNvme,
    kSsd,
};

/** Printable kind name ("none", "nvme", "ssd"). */
const char *storage_kind_name(StorageKind kind);

/** Everything configurable about the out-of-core tier. */
struct TieredStoreOptions
{
    StorageKind storage = StorageKind::kNone;
    /** Share of all feature rows resident in host DRAM (hottest
     *  first along the hotness ranking); 1.0 = fully in memory. */
    double host_mem_fraction = 1.0;
    /** >= 0: host-resident rows directly, overriding the fraction. */
    int64_t host_mem_rows = -1;
    /** Bytes per storage block. */
    uint64_t block_bytes = 16384;
    /** In-flight reads per window (<= 0: the drive queue depth). */
    int max_inflight = 0;
    /** Batches of sampler lookahead the prefetcher consumes; 0
     *  disables prefetching (demand reads only). */
    int prefetch_depth = 2;
    /** Lay feature rows out partition-major in BFS order
     *  (store::partition_ordered_layout) instead of node-ID order. */
    bool relayout = false;
    /** Partition count for the relayout when the caller has no
     *  partitioning of its own (e.g. single-GPU training). */
    int relayout_parts = 16;
    /** Staging-buffer capacity in blocks. */
    int64_t staging_blocks = 4096;
};

/** Per-run counters of one TieredFeatureStore. */
struct StoreStats
{
    int64_t lookup_rows = 0;    ///< Rows classified by charge calls.
    int64_t gpu_cache_rows = 0; ///< Skipped: resident on the device.
    int64_t host_rows = 0;      ///< Served from host DRAM.
    int64_t storage_rows = 0;   ///< Needed a storage block.
    /** Distinct blocks demanded by charge calls (after coalescing). */
    int64_t demand_blocks = 0;
    /** Demanded blocks found already staged (no stall). */
    int64_t demand_staged = 0;
    /** Demanded blocks read from the drive (stall). */
    int64_t demand_fetched = 0;
    /** Of demand_staged, blocks the prefetcher put there. */
    int64_t prefetch_hits = 0;
    double stall_seconds = 0.0;  ///< Demand-read time (gather stalls).
    double hidden_seconds = 0.0; ///< Prefetch-read time (overlapped).
    IoStats io;                  ///< Raw IoScheduler counters.
    PrefetchStats prefetch;      ///< Raw prefetcher counters.

    /** Fraction of demanded blocks that were already staged. */
    double
    block_hit_rate() const
    {
        return demand_blocks
                   ? static_cast<double>(demand_staged) /
                         static_cast<double>(demand_blocks)
                   : 0.0;
    }
};

/** Modelled GPU-cache / host-DRAM / block-storage hierarchy. */
class TieredFeatureStore
{
  public:
    /**
     * @param features  the feature matrix being tiered (row size only)
     * @param graph     graph behind the layout walk (relayout only)
     * @param ranking   hotness order, hottest first — the host-DRAM
     *                  prefix is taken from here (deliberately
     *                  layout-independent, so relayout changes block
     *                  composition and nothing else)
     * @param parts     partitioning for the relayout; nullptr lets the
     *                  store partition with opts.relayout_parts
     * @param gpu_cache device-resident rows to skip; may be nullptr
     * @param opts      see TieredStoreOptions
     */
    TieredFeatureStore(const graph::FeatureStore &features,
                       const graph::CsrGraph &graph,
                       const std::vector<graph::NodeId> &ranking,
                       const graph::Partitioning *parts,
                       const match::StaticFeatureCache *gpu_cache,
                       TieredStoreOptions opts);

    /** True when some rows actually live on storage. */
    bool
    active() const
    {
        return opts_.storage != StorageKind::kNone &&
               host_rows_ < num_nodes_;
    }

    /**
     * Reset to the start-of-run state (empty staging buffer and
     * prefetch window, zero statistics). Call once per epoch / per
     * serve() so identical runs charge identical seconds.
     */
    void begin_run();

    /**
     * Charge the demand storage reads of the batch being gathered NOW.
     * @return the stall seconds (reads not covered by staging).
     */
    double charge_batch(std::span<const graph::NodeId> nodes);

    /**
     * Charge storage reads of rows already known to miss every device
     * cache (a sharded cache's miss_nodes): like charge_batch but
     * without the GPU-cache skip.
     */
    double charge_miss_rows(std::span<const graph::NodeId> nodes);

    /**
     * Register FUTURE batch @p batch_id's node set with the
     * prefetcher and read its uncovered blocks as overlapped time,
     * which adds to stats().hidden_seconds.
     */
    void stage_future_batch(int64_t batch_id,
                            std::span<const graph::NodeId> nodes);

    /** Retire @p batch_id from the prefetch window (no-op when the
     *  batch was never staged). */
    void complete_batch(int64_t batch_id);

    /** True when @p node's row is host-DRAM resident. */
    bool
    host_resident(graph::NodeId node) const
    {
        return host_resident_[static_cast<size_t>(node)];
    }

    /** Storage block holding @p node's row under the active layout. */
    int64_t
    block_of(graph::NodeId node) const
    {
        return layout_.slot_of[static_cast<size_t>(node)] /
               rows_per_block_;
    }

    StoreStats stats() const;
    const FeatureLayout &layout() const { return layout_; }
    const sim::StorageLink &link() const { return *link_; }
    const TieredStoreOptions &options() const { return opts_; }
    int64_t host_rows() const { return host_rows_; }
    int64_t rows_per_block() const { return rows_per_block_; }
    int64_t num_blocks() const { return num_blocks_; }

  private:
    double charge_rows(std::span<const graph::NodeId> nodes,
                       bool check_gpu_cache);

    graph::NodeId num_nodes_ = 0;
    TieredStoreOptions opts_;
    const match::StaticFeatureCache *gpu_cache_ = nullptr;
    /** Owned partitioning when relayout had to build its own. */
    graph::Partitioning own_parts_;
    FeatureLayout layout_;
    std::vector<bool> host_resident_;
    int64_t host_rows_ = 0;
    int64_t rows_per_block_ = 1;
    int64_t num_blocks_ = 0;
    std::unique_ptr<sim::StorageLink> link_;
    std::unique_ptr<IoScheduler> scheduler_;
    std::unique_ptr<LookaheadPrefetcher> prefetcher_;
    /** Per-call block scratch. */
    std::vector<int64_t> blocks_;
    StoreStats tallies_;
};

} // namespace store
} // namespace fastgl
