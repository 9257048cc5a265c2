/**
 * @file
 * FeatureResidency — where each gathered feature row lives, and what
 * bringing it to the device that runs the batch costs. Tiers, top
 * down: a device cache (match::StaticFeatureCache, or per-device
 * match::PartitionedFeatureCache shards whose peers serve rows over
 * sim::PeerTopology), host DRAM (misses cross PCIe), and block storage
 * (store::TieredFeatureStore; a row a peer device owns then crosses
 * the interconnect too).
 *
 * core::Trainer and serve::Server each hold one, charge every batch
 * through charge() and report stats() as their run's `residency`; what
 * differs between them (hotness ranking, per-device shard budget, GPU
 * spec) is constructor input. Shards fetch-and-cache remote rows, and
 * the peer links are the default sim::PeerTopology over num_devices.
 * Accounting only, and single-writer like the caches it owns.
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
#include "match/partitioned_cache.h"
#include "sim/gpu_spec.h"
#include "sim/peer_link.h"
#include "store/tiered_store.h"

namespace fastgl {
namespace store {

/** The tiers one FeatureResidency builds. */
struct ResidencyOptions
{
    int64_t cache_rows = 0; ///< Static device-cache rows; 0 = none.
    int num_devices = 1;    ///< > 1 partitions and models peer links.
    int64_t shard_rows = 0; ///< Per-device shard rows; 0 = no shards.
    graph::PartitionerKind partitioner = graph::PartitionerKind::kLdg;
    match::ShardMode shard_mode = match::ShardMode::kSharded;
    TieredStoreOptions storage; ///< kNone builds no store.
};

/** Where one batch's rows were found and what moving them cost. */
struct ResidencyCharge
{
    int64_t local_rows = 0;   ///< Resident on the running device.
    int64_t remote_rows = 0;  ///< Resident on a peer device's shard.
    int64_t host_rows = 0;    ///< Cache misses served from host DRAM.
    int64_t storage_rows = 0; ///< Cache misses read from storage.
    double peer_seconds = 0.0;    ///< Interconnect transfer time.
    double storage_seconds = 0.0; ///< Demand storage-read stall.

    /** Rows that missed every device cache and cross PCIe. */
    int64_t misses() const { return host_rows + storage_rows; }
};

/** Counters since the last FeatureResidency::begin_run(). */
struct ResidencyStats
{
    /** Shard totals, or the static cache's local_hits and misses. */
    match::PartitionCacheCounters features;
    /** Shard traffic per graph partition (shards only). */
    std::vector<match::PartitionCacheCounters> per_partition;
    /** Every interconnect link that carried traffic (> 1 device). */
    std::vector<sim::PeerLinkStats> peer_links;
    /** Out-of-core tier counters (zero when storage is off). */
    StoreStats store;
};

/** Device cache / peer link / host DRAM / storage charge path. */
class FeatureResidency
{
  public:
    /** @p ranking (hottest first) fills the caches and the host-DRAM
     *  prefix; @p spec supplies the PCIe and peer-link constants. */
    FeatureResidency(const graph::FeatureStore &features,
                     const graph::CsrGraph &graph,
                     const std::vector<graph::NodeId> &ranking,
                     const sim::GpuSpec &spec, ResidencyOptions opts);

    /** Zero the counters, rewind the shard overlays, the peer links
     *  and the store; call once per epoch or serve() run. */
    void begin_run();

    /** Device owning @p node's partition; 0 with one device. */
    int
    home_device(graph::NodeId node) const
    {
        return topo_ ? partitioning_.part_of[static_cast<size_t>(node)] %
                           topo_->num_devices()
                     : 0;
    }

    /** Batch affinity: the first node's home device; 0 when empty. */
    int
    home_device(std::span<const graph::NodeId> nodes) const
    {
        return nodes.empty() ? 0 : home_device(nodes.front());
    }

    /**
     * Classify @p nodes from @p device's view and charge the peer links
     * (remote rows by source device, then peer-owned storage rows) and
     * the storage tier. O(1) when no tier is configured.
     */
    ResidencyCharge charge(int device,
                           std::span<const graph::NodeId> nodes);

    /** Gather seconds of a charged batch: one PCIe launch, the missed
     *  rows plus @p extra_bytes over PCIe, the host gather of the
     *  missed rows, the peer seconds and the storage stall. */
    double io_seconds(const ResidencyCharge &charge,
                      uint64_t extra_bytes = 0) const;

    bool storage_active() const { return store_ && store_->active(); }

    /** Prefetch a FUTURE batch's blocks; the read time lands in
     *  stats().store.hidden_seconds. */
    void
    stage_future_batch(int64_t batch_id,
                       std::span<const graph::NodeId> nodes)
    {
        if (store_)
            store_->stage_future_batch(batch_id, nodes);
    }

    /** Retire @p batch_id from the prefetch window. */
    void
    complete_batch(int64_t batch_id)
    {
        if (store_)
            store_->complete_batch(batch_id);
    }

    /** A peer transfer outside the feature path (> 1 device only). */
    double
    peer_transfer(int src, int dst, uint64_t bytes)
    {
        return topo_->transfer(src, dst, bytes);
    }

    ResidencyStats stats() const;
    /** Null when cache_rows is 0. charge() counts its hits into
     *  stats(); the cache itself keeps no counters. */
    const match::StaticFeatureCache *
    static_cache() const
    {
        return static_.get();
    }
    const match::PartitionedFeatureCache *
    sharded_cache() const
    {
        return sharded_.get();
    }
    const TieredFeatureStore *store() const { return store_.get(); }

  private:
    sim::GpuSpec spec_;
    uint64_t row_bytes_ = 0;
    std::unique_ptr<match::StaticFeatureCache> static_;
    graph::Partitioning partitioning_; ///< Empty with one device.
    std::unique_ptr<match::PartitionedFeatureCache> sharded_;
    std::unique_ptr<sim::PeerTopology> topo_; ///< > 1 device only.
    std::unique_ptr<TieredFeatureStore> store_;
    /** Static-cache tallies; the shards keep their own. */
    match::PartitionCacheCounters static_counters_;
};

} // namespace store
} // namespace fastgl
