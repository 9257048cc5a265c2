/**
 * @file
 * Partition-sharded feature cache for multi-GPU execution.
 *
 * Where StaticFeatureCache models one device's hot-row store, this
 * cache splits the same budget across N modelled devices along a
 * graph::Partitioning: each device owns its partitions' hot rows (BGL's
 * partition-locality design), so the union of the shards covers up to
 * N times as many distinct rows as replicating one ranking everywhere.
 * A lookup from the wrong device still beats PCIe — the row crosses the
 * GPU-to-GPU peer link (sim::PeerTopology) instead of the host link —
 * and a policy knob decides whether such remote fetches are then cached
 * locally (fetch-and-cache) or re-fetched every time (always-remote).
 *
 * Like the serving caches, the shard state is deliberately
 * single-writer: only one sequencer/trainer loop calls lookup_batch,
 * so the fetch-and-cache overlay and the per-partition counters need
 * no atomics and behave bit-identically across runs and thread widths.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/partition.h"

namespace fastgl {
namespace match {

/** How the per-device shards divide the cache budget. */
enum class ShardMode
{
    kSharded,    ///< Device d holds the hot rows of its own partitions.
    kReplicated, ///< Every device holds the same globally hottest rows.
};

/** What a device does with a row another device's shard holds. */
enum class RemotePolicy
{
    kFetchAndCache, ///< Cache the row locally after the peer fetch.
    kAlwaysRemote,  ///< Re-cross the peer link on every access.
};

const char *shard_mode_name(ShardMode mode);
const char *remote_policy_name(RemotePolicy policy);

/** Hit/miss tallies of one partition (or one aggregate). */
struct PartitionCacheCounters
{
    int64_t local_hits = 0;  ///< Resident on the looking device.
    int64_t remote_hits = 0; ///< Resident on a peer device's shard.
    int64_t misses = 0;      ///< Fetched from the host over PCIe.

    int64_t lookups() const
    {
        return local_hits + remote_hits + misses;
    }

    /** Fraction of lookups that avoided the host link. */
    double
    hit_rate() const
    {
        const int64_t total = lookups();
        return total ? double(local_hits + remote_hits) / double(total)
                     : 0.0;
    }
};

/** Outcome of classifying one batch from one device's perspective. */
struct ShardLookup
{
    int64_t local_hits = 0;
    int64_t remote_hits = 0;
    int64_t misses = 0;
    /**
     * remote_rows_by_device[d] = rows served from device d's shard,
     * for charging the (d -> looking device) peer link.
     */
    std::vector<int64_t> remote_rows_by_device;
    /** The nodes behind `misses`, batch order: resident on no shard,
     *  so store::FeatureResidency checks them against host DRAM. */
    std::vector<graph::NodeId> miss_nodes;
};

/** Fill-once feature cache sharded across modelled devices. */
class PartitionedFeatureCache
{
  public:
    /**
     * @param parts     partitioning of the node set (owns the shards)
     * @param ranking   node IDs hottest first (as StaticFeatureCache)
     * @param capacity_rows_per_device rows each device's shard holds
     * @param num_devices modelled devices (>= 1)
     * @param mode      sharded vs replicated budget split
     * @param policy    remote-row handling (see RemotePolicy)
     *
     * Under kFetchAndCache an overlay_fraction of each shard's budget
     * is reserved for remotely fetched rows instead of the static
     * fill, so the overlay has room without exceeding the budget.
     */
    PartitionedFeatureCache(const graph::Partitioning &parts,
                            const std::vector<graph::NodeId> &ranking,
                            int64_t capacity_rows_per_device,
                            int num_devices,
                            ShardMode mode = ShardMode::kSharded,
                            RemotePolicy policy =
                                RemotePolicy::kFetchAndCache,
                            double overlay_fraction = 0.125);

    int num_devices() const { return num_devices_; }
    int num_parts() const { return int(part_counters_.size()); }
    ShardMode mode() const { return mode_; }
    RemotePolicy policy() const { return policy_; }
    int64_t capacity_rows_per_device() const { return capacity_; }

    /** Per-device budget — the StaticFeatureCache accessor pair, so
     *  tooling can treat the two cache types uniformly. */
    int64_t capacity_rows() const { return capacity_; }

    /** Bytes resident on @p device at @p row_bytes per row. */
    uint64_t
    resident_bytes(int device, uint64_t row_bytes) const
    {
        return static_cast<uint64_t>(resident_rows(device)) * row_bytes;
    }

    /** Device owning @p node's partition (partition % num_devices). */
    int
    owner_device(graph::NodeId node) const
    {
        return owner_of_part_[static_cast<size_t>(
            part_of_[static_cast<size_t>(node)])];
    }

    /** Rows resident on @p device (static fill + overlay). */
    int64_t resident_rows(int device) const;

    /** Distinct rows resident anywhere (the union of the shards). */
    int64_t distinct_resident_rows() const;

    /**
     * Classify a batch node list from @p device's perspective and
     * accumulate per-partition statistics. Mutates the fetch-and-cache
     * overlay; single-writer only (see file comment).
     */
    ShardLookup lookup_batch(int device,
                             std::span<const graph::NodeId> nodes);

    /** All per-partition counters, partition order. */
    const std::vector<PartitionCacheCounters> &
    per_partition() const
    {
        return part_counters_;
    }

    /** Summed counters across every partition. */
    PartitionCacheCounters totals() const;

    void reset_stats();

    /**
     * Evict every overlay row cached by kFetchAndCache lookups,
     * restoring the post-construction resident state — so a run
     * (one serve() call, one epoch) always starts from the same
     * shards regardless of what earlier runs fetched.
     */
    void reset_overlay();

  private:
    int num_devices_ = 1;
    ShardMode mode_;
    RemotePolicy policy_;
    int64_t capacity_ = 0;
    std::vector<int32_t> part_of_;
    std::vector<int> owner_of_part_;
    /** resident_[device][node]: static fill plus overlay rows. */
    std::vector<std::vector<bool>> resident_;
    std::vector<int64_t> resident_rows_;
    /** Overlay slots still free per device (kFetchAndCache only). */
    std::vector<int64_t> overlay_room_;
    /** Per-device overlay budget, for reset_overlay(). */
    int64_t overlay_budget_ = 0;
    /** (device, node) pairs the overlay cached, insertion order. */
    std::vector<std::pair<int, graph::NodeId>> overlay_log_;
    std::vector<PartitionCacheCounters> part_counters_;
};

} // namespace match
} // namespace fastgl
