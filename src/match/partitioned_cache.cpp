#include "match/partitioned_cache.h"

#include <algorithm>

#include "match/feature_cache.h"
#include "util/logging.h"

namespace fastgl {
namespace match {

const char *
shard_mode_name(ShardMode mode)
{
    return mode == ShardMode::kSharded ? "sharded" : "replicated";
}

PartitionedFeatureCache::PartitionedFeatureCache(
    const graph::Partitioning &parts,
    const std::vector<graph::NodeId> &ranking,
    int64_t capacity_rows_per_device, int num_devices, ShardMode mode,
    RemotePolicy policy, double overlay_fraction)
    : num_devices_(num_devices),
      mode_(mode),
      policy_(policy),
      capacity_(std::max<int64_t>(0, capacity_rows_per_device)),
      part_of_(parts.part_of)
{
    FASTGL_CHECK(num_devices_ >= 1,
                 "partitioned cache needs >= 1 device");
    FASTGL_CHECK(parts.num_parts() >= 1,
                 "partitioned cache needs >= 1 partition");

    // Partition p lives on device p % N: with num_parts == num_devices
    // this is the natural one-partition-per-device layout, with more
    // partitions than devices they interleave round-robin.
    owner_of_part_.resize(static_cast<size_t>(parts.num_parts()));
    for (int p = 0; p < parts.num_parts(); ++p)
        owner_of_part_[static_cast<size_t>(p)] = p % num_devices_;

    const size_t num_nodes = part_of_.size();
    resident_.assign(static_cast<size_t>(num_devices_),
                     std::vector<bool>(num_nodes, false));
    resident_rows_.assign(static_cast<size_t>(num_devices_), 0);
    part_counters_.assign(static_cast<size_t>(parts.num_parts()),
                          PartitionCacheCounters{});

    // Reserve overlay room out of the same per-device budget so
    // fetch-and-cache never exceeds what the device could hold.
    int64_t fill_budget = capacity_;
    int64_t overlay = 0;
    if (policy_ == RemotePolicy::kFetchAndCache && num_devices_ > 1) {
        overlay = static_cast<int64_t>(double(capacity_) *
                                       std::clamp(overlay_fraction,
                                                  0.0, 1.0));
        fill_budget = capacity_ - overlay;
    }
    overlay_budget_ = overlay;
    overlay_room_.assign(static_cast<size_t>(num_devices_), overlay);

    // Static fill, hottest first. Sharded: a row goes to its owner's
    // shard only; replicated: the same globally hottest rows go to
    // every shard.
    if (mode_ == ShardMode::kSharded) {
        std::vector<int64_t> filled(
            static_cast<size_t>(num_devices_), 0);
        for (graph::NodeId node : ranking) {
            const int dev = owner_device(node);
            if (filled[static_cast<size_t>(dev)] >= fill_budget)
                continue;
            resident_[static_cast<size_t>(dev)]
                     [static_cast<size_t>(node)] = true;
            ++filled[static_cast<size_t>(dev)];
        }
        for (int d = 0; d < num_devices_; ++d)
            resident_rows_[static_cast<size_t>(d)] =
                filled[static_cast<size_t>(d)];
    } else {
        // Replicated fill: same shared budget clamp as the static
        // cache — the ranking may be shorter than the budget.
        const int64_t fill = cache_fill_budget(
            fill_budget, static_cast<int64_t>(ranking.size()));
        int64_t filled = 0;
        for (graph::NodeId node : ranking) {
            if (filled >= fill)
                break;
            for (int d = 0; d < num_devices_; ++d)
                resident_[static_cast<size_t>(d)]
                         [static_cast<size_t>(node)] = true;
            ++filled;
        }
        resident_rows_.assign(static_cast<size_t>(num_devices_),
                              filled);
    }
    for (int d = 0; d < num_devices_; ++d)
        check_cache_budget(resident_rows_[static_cast<size_t>(d)],
                           capacity_, "PartitionedFeatureCache");
}

int64_t
PartitionedFeatureCache::resident_rows(int device) const
{
    return resident_rows_[static_cast<size_t>(device)];
}

int64_t
PartitionedFeatureCache::distinct_resident_rows() const
{
    const size_t num_nodes = part_of_.size();
    int64_t distinct = 0;
    for (size_t u = 0; u < num_nodes; ++u) {
        for (int d = 0; d < num_devices_; ++d) {
            if (resident_[static_cast<size_t>(d)][u]) {
                ++distinct;
                break;
            }
        }
    }
    return distinct;
}

ShardLookup
PartitionedFeatureCache::lookup_batch(
    int device, std::span<const graph::NodeId> nodes)
{
    FASTGL_CHECK(device >= 0 && device < num_devices_,
                 "lookup from an unknown device");
    ShardLookup result;
    result.remote_rows_by_device.assign(
        static_cast<size_t>(num_devices_), 0);
    std::vector<bool> &local = resident_[static_cast<size_t>(device)];
    int64_t &overlay_room = overlay_room_[static_cast<size_t>(device)];
    for (graph::NodeId node : nodes) {
        const size_t u = static_cast<size_t>(node);
        PartitionCacheCounters &counters =
            part_counters_[static_cast<size_t>(part_of_[u])];
        if (local[u]) {
            ++result.local_hits;
            ++counters.local_hits;
            continue;
        }
        const int owner = owner_device(node);
        if (owner != device &&
            resident_[static_cast<size_t>(owner)][u]) {
            ++result.remote_hits;
            ++result.remote_rows_by_device[static_cast<size_t>(owner)];
            ++counters.remote_hits;
            if (policy_ == RemotePolicy::kFetchAndCache &&
                overlay_room > 0) {
                local[u] = true;
                --overlay_room;
                ++resident_rows_[static_cast<size_t>(device)];
                overlay_log_.emplace_back(device, node);
            }
            continue;
        }
        ++result.misses;
        ++counters.misses;
        result.miss_nodes.push_back(node);
    }
    return result;
}

PartitionCacheCounters
PartitionedFeatureCache::totals() const
{
    PartitionCacheCounters total;
    for (const PartitionCacheCounters &counters : part_counters_) {
        total.local_hits += counters.local_hits;
        total.remote_hits += counters.remote_hits;
        total.misses += counters.misses;
    }
    return total;
}

void
PartitionedFeatureCache::reset_stats()
{
    for (PartitionCacheCounters &counters : part_counters_)
        counters = PartitionCacheCounters{};
}

void
PartitionedFeatureCache::reset_overlay()
{
    for (const auto &[device, node] : overlay_log_) {
        resident_[static_cast<size_t>(device)]
                 [static_cast<size_t>(node)] = false;
        --resident_rows_[static_cast<size_t>(device)];
    }
    overlay_log_.clear();
    overlay_room_.assign(static_cast<size_t>(num_devices_),
                         overlay_budget_);
}

} // namespace match
} // namespace fastgl
