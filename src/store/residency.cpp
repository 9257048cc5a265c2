#include "store/residency.h"

namespace fastgl {
namespace store {

FeatureResidency::FeatureResidency(
    const graph::FeatureStore &features, const graph::CsrGraph &graph,
    const std::vector<graph::NodeId> &ranking, const sim::GpuSpec &spec,
    ResidencyOptions opts)
    : spec_(spec), row_bytes_(features.row_bytes())
{
    if (opts.cache_rows > 0)
        static_ = std::make_unique<match::StaticFeatureCache>(
            graph.num_nodes(), ranking, opts.cache_rows);
    if (opts.num_devices > 1) {
        partitioning_ = graph::partition_graph(graph, opts.num_devices,
                                               opts.partitioner);
        if (opts.shard_rows > 0)
            sharded_ = std::make_unique<match::PartitionedFeatureCache>(
                partitioning_, ranking, opts.shard_rows, opts.num_devices,
                opts.shard_mode, match::RemotePolicy::kFetchAndCache);
        sim::PeerTopologyOptions peer;
        peer.num_devices = opts.num_devices;
        topo_ = std::make_unique<sim::PeerTopology>(spec_, peer);
    }
    // The store's layout reuses the device partitioning when one
    // exists, and rows in the static cache never reach the drive.
    if (opts.storage.storage != StorageKind::kNone)
        store_ = std::make_unique<TieredFeatureStore>(
            features, graph, ranking,
            partitioning_.empty() ? nullptr : &partitioning_,
            static_.get(), opts.storage);
}

void
FeatureResidency::begin_run()
{
    static_counters_ = {};
    if (sharded_) {
        sharded_->reset_stats();
        sharded_->reset_overlay();
    }
    if (topo_)
        topo_->reset();
    if (store_)
        store_->begin_run();
}

ResidencyCharge
FeatureResidency::charge(int device, std::span<const graph::NodeId> nodes)
{
    ResidencyCharge c;
    const bool storage = storage_active();
    if (sharded_) {
        // One peer transfer per source device holding any of the rows.
        const auto ship = [&](const std::vector<int64_t> &rows_by_src) {
            for (size_t src = 0; src < rows_by_src.size(); ++src) {
                if (rows_by_src[src] > 0)
                    c.peer_seconds += topo_->transfer(
                        static_cast<int>(src), device,
                        static_cast<uint64_t>(rows_by_src[src]) *
                            row_bytes_);
            }
        };
        const match::ShardLookup sl = sharded_->lookup_batch(device, nodes);
        c.local_rows = sl.local_hits;
        c.remote_rows = sl.remote_hits;
        ship(sl.remote_rows_by_device);
        if (storage) {
            // A shard miss that also misses host DRAM is read on its
            // partition owner's device, then crosses to this one.
            c.storage_seconds = store_->charge_miss_rows(sl.miss_nodes);
            std::vector<int64_t> rows_by_owner(
                sl.remote_rows_by_device.size(), 0);
            for (graph::NodeId u : sl.miss_nodes) {
                if (store_->host_resident(u))
                    continue;
                ++c.storage_rows;
                const int owner = sharded_->owner_device(u);
                if (owner != device)
                    ++rows_by_owner[static_cast<size_t>(owner)];
            }
            ship(rows_by_owner);
        }
        c.host_rows = sl.misses - c.storage_rows;
        return c;
    }
    const match::StaticFeatureCache *cache = static_.get();
    if (cache || storage) {
        for (graph::NodeId u : nodes) {
            if (cache && cache->contains(u))
                ++c.local_rows;
            else if (storage && !store_->host_resident(u))
                ++c.storage_rows;
        }
    }
    c.host_rows = static_cast<int64_t>(nodes.size()) - c.local_rows -
                  c.storage_rows;
    if (cache) {
        static_counters_.local_hits += c.local_rows;
        static_counters_.misses += c.misses();
    }
    if (storage)
        c.storage_seconds = store_->charge_batch(nodes);
    return c;
}

double
FeatureResidency::io_seconds(const ResidencyCharge &charge,
                             uint64_t extra_bytes) const
{
    const uint64_t feature_bytes =
        static_cast<uint64_t>(charge.misses()) * row_bytes_;
    const uint64_t bytes = feature_bytes + extra_bytes;
    return spec_.pcie_latency +
           static_cast<double>(bytes) / spec_.pcie_bw +
           static_cast<double>(feature_bytes) / spec_.host_gather_bw +
           charge.peer_seconds + charge.storage_seconds;
}

ResidencyStats
FeatureResidency::stats() const
{
    ResidencyStats s;
    s.features = sharded_ ? sharded_->totals() : static_counters_;
    if (sharded_)
        s.per_partition = sharded_->per_partition();
    if (topo_)
        s.peer_links = topo_->active_links();
    if (store_)
        s.store = store_->stats();
    return s;
}

} // namespace store
} // namespace fastgl
