#include "store/tiered_store.h"

#include <algorithm>

#include "util/logging.h"

namespace fastgl {
namespace store {

const char *
storage_kind_name(StorageKind kind)
{
    switch (kind) {
    case StorageKind::kNone:
        return "none";
    case StorageKind::kNvme:
        return "nvme";
    case StorageKind::kSsd:
        return "ssd";
    }
    return "unknown";
}

TieredFeatureStore::TieredFeatureStore(
    const graph::FeatureStore &features, const graph::CsrGraph &graph,
    const std::vector<graph::NodeId> &ranking,
    const graph::Partitioning *parts,
    const match::StaticFeatureCache *gpu_cache, TieredStoreOptions opts)
    : num_nodes_(features.num_nodes()),
      opts_(opts),
      gpu_cache_(gpu_cache)
{
    FASTGL_CHECK(graph.num_nodes() == num_nodes_,
                 "graph / feature store node count mismatch");
    FASTGL_CHECK(opts_.block_bytes > 0, "zero storage block size");

    // Host-DRAM residency: the hottest prefix of the ranking, row
    // granular and layout independent — so switching the layout moves
    // block composition only, never which rows pay storage at all.
    if (opts_.host_mem_rows >= 0) {
        host_rows_ = std::min<int64_t>(opts_.host_mem_rows,
                                       static_cast<int64_t>(num_nodes_));
    } else {
        const double frac =
            std::clamp(opts_.host_mem_fraction, 0.0, 1.0);
        host_rows_ = static_cast<int64_t>(
            frac * static_cast<double>(num_nodes_) + 0.5);
        host_rows_ =
            std::min<int64_t>(host_rows_, static_cast<int64_t>(num_nodes_));
    }
    host_resident_.assign(static_cast<size_t>(num_nodes_), false);
    int64_t resident = 0;
    for (graph::NodeId node : ranking) {
        if (resident >= host_rows_)
            break;
        FASTGL_CHECK(node >= 0 && node < num_nodes_,
                     "ranking node out of range");
        if (host_resident_[static_cast<size_t>(node)])
            continue;
        host_resident_[static_cast<size_t>(node)] = true;
        ++resident;
    }
    host_rows_ = resident;

    // Storage layout: identity, or partition-major BFS order.
    if (opts_.relayout) {
        if (parts == nullptr || parts->empty()) {
            own_parts_ = graph::partition_bfs(
                graph, std::max(1, opts_.relayout_parts));
            parts = &own_parts_;
        }
        layout_ = partition_ordered_layout(graph, *parts);
    } else {
        layout_ = identity_layout(num_nodes_);
    }

    const uint64_t row_bytes = std::max<uint64_t>(
        1, features.row_bytes());
    rows_per_block_ = std::max<int64_t>(
        1, static_cast<int64_t>(opts_.block_bytes / row_bytes));
    num_blocks_ = (static_cast<int64_t>(num_nodes_) + rows_per_block_ -
                   1) /
                  rows_per_block_;
    num_blocks_ = std::max<int64_t>(1, num_blocks_);

    const sim::StorageSpec spec = opts_.storage == StorageKind::kSsd
                                      ? sim::sata_ssd_spec()
                                      : sim::nvme_spec();
    link_ = std::make_unique<sim::StorageLink>(spec);
    IoSchedulerOptions io;
    io.block_bytes = opts_.block_bytes;
    io.max_inflight = opts_.max_inflight;
    io.staging_blocks = opts_.staging_blocks;
    scheduler_ =
        std::make_unique<IoScheduler>(link_.get(), num_blocks_, io);
    prefetcher_ = std::make_unique<LookaheadPrefetcher>(num_blocks_);
}

void
TieredFeatureStore::begin_run()
{
    scheduler_->reset();
    prefetcher_->reset();
    link_->reset();
    tallies_ = StoreStats{};
}

double
TieredFeatureStore::charge_rows(std::span<const graph::NodeId> nodes,
                                bool check_gpu_cache)
{
    if (!active() || nodes.empty())
        return 0.0;
    blocks_.clear();
    for (graph::NodeId node : nodes) {
        ++tallies_.lookup_rows;
        if (check_gpu_cache && gpu_cache_ &&
            gpu_cache_->contains(node)) {
            ++tallies_.gpu_cache_rows;
            continue;
        }
        if (host_resident_[static_cast<size_t>(node)]) {
            ++tallies_.host_rows;
            continue;
        }
        ++tallies_.storage_rows;
        blocks_.push_back(block_of(node));
    }
    const IoStats before = scheduler_->stats();
    const int64_t prefetch_hits_before = scheduler_->prefetch_hits();
    const double stall = scheduler_->submit(blocks_, false);
    const IoStats &after = scheduler_->stats();
    tallies_.demand_blocks += (after.requested_blocks -
                               before.requested_blocks) -
                              (after.coalesced_blocks -
                               before.coalesced_blocks);
    tallies_.demand_staged += after.staged_hits - before.staged_hits;
    tallies_.demand_fetched +=
        after.fetched_blocks - before.fetched_blocks;
    tallies_.prefetch_hits +=
        scheduler_->prefetch_hits() - prefetch_hits_before;
    tallies_.stall_seconds += stall;
    return stall;
}

double
TieredFeatureStore::charge_batch(std::span<const graph::NodeId> nodes)
{
    return charge_rows(nodes, /*check_gpu_cache=*/true);
}

double
TieredFeatureStore::charge_miss_rows(
    std::span<const graph::NodeId> nodes)
{
    return charge_rows(nodes, /*check_gpu_cache=*/false);
}

void
TieredFeatureStore::stage_future_batch(
    int64_t batch_id, std::span<const graph::NodeId> nodes)
{
    if (!active() || opts_.prefetch_depth <= 0)
        return;
    blocks_.clear();
    for (graph::NodeId node : nodes) {
        if (gpu_cache_ && gpu_cache_->contains(node))
            continue;
        if (host_resident_[static_cast<size_t>(node)])
            continue;
        blocks_.push_back(block_of(node));
    }
    const std::vector<int64_t> issue =
        prefetcher_->register_batch(batch_id, blocks_);
    tallies_.hidden_seconds += scheduler_->submit(issue, true);
}

void
TieredFeatureStore::complete_batch(int64_t batch_id)
{
    if (!active() || opts_.prefetch_depth <= 0)
        return;
    prefetcher_->retire_batch(batch_id);
}

StoreStats
TieredFeatureStore::stats() const
{
    StoreStats s = tallies_;
    s.io = scheduler_->stats();
    s.prefetch = prefetcher_->stats();
    return s;
}

} // namespace store
} // namespace fastgl
