/**
 * @file
 * Golden hashes of the combined feature-residency path: a device
 * feature cache over a host-DRAM / NVMe tier, on one GPU and sharded
 * across two, for both the trainer and the server. Each digest folds
 * the run's losses (or serve fingerprint) with every residency counter
 * the run reports — feature-cache hits and misses, shard totals,
 * per-partition counters, per-link peer traffic, and the store's
 * counters and stall/hidden seconds — and must agree at widths 1/4/8.
 * Unit cases check that store::FeatureResidency::charge puts every row
 * in exactly one tier and that its seconds match the tiers it charged.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "serve/load_generator.h"
#include "serve/server.h"
#include "sim/gpu_spec.h"
#include "store/residency.h"
#include "util/fnv.h"

namespace fastgl {
namespace {

using util::double_bits;
using util::fnv;

/** Pinned from reference runs; move only when the numeric path, the
 *  cache/peer/storage models, or the charge order change behaviour. */
constexpr uint64_t kGoldenTrainerCachedNvme =
    0x08E8F27E56999C8EULL;
constexpr uint64_t kGoldenTrainerShardedNvme =
    0xE83E633115254696ULL;
constexpr uint64_t kGoldenServerCachedNvme =
    0xF473551BA45D02BBULL;
constexpr uint64_t kGoldenServerShardedNvme =
    0x942DBFD5CA5B76F8ULL;

uint64_t
fold(uint64_t h, int64_t v)
{
    return fnv(h, static_cast<uint64_t>(v));
}

uint64_t
fold(uint64_t h, double v)
{
    return fnv(h, double_bits(v));
}

uint64_t
fold(uint64_t h, const match::PartitionCacheCounters &c)
{
    h = fold(h, c.local_hits);
    h = fold(h, c.remote_hits);
    return fold(h, c.misses);
}

/** Shared tail of both digests: partitions, peer links, store. */
uint64_t
fold_residency(uint64_t h, const store::ResidencyStats &r)
{
    h = fold(h, static_cast<int64_t>(r.per_partition.size()));
    for (const match::PartitionCacheCounters &c : r.per_partition)
        h = fold(h, c);
    h = fold(h, static_cast<int64_t>(r.peer_links.size()));
    for (const sim::PeerLinkStats &l : r.peer_links) {
        h = fold(h, static_cast<int64_t>(l.src));
        h = fold(h, static_cast<int64_t>(l.dst));
        h = fold(h, static_cast<int64_t>(l.kind));
        h = fold(h, static_cast<int64_t>(l.bytes));
        h = fold(h, l.transfers);
        h = fold(h, l.seconds);
    }
    const store::StoreStats &st = r.store;
    const int64_t counters[] = {
        st.lookup_rows,    st.gpu_cache_rows, st.host_rows,
        st.storage_rows,   st.demand_blocks,  st.demand_staged,
        st.demand_fetched, st.prefetch_hits,
    };
    for (const int64_t c : counters)
        h = fold(h, c);
    h = fold(h, st.stall_seconds);
    return fold(h, st.hidden_seconds);
}

const graph::Dataset &
train_reddit()
{
    static graph::Dataset ds = [] {
        graph::ReplicaOptions opts;
        opts.size_factor = 0.05;
        opts.materialize_features = true;
        return graph::load_replica(graph::DatasetId::kReddit, opts);
    }();
    return ds;
}

const graph::Dataset &
serve_reddit()
{
    static graph::Dataset ds = [] {
        graph::ReplicaOptions opts;
        opts.size_factor = 0.1;
        opts.materialize_features = false;
        return graph::load_replica(graph::DatasetId::kReddit, opts);
    }();
    return ds;
}

/** Digest of one trainer epoch with cache 0.2 over NVMe at 0.25. */
uint64_t
trainer_digest(int num_gpus, int width)
{
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 6;
    opts.batch_size = 32;
    opts.compute_threads = width;
    opts.gather_threads = width;
    opts.feature_cache_ratio = 0.2;
    opts.num_gpus = num_gpus;
    opts.storage.storage = store::StorageKind::kNvme;
    opts.storage.host_mem_fraction = 0.25;
    core::Trainer trainer(train_reddit(), opts);
    const core::TrainEpochStats s = trainer.train_epoch();
    // Every tier really carries traffic, so the digest pins each one.
    const store::ResidencyStats &r = s.residency;
    EXPECT_GT(r.store.storage_rows, 0);
    EXPECT_GT(s.gather.cache_hits, 0);
    if (num_gpus > 1) {
        EXPECT_GT(r.features.remote_hits, 0);
        EXPECT_FALSE(r.peer_links.empty());
    }

    uint64_t h = util::kFnvOffset;
    for (const double loss : s.iteration_losses)
        h = fold(h, loss);
    h = fold(h, s.gather.cache_hits);
    h = fold(h, s.gather.cache_misses);
    // The digest was pinned when the trainer reported shard totals
    // only, so one GPU folds zero counters there.
    h = fold(h, num_gpus > 1 ? r.features
                             : match::PartitionCacheCounters{});
    h = fold_residency(h, r);
    h = fold(h, r.store.stall_seconds);
    h = fold(h, r.store.hidden_seconds);
    return fold(h, s.modelled_epoch_seconds);
}

/** Digest of one serve run with cache 0.2 over NVMe at 0.25. */
uint64_t
server_digest(int num_gpus, int width)
{
    serve::ServerOptions opts;
    opts.worker_threads = width;
    opts.feature_cache_ratio = 0.2;
    opts.num_gpus = num_gpus;
    opts.storage.storage = store::StorageKind::kNvme;
    opts.storage.host_mem_fraction = 0.25;
    opts.seed = 7;
    serve::Server server(serve_reddit(), opts);
    serve::LoadGeneratorOptions lopts;
    lopts.rate_rps = 20000.0;
    lopts.num_requests = 256;
    lopts.seed = 11;
    serve::LoadGenerator gen(server.popularity(), lopts);
    server.serve(gen.generate());
    const serve::ServingStats &s = server.last_stats();
    const store::ResidencyStats &r = s.residency;
    const match::PartitionCacheCounters &f = r.features;
    EXPECT_GT(r.store.storage_rows, 0);
    EXPECT_GT(f.local_hits + f.remote_hits, 0);
    if (num_gpus > 1) {
        EXPECT_GT(f.remote_hits, 0);
        EXPECT_FALSE(r.peer_links.empty());
    }

    // Folded in the order of the per-field report the digest was
    // pinned on: hits, misses, hit rate, remote hits.
    uint64_t h = fold(util::kFnvOffset, static_cast<int64_t>(
                                            s.fingerprint));
    h = fold(h, f.local_hits + f.remote_hits);
    h = fold(h, f.misses);
    h = fold(h, f.hit_rate());
    h = fold(h, f.remote_hits);
    h = fold_residency(h, r);
    return fold(h, r.store.stall_seconds);
}

TEST(OocStoreGolden, TrainerCachedNvmeIsPinnedAtAnyWidth)
{
    for (const int width : {1, 4, 8})
        EXPECT_EQ(trainer_digest(1, width), kGoldenTrainerCachedNvme)
            << "width=" << width;
}

TEST(MultiGpuGolden, TrainerShardedNvmeIsPinnedAtAnyWidth)
{
    for (const int width : {1, 4, 8})
        EXPECT_EQ(trainer_digest(2, width), kGoldenTrainerShardedNvme)
            << "width=" << width;
}

TEST(OocStoreGolden, ServerCachedNvmeIsPinnedAtAnyWidth)
{
    for (const int width : {1, 4, 8})
        EXPECT_EQ(server_digest(1, width), kGoldenServerCachedNvme)
            << "width=" << width;
}

TEST(MultiGpuGolden, ServerShardedNvmeIsPinnedAtAnyWidth)
{
    for (const int width : {1, 4, 8})
        EXPECT_EQ(server_digest(2, width), kGoldenServerShardedNvme)
            << "width=" << width;
}

TEST(OocStoreResidency, OneGpuTrainerReportMatchesGatherCounters)
{
    // The report's cache counters and the gather engine's fused
    // cache tally count the same static-cache lookups independently.
    for (const store::StorageKind kind :
         {store::StorageKind::kNone, store::StorageKind::kNvme}) {
        core::TrainerOptions opts;
        opts.fanouts = {4, 4};
        opts.max_batches = 6;
        opts.batch_size = 32;
        opts.feature_cache_ratio = 0.2;
        opts.storage.storage = kind;
        opts.storage.host_mem_fraction = 0.25;
        core::Trainer trainer(train_reddit(), opts);
        const core::TrainEpochStats s = trainer.train_epoch();
        const match::PartitionCacheCounters &f = s.residency.features;
        EXPECT_GT(f.local_hits, 0);
        EXPECT_EQ(f.local_hits, s.gather.cache_hits)
            << store::storage_kind_name(kind);
        EXPECT_EQ(f.misses, s.gather.cache_misses)
            << store::storage_kind_name(kind);
        EXPECT_EQ(f.remote_hits, 0);
    }
}

// ------------------------------------------------- charge() unit cases

/** Ring graph whose hotness ranking is ascending node ID. */
struct RingFixture
{
    graph::CsrGraph graph = graph::generate_ring(64, 2, 7);
    graph::FeatureStore features{graph.num_nodes(), 8, 4, 1, false};
    std::vector<graph::NodeId> ranking;
    sim::GpuSpec spec = sim::rtx3090();

    RingFixture()
    {
        for (graph::NodeId u = 0; u < graph.num_nodes(); ++u)
            ranking.push_back(u);
    }

    double
    pcie_seconds(int64_t misses, uint64_t extra_bytes = 0) const
    {
        const uint64_t bytes =
            uint64_t(misses) * features.row_bytes();
        return spec.pcie_latency +
               double(bytes + extra_bytes) / spec.pcie_bw +
               double(bytes) / spec.host_gather_bw;
    }
};

TEST(OocStoreResidency, WithoutTiersEveryRowIsAHostRow)
{
    const RingFixture f;
    store::FeatureResidency residency(f.features, f.graph, f.ranking,
                                      f.spec, store::ResidencyOptions{});
    residency.begin_run();
    const std::vector<graph::NodeId> batch = {3, 9, 40};
    EXPECT_EQ(residency.home_device(batch), 0);
    const store::ResidencyCharge c = residency.charge(0, batch);
    EXPECT_EQ(c.host_rows, 3);
    EXPECT_EQ(c.local_rows + c.remote_rows + c.storage_rows, 0);
    EXPECT_EQ(c.peer_seconds + c.storage_seconds, 0.0);
    EXPECT_EQ(residency.io_seconds(c, 100), f.pcie_seconds(3, 100));
    EXPECT_EQ(residency.stats().features.lookups(), 0);
    EXPECT_FALSE(residency.storage_active());
}

TEST(OocStoreResidency, CacheAndStorageSplitEveryRowOnce)
{
    const RingFixture f;
    store::ResidencyOptions opts;
    opts.cache_rows = 2; // nodes 0 and 1
    opts.storage.storage = store::StorageKind::kNvme;
    opts.storage.host_mem_rows = 16; // nodes 0..15
    opts.storage.prefetch_depth = 0;
    store::FeatureResidency residency(f.features, f.graph, f.ranking,
                                      f.spec, opts);
    residency.begin_run();
    ASSERT_TRUE(residency.storage_active());

    // 0 is cached, 5/15 live in host DRAM, 16/40/40/33 on storage.
    const std::vector<graph::NodeId> batch = {0, 5, 15, 16, 40, 40, 33};
    const store::ResidencyCharge c = residency.charge(0, batch);
    EXPECT_EQ(c.local_rows, 1);
    EXPECT_EQ(c.host_rows, 2);
    EXPECT_EQ(c.storage_rows, 4);
    EXPECT_EQ(c.misses(), 6);
    EXPECT_EQ(c.peer_seconds, 0.0);
    EXPECT_GT(c.storage_seconds, 0.0);
    EXPECT_EQ(residency.io_seconds(c),
              f.pcie_seconds(6) + c.storage_seconds);

    const store::ResidencyStats s = residency.stats();
    EXPECT_EQ(s.features.local_hits, 1);
    EXPECT_EQ(s.features.misses, 6);
    EXPECT_EQ(s.store.storage_rows, 4);
    EXPECT_EQ(s.store.stall_seconds, c.storage_seconds);
    residency.begin_run();
    EXPECT_EQ(residency.stats().features.lookups(), 0);
}

TEST(MultiGpuResidency, ShardedChargeShipsRemoteAndPeerOwnedRows)
{
    const RingFixture f;
    store::ResidencyOptions opts;
    opts.cache_rows = 8;
    opts.num_devices = 2;
    opts.shard_rows = 8;
    opts.storage.storage = store::StorageKind::kNvme;
    opts.storage.host_mem_rows = 0; // every miss reads storage
    opts.storage.prefetch_depth = 0;
    store::FeatureResidency residency(f.features, f.graph, f.ranking,
                                      f.spec, opts);
    residency.begin_run();
    ASSERT_NE(residency.sharded_cache(), nullptr);

    const std::vector<graph::NodeId> all(f.ranking);
    const int dev = residency.home_device(all);
    EXPECT_EQ(dev, residency.sharded_cache()->owner_device(all[0]));
    const store::ResidencyCharge c = residency.charge(dev, all);
    EXPECT_EQ(c.local_rows + c.remote_rows + c.host_rows + c.storage_rows,
              int64_t(all.size()));
    EXPECT_EQ(c.host_rows, 0);
    EXPECT_GT(c.remote_rows, 0);
    EXPECT_GT(c.storage_rows, 0);

    // Remote hits and peer-owned storage rows both cross the links.
    const store::ResidencyStats s = residency.stats();
    double link_seconds = 0.0;
    uint64_t link_bytes = 0;
    for (const sim::PeerLinkStats &link : s.peer_links) {
        EXPECT_EQ(link.dst, dev);
        link_seconds += link.seconds;
        link_bytes += link.bytes;
    }
    EXPECT_EQ(c.peer_seconds, link_seconds);
    EXPECT_GT(link_bytes,
              uint64_t(c.remote_rows) * f.features.row_bytes());
    EXPECT_EQ(s.features.remote_hits, c.remote_rows);
    EXPECT_EQ(s.store.stall_seconds, c.storage_seconds);
    EXPECT_EQ(residency.io_seconds(c),
              f.pcie_seconds(c.misses()) + c.peer_seconds +
                  c.storage_seconds);
}

} // namespace
} // namespace fastgl
