/**
 * @file
 * Tests for the out-of-core tiered feature store: StorageLink windowed
 * read arithmetic, IoScheduler coalescing/staging, prefetch-window
 * once-per-window issue discipline, partition-ordered relayout
 * round-trips, tier classification, bit-identical losses with storage
 * on/off, virtual-clock determinism across thread widths, a golden
 * hash pinning one end-to-end out-of-core epoch, and the shared cache
 * budget helpers both GPU-cache tiers fill through.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "match/feature_cache.h"
#include "sim/storage_link.h"
#include "store/feature_layout.h"
#include "store/io_scheduler.h"
#include "store/prefetcher.h"
#include "store/tiered_store.h"
#include "util/fnv.h"

namespace fastgl {
namespace {

using graph::NodeId;
using util::fnv_bytes;

/** Pinned from a reference run of GoldenOutOfCoreEpochHash; moves only
 *  when the numeric path or the storage model changes behaviour. */
constexpr uint64_t kGoldenOocEpochHash = 0xEC028008A563EDD0ULL;

graph::Dataset
tiny_reddit()
{
    graph::ReplicaOptions opts;
    opts.size_factor = 0.05;
    opts.materialize_features = true;
    return graph::load_replica(graph::DatasetId::kReddit, opts);
}

// ------------------------------------------------------- StorageLink

TEST(StorageLink, WindowedEstimateMatchesFormula)
{
    for (const sim::StorageSpec &spec :
         {sim::nvme_spec(), sim::sata_ssd_spec()}) {
        sim::StorageLink link(spec);
        const uint64_t block = 16384;
        for (const int64_t blocks : {int64_t(1), int64_t(7),
                                     int64_t(64), int64_t(1000)}) {
            for (const int inflight : {0, 1, 8, 1 << 20}) {
                const int window =
                    inflight <= 0
                        ? spec.queue_depth
                        : std::min(inflight, spec.queue_depth);
                const int64_t rounds = (blocks + window - 1) / window;
                const double want =
                    double(rounds) * spec.read_latency +
                    double(blocks) * double(block) / spec.read_bw;
                EXPECT_DOUBLE_EQ(
                    link.estimate_blocks(blocks, block, inflight), want)
                    << spec.name << " blocks=" << blocks
                    << " inflight=" << inflight;
            }
        }
    }
}

TEST(StorageLink, StatsAccumulateAndZeroBlocksAreFree)
{
    sim::StorageLink link(sim::nvme_spec());
    EXPECT_DOUBLE_EQ(link.read_blocks(0, 4096), 0.0);
    EXPECT_EQ(link.reads(), 0);

    const double a = link.read_blocks(10, 4096);
    const double b = link.read_blocks(5, 4096);
    EXPECT_EQ(link.blocks_read(), 15);
    EXPECT_EQ(link.reads(), 2);
    EXPECT_EQ(link.total_bytes(), uint64_t(15) * 4096);
    EXPECT_DOUBLE_EQ(link.total_time(), a + b);

    link.reset();
    EXPECT_EQ(link.blocks_read(), 0);
    EXPECT_DOUBLE_EQ(link.total_time(), 0.0);
}

TEST(StorageLink, SsdIsSlowerThanNvme)
{
    sim::StorageLink nvme(sim::nvme_spec());
    sim::StorageLink ssd(sim::sata_ssd_spec());
    EXPECT_GT(ssd.estimate_blocks(256, 16384),
              nvme.estimate_blocks(256, 16384));
}

// ------------------------------------------------------- IoScheduler

TEST(OocStoreScheduler, CoalescesDuplicateBlocksInOneSubmission)
{
    sim::StorageLink link(sim::nvme_spec());
    store::IoSchedulerOptions opts;
    store::IoScheduler sched(&link, 100, opts);

    const std::vector<int64_t> blocks = {5, 5, 5, 9, 9, 5};
    const double t = sched.submit(blocks, /*prefetch=*/false);
    EXPECT_GT(t, 0.0);
    EXPECT_EQ(sched.stats().requested_blocks, 6);
    EXPECT_EQ(sched.stats().coalesced_blocks, 4); // four duplicates
    EXPECT_EQ(sched.stats().fetched_blocks, 2);   // blocks 5 and 9
    EXPECT_EQ(link.blocks_read(), 2);
    EXPECT_DOUBLE_EQ(t, link.estimate_blocks(2, opts.block_bytes));

    // The same blocks again: fully staged, nothing hits the drive.
    EXPECT_DOUBLE_EQ(sched.submit(blocks, false), 0.0);
    EXPECT_EQ(sched.stats().staged_hits, 2);
    EXPECT_EQ(link.blocks_read(), 2);
}

TEST(OocStoreScheduler, PrefetchTimeIsOverlappedAndAttributed)
{
    sim::StorageLink link(sim::nvme_spec());
    store::IoScheduler sched(&link, 64, {});

    const std::vector<int64_t> future = {1, 2, 3};
    const double hidden = sched.submit(future, /*prefetch=*/true);
    EXPECT_GT(hidden, 0.0);
    EXPECT_DOUBLE_EQ(sched.stats().prefetch_seconds, hidden);
    EXPECT_DOUBLE_EQ(sched.stats().demand_seconds, 0.0);

    // Demand hits on prefetched blocks stall nothing and are credited
    // to the prefetcher exactly once each.
    EXPECT_DOUBLE_EQ(sched.submit(future, false), 0.0);
    EXPECT_EQ(sched.prefetch_hits(), 3);
    EXPECT_DOUBLE_EQ(sched.submit(future, false), 0.0);
    EXPECT_EQ(sched.prefetch_hits(), 3); // second touch: plain staged
}

TEST(OocStoreScheduler, StagingFifoEvictsOldestFirst)
{
    sim::StorageLink link(sim::nvme_spec());
    store::IoSchedulerOptions opts;
    opts.staging_blocks = 2;
    store::IoScheduler sched(&link, 16, opts);

    sched.submit(std::vector<int64_t>{0}, false);
    sched.submit(std::vector<int64_t>{1}, false);
    EXPECT_TRUE(sched.staged(0));
    EXPECT_TRUE(sched.staged(1));
    sched.submit(std::vector<int64_t>{2}, false); // evicts block 0
    EXPECT_FALSE(sched.staged(0));
    EXPECT_TRUE(sched.staged(1));
    EXPECT_TRUE(sched.staged(2));

    // The evicted block must be fetched again on demand.
    const double t = sched.submit(std::vector<int64_t>{0}, false);
    EXPECT_GT(t, 0.0);
    EXPECT_EQ(link.blocks_read(), 4);
}

TEST(OocStoreScheduler, ResetDropsStagingAndStats)
{
    sim::StorageLink link(sim::nvme_spec());
    store::IoScheduler sched(&link, 8, {});
    sched.submit(std::vector<int64_t>{3, 4}, false);
    sched.reset();
    EXPECT_FALSE(sched.staged(3));
    EXPECT_EQ(sched.stats().requested_blocks, 0);
    EXPECT_EQ(sched.prefetch_hits(), 0);
    EXPECT_GT(sched.submit(std::vector<int64_t>{3}, false), 0.0);
}

// -------------------------------------------------------- Prefetcher

TEST(Prefetch, BlockIssuedAtMostOncePerWindow)
{
    store::LookaheadPrefetcher pf(32);

    const auto first =
        pf.register_batch(0, std::vector<int64_t>{1, 2, 3, 2});
    EXPECT_EQ(first, (std::vector<int64_t>{1, 2, 3}));

    // Overlapping future batch: only the new block issues.
    const auto second =
        pf.register_batch(1, std::vector<int64_t>{2, 3, 4});
    EXPECT_EQ(second, (std::vector<int64_t>{4}));
    EXPECT_EQ(pf.stats().blocks_issued, 4);
    EXPECT_EQ(pf.stats().blocks_suppressed, 2);
    EXPECT_EQ(pf.refcount(2), 2);
    EXPECT_EQ(pf.refcount(4), 1);

    // Block 2 stays referenced until the LAST batch using it retires.
    pf.retire_batch(0);
    EXPECT_EQ(pf.refcount(2), 1);
    EXPECT_TRUE(pf.register_batch(2, std::vector<int64_t>{2}).empty());
    pf.retire_batch(1);
    pf.retire_batch(2);
    EXPECT_EQ(pf.refcount(2), 0);
    EXPECT_EQ(pf.window_size(), 0);

    // Out of the window, the block may be issued again.
    EXPECT_EQ(pf.register_batch(3, std::vector<int64_t>{2}),
              (std::vector<int64_t>{2}));
}

TEST(Prefetch, RetireUnknownBatchIsNoOp)
{
    store::LookaheadPrefetcher pf(8);
    pf.retire_batch(42);
    EXPECT_EQ(pf.window_size(), 0);
    pf.register_batch(7, std::vector<int64_t>{0});
    pf.retire_batch(99);
    EXPECT_EQ(pf.window_size(), 1);
    EXPECT_EQ(pf.refcount(0), 1);
}

// ------------------------------------------------- layout / relayout

TEST(OocStoreLayout, PartitionOrderedLayoutIsBijection)
{
    const graph::CsrGraph g = graph::generate_ring(200, 3, 0xBEEF);
    const graph::Partitioning parts = graph::partition_bfs(g, 4);
    const store::FeatureLayout layout =
        store::partition_ordered_layout(g, parts);

    ASSERT_EQ(layout.num_nodes(), g.num_nodes());
    std::vector<int> slot_seen(size_t(g.num_nodes()), 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const NodeId s = layout.slot_of[size_t(u)];
        ASSERT_GE(s, 0);
        ASSERT_LT(s, g.num_nodes());
        ++slot_seen[size_t(s)];
        EXPECT_EQ(layout.node_at[size_t(s)], u);
    }
    for (NodeId s = 0; s < g.num_nodes(); ++s)
        EXPECT_EQ(slot_seen[size_t(s)], 1);

    // Partition-major: each partition's members occupy one contiguous
    // slot range, in partition order.
    NodeId next_slot = 0;
    for (int p = 0; p < parts.num_parts(); ++p) {
        for (size_t i = 0; i < parts.members[size_t(p)].size(); ++i) {
            const NodeId u = layout.node_at[size_t(next_slot++)];
            EXPECT_EQ(parts.part_of[size_t(u)], p);
        }
    }
}

TEST(OocStoreLayout, RelayoutRoundTripsBitIdentical)
{
    const graph::CsrGraph g = graph::generate_ring(120, 2, 0xC0DE);
    const graph::Partitioning parts = graph::partition_bfs(g, 3);
    const store::FeatureLayout layout =
        store::partition_ordered_layout(g, parts);
    graph::FeatureStore features(g.num_nodes(), 17, 4, 0xFACE, true);

    const std::vector<float> relaid =
        store::relayout_features(features, layout);
    ASSERT_EQ(relaid.size(),
              size_t(g.num_nodes()) * size_t(features.dim()));

    // Reading node u's row from slot slot_of[u] must be byte-for-byte
    // the original row: the relayout is a pure relabelling.
    std::vector<float> row(size_t(features.dim()));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        features.gather_row(u, row.data());
        const float *got =
            relaid.data() +
            size_t(layout.slot_of[size_t(u)]) * size_t(features.dim());
        EXPECT_EQ(std::memcmp(got, row.data(),
                              row.size() * sizeof(float)),
                  0)
            << "node " << u;
    }

    // And the whole matrix is a permutation of the original rows.
    uint64_t want = 0, got = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        features.gather_row(u, row.data());
        want ^= fnv_bytes(row.data(), row.size() * sizeof(float));
        got ^= fnv_bytes(relaid.data() +
                             size_t(u) * size_t(features.dim()),
                         row.size() * sizeof(float));
    }
    EXPECT_EQ(got, want);
}

TEST(OocStoreLayout, IdentityLayoutIsIdentity)
{
    const store::FeatureLayout layout = store::identity_layout(9);
    for (NodeId u = 0; u < 9; ++u) {
        EXPECT_EQ(layout.slot_of[size_t(u)], u);
        EXPECT_EQ(layout.node_at[size_t(u)], u);
    }
}

// ------------------------------------------------ TieredFeatureStore

TEST(OocStore, ChargeClassifiesRowsAcrossTiers)
{
    const graph::CsrGraph g = graph::generate_ring(64, 2, 7);
    graph::FeatureStore features(g.num_nodes(), 8, 4, 1, false);
    std::vector<NodeId> ranking(size_t(g.num_nodes()));
    for (NodeId u = 0; u < g.num_nodes(); ++u)
        ranking[size_t(u)] = u; // hotness = ascending node ID
    // The GPU cache holds nodes 40 and 2 — 40 deliberately outside the
    // host-DRAM prefix, so the cache skip is distinguishable from host
    // residency.
    const match::StaticFeatureCache gpu(g.num_nodes(), {40, 2}, 2);

    store::TieredStoreOptions opts;
    opts.storage = store::StorageKind::kNvme;
    opts.host_mem_rows = 16;
    opts.prefetch_depth = 0;
    store::TieredFeatureStore ts(features, g, ranking, nullptr, &gpu,
                                 opts);
    ASSERT_TRUE(ts.active());
    EXPECT_EQ(ts.host_rows(), 16);
    EXPECT_TRUE(ts.host_resident(15));
    EXPECT_FALSE(ts.host_resident(16));

    // 2/40/40 hit the GPU cache, 5/15 host DRAM, 16/33 storage.
    const std::vector<NodeId> batch = {2, 5, 15, 16, 40, 40, 33};
    const double stall = ts.charge_batch(batch);
    EXPECT_GT(stall, 0.0);
    const store::StoreStats s = ts.stats();
    EXPECT_EQ(s.lookup_rows, 7);
    EXPECT_EQ(s.gpu_cache_rows, 3);
    EXPECT_EQ(s.host_rows, 2);
    EXPECT_EQ(s.storage_rows, 2);
    EXPECT_DOUBLE_EQ(s.stall_seconds, stall);

    // charge_miss_rows skips the GPU-cache check: cached node 40 pays
    // storage (it is not host-resident either).
    ts.begin_run();
    ts.charge_miss_rows(std::vector<NodeId>{40});
    EXPECT_EQ(ts.stats().storage_rows, 1);
    EXPECT_EQ(ts.stats().gpu_cache_rows, 0);
}

TEST(OocStore, InactiveWhenEverythingFitsInHostMemory)
{
    const graph::CsrGraph g = graph::generate_ring(32, 2, 7);
    graph::FeatureStore features(g.num_nodes(), 8, 4, 1, false);
    std::vector<NodeId> ranking(size_t(g.num_nodes()));
    for (NodeId u = 0; u < g.num_nodes(); ++u)
        ranking[size_t(u)] = u;

    store::TieredStoreOptions opts;
    opts.storage = store::StorageKind::kNvme;
    opts.host_mem_fraction = 1.0;
    store::TieredFeatureStore ts(features, g, ranking, nullptr, nullptr,
                                 opts);
    EXPECT_FALSE(ts.active());
    EXPECT_DOUBLE_EQ(ts.charge_batch(std::vector<NodeId>{1, 2}), 0.0);
    EXPECT_EQ(ts.stats().lookup_rows, 0);
}

// ------------------------------------------- end-to-end bit identity

core::TrainerOptions
ooc_trainer_opts()
{
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 6;
    opts.batch_size = 32;
    return opts;
}

TEST(OocStore, TrainerLossesBitIdenticalWithStorageOnOff)
{
    const graph::Dataset ds = tiny_reddit();

    core::TrainerOptions base = ooc_trainer_opts();
    core::Trainer vanilla(ds, base);
    const auto want = vanilla.train_epoch();

    core::TrainerOptions ooc = ooc_trainer_opts();
    ooc.storage.storage = store::StorageKind::kNvme;
    ooc.storage.host_mem_fraction = 0.25;
    ooc.storage.relayout = true;
    core::Trainer trainer(ds, ooc);
    ASSERT_NE(trainer.residency().store(), nullptr);
    ASSERT_TRUE(trainer.residency().store()->active());
    const auto got = trainer.train_epoch();

    // Storage is accounting only: the loss curve is bit-identical.
    ASSERT_EQ(got.iteration_losses.size(), want.iteration_losses.size());
    for (size_t i = 0; i < want.iteration_losses.size(); ++i)
        EXPECT_EQ(got.iteration_losses[i], want.iteration_losses[i]);
    EXPECT_EQ(got.mean_accuracy, want.mean_accuracy);

    // ... but the store did classify rows and charge the drive.
    const store::StoreStats &st = got.residency.store;
    EXPECT_GT(st.storage_rows, 0);
    EXPECT_GT(st.demand_blocks, 0);
    EXPECT_GT(st.hidden_seconds, 0.0);
    EXPECT_DOUBLE_EQ(got.modelled_epoch_seconds,
                     got.modelled_compute_seconds + st.stall_seconds);
    // Fully-in-memory runs reproduce the in-memory epoch time exactly.
    EXPECT_DOUBLE_EQ(want.modelled_epoch_seconds,
                     want.modelled_compute_seconds);
}

TEST(OocStore, VirtualClockDeterministicAcrossThreadWidths)
{
    const graph::Dataset ds = tiny_reddit();
    store::StoreStats first;
    for (const int threads : {1, 4, 8}) {
        core::TrainerOptions opts = ooc_trainer_opts();
        opts.compute_threads = threads;
        opts.gather_threads = threads;
        opts.storage.storage = store::StorageKind::kNvme;
        opts.storage.host_mem_fraction = 0.25;
        core::Trainer trainer(ds, opts);
        const store::StoreStats st = trainer.train_epoch().residency.store;
        if (threads == 1) {
            first = st;
            continue;
        }
        EXPECT_EQ(st.lookup_rows, first.lookup_rows);
        EXPECT_EQ(st.storage_rows, first.storage_rows);
        EXPECT_EQ(st.demand_blocks, first.demand_blocks);
        EXPECT_EQ(st.demand_staged, first.demand_staged);
        EXPECT_EQ(st.prefetch_hits, first.prefetch_hits);
        EXPECT_EQ(st.stall_seconds, first.stall_seconds)
            << "threads=" << threads;
        EXPECT_EQ(st.hidden_seconds, first.hidden_seconds)
            << "threads=" << threads;
    }
}

TEST(OocStore, GoldenOutOfCoreEpochHash)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts = ooc_trainer_opts();
    opts.storage.storage = store::StorageKind::kNvme;
    opts.storage.host_mem_fraction = 0.25;
    opts.storage.relayout = true;
    core::Trainer trainer(ds, opts);
    const auto stats = trainer.train_epoch();

    // One FNV hash over the loss curve and every storage counter and
    // virtual-clock charge: moves only when the numeric path or the
    // storage model changes behaviour.
    uint64_t h = fnv_bytes(stats.iteration_losses.data(),
                           stats.iteration_losses.size() *
                               sizeof(double));
    const store::StoreStats &st = stats.residency.store;
    const int64_t counters[] = {
        st.lookup_rows,   st.gpu_cache_rows, st.host_rows,
        st.storage_rows,  st.demand_blocks,  st.demand_staged,
        st.demand_fetched, st.prefetch_hits,
    };
    h ^= fnv_bytes(counters, sizeof(counters));
    const double seconds[] = {st.stall_seconds, st.hidden_seconds};
    h ^= fnv_bytes(seconds, sizeof(seconds));
    EXPECT_EQ(h, kGoldenOocEpochHash);
}

// -------------------------------------------- shared budget helpers

TEST(OocStoreBudget, FillBudgetClampsToRankingAndZero)
{
    EXPECT_EQ(match::cache_fill_budget(10, 100), 10);
    EXPECT_EQ(match::cache_fill_budget(100, 10), 10);
    EXPECT_EQ(match::cache_fill_budget(0, 10), 0);
    EXPECT_EQ(match::cache_fill_budget(-5, 10), 0);
    EXPECT_EQ(match::cache_fill_budget(10, 0), 0);
}

TEST(OocStoreBudget, InvariantPanicsOnOverfill)
{
    match::check_cache_budget(0, 0, "test");   // fine
    match::check_cache_budget(5, 5, "test");   // at capacity: fine
    EXPECT_DEATH(match::check_cache_budget(6, 5, "test"), "test");
    EXPECT_DEATH(match::check_cache_budget(-1, 5, "test"), "test");
}

TEST(OocStoreBudget, StaticCacheExposesResidencyAccessors)
{
    // A ranking with duplicates: each ranking position consumes fill
    // budget, but a row only counts resident once.
    const std::vector<NodeId> ranking = {3, 3, 1, 1, 2};
    const match::StaticFeatureCache cache(8, ranking, 4);
    EXPECT_EQ(cache.capacity_rows(), 4);
    EXPECT_EQ(cache.resident_rows(), 2); // first four entries: {3, 1}
    EXPECT_LE(cache.resident_rows(), cache.capacity_rows());
    EXPECT_EQ(cache.resident_bytes(128), uint64_t(2) * 128);
}

TEST(OocStoreBudget, PartitionedCacheExposesResidencyAccessors)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts = ooc_trainer_opts();
    opts.num_gpus = 2;
    opts.feature_cache_ratio = 0.1;
    core::Trainer trainer(ds, opts);
    const match::PartitionedFeatureCache *cache =
        trainer.residency().sharded_cache();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->capacity_rows(), cache->capacity_rows_per_device());
    for (int d = 0; d < cache->num_devices(); ++d) {
        EXPECT_LE(cache->resident_rows(d), cache->capacity_rows());
        EXPECT_EQ(cache->resident_bytes(d, 64),
                  uint64_t(cache->resident_rows(d)) * 64);
    }
}

} // namespace
} // namespace fastgl
