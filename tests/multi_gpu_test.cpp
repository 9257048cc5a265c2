/**
 * @file
 * Tests for the multi-GPU layer: the interconnect model
 * (sim::PeerTopology), the partition-sharded feature cache
 * (match::PartitionedFeatureCache), the generalized N-device epoch
 * simulation (core::simulate_epoch_multi) including the exact
 * single-trainer regression, and the multi-GPU serve/trainer
 * integration's determinism.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/multi_gpu.h"
#include "core/timeline.h"
#include "core/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "match/feature_cache.h"
#include "match/partitioned_cache.h"
#include "serve/load_generator.h"
#include "serve/server.h"
#include "sim/gpu_spec.h"
#include "sim/peer_link.h"

namespace fastgl {
namespace {

// ---------------------------------------------------------------- sim

TEST(PeerTopology, KindsFollowNvlinkSpan)
{
    sim::PeerTopologyOptions opts;
    opts.num_devices = 4;
    opts.nvlink_span = 1; // ring neighbours only
    sim::PeerTopology topo(sim::rtx3090(), opts);
    EXPECT_EQ(topo.kind(0, 0), sim::PeerLinkKind::kLoopback);
    EXPECT_EQ(topo.kind(0, 1), sim::PeerLinkKind::kNvlink);
    EXPECT_EQ(topo.kind(0, 3), sim::PeerLinkKind::kNvlink); // ring wrap
    EXPECT_EQ(topo.kind(0, 2), sim::PeerLinkKind::kPciePeer);
    EXPECT_EQ(topo.kind(2, 0), sim::PeerLinkKind::kPciePeer);
}

TEST(PeerTopology, NvlinkBeatsPciePeerAndLoopbackIsFree)
{
    sim::PeerTopologyOptions opts;
    opts.num_devices = 4;
    sim::PeerTopology topo(sim::rtx3090(), opts);
    const uint64_t mb = 1 << 20;
    EXPECT_EQ(topo.estimate(1, 1, mb), 0.0);
    EXPECT_LT(topo.estimate(0, 1, mb), topo.estimate(0, 2, mb));
}

TEST(PeerTopology, TransferAccumulatesPerLinkStats)
{
    sim::PeerTopologyOptions opts;
    opts.num_devices = 2;
    sim::PeerTopology topo(sim::rtx3090(), opts);
    const double s1 = topo.transfer(0, 1, 1000);
    const double s2 = topo.transfer(0, 1, 3000);
    EXPECT_GT(s1, 0.0);
    EXPECT_GT(s2, s1);
    const sim::PeerLinkStats &link = topo.link(0, 1);
    EXPECT_EQ(link.bytes, 4000u);
    EXPECT_EQ(link.transfers, 2);
    EXPECT_DOUBLE_EQ(link.seconds, s1 + s2);
    EXPECT_EQ(topo.link(1, 0).transfers, 0);
    EXPECT_EQ(topo.active_links().size(), 1u);
    // Loopback is free and never recorded.
    EXPECT_EQ(topo.transfer(1, 1, 1 << 20), 0.0);
    EXPECT_EQ(topo.total_transfers(), 2);
    topo.reset();
    EXPECT_EQ(topo.total_bytes(), 0u);
    EXPECT_TRUE(topo.active_links().empty());
}

// -------------------------------------------------------------- match

graph::CsrGraph
cache_graph(int nodes = 3000)
{
    graph::RmatParams params;
    params.num_nodes = nodes;
    params.num_edges = nodes * 8;
    params.seed = 77;
    return graph::generate_rmat(params);
}

TEST(PartitionedCache, ShardedCoversMoreDistinctRowsThanReplicated)
{
    graph::CsrGraph g = cache_graph();
    const auto parts = graph::partition_ldg(g, 4);
    const auto ranking = match::degree_ranking(g);
    const int64_t per_device = 200;
    match::PartitionedFeatureCache sharded(
        parts, ranking, per_device, 4, match::ShardMode::kSharded,
        match::RemotePolicy::kAlwaysRemote);
    match::PartitionedFeatureCache replicated(
        parts, ranking, per_device, 4, match::ShardMode::kReplicated,
        match::RemotePolicy::kAlwaysRemote);
    EXPECT_EQ(replicated.distinct_resident_rows(), per_device);
    // Same per-device budget, ~4x the coverage.
    EXPECT_GT(sharded.distinct_resident_rows(),
              2 * replicated.distinct_resident_rows());
}

/**
 * An alternating even/odd partitioning: unlike a real partitioner
 * (which may give one partition the whole hub core), this guarantees
 * the hot ranking interleaves both devices' shards, so remote-hit
 * paths are exercised deterministically.
 */
graph::Partitioning
alternating_partition(const graph::CsrGraph &g, int k)
{
    graph::Partitioning parts;
    parts.members.resize(size_t(k));
    parts.part_of.resize(size_t(g.num_nodes()));
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
        parts.part_of[size_t(u)] = int32_t(u % k);
        parts.members[size_t(u % k)].push_back(u);
    }
    return parts;
}

TEST(PartitionedCache, RemoteHitsChargePeerNotHost)
{
    graph::CsrGraph g = cache_graph();
    const auto parts = alternating_partition(g, 2);
    const auto ranking = match::degree_ranking(g);
    match::PartitionedFeatureCache cache(
        parts, ranking, 400, 2, match::ShardMode::kSharded,
        match::RemotePolicy::kAlwaysRemote);
    // Look up the globally hottest rows from device 0: rows owned by
    // device 1's partitions must come back as remote hits.
    const std::span<const graph::NodeId> hot(ranking.data(), 300);
    const match::ShardLookup lookup = cache.lookup_batch(0, hot);
    EXPECT_GT(lookup.local_hits, 0);
    EXPECT_GT(lookup.remote_hits, 0);
    EXPECT_EQ(lookup.remote_rows_by_device[0], 0);
    EXPECT_EQ(lookup.remote_rows_by_device[1], lookup.remote_hits);
    EXPECT_EQ(lookup.local_hits + lookup.remote_hits + lookup.misses,
              300);
    const match::PartitionCacheCounters totals = cache.totals();
    EXPECT_EQ(totals.remote_hits, lookup.remote_hits);
}

TEST(PartitionedCache, FetchAndCacheOverlayConvertsRemoteToLocal)
{
    graph::CsrGraph g = cache_graph();
    const auto parts = alternating_partition(g, 2);
    const auto ranking = match::degree_ranking(g);
    match::PartitionedFeatureCache cache(
        parts, ranking, 400, 2, match::ShardMode::kSharded,
        match::RemotePolicy::kFetchAndCache);
    const std::span<const graph::NodeId> hot(ranking.data(), 200);
    const match::ShardLookup first = cache.lookup_batch(0, hot);
    ASSERT_GT(first.remote_hits, 0);
    const int64_t resident_before = cache.resident_rows(0);
    // Second pass over the same rows: the overlay now holds (some of)
    // the previously remote rows locally.
    const match::ShardLookup second = cache.lookup_batch(0, hot);
    EXPECT_LT(second.remote_hits, first.remote_hits);
    EXPECT_GT(second.local_hits, first.local_hits);
    // reset_overlay restores the post-construction shard exactly.
    cache.reset_overlay();
    cache.reset_stats();
    EXPECT_LT(cache.resident_rows(0), resident_before);
    const match::ShardLookup again = cache.lookup_batch(0, hot);
    EXPECT_EQ(again.local_hits, first.local_hits);
    EXPECT_EQ(again.remote_hits, first.remote_hits);
    EXPECT_EQ(again.misses, first.misses);
}

// --------------------------------------------------- core (timeline)

std::vector<core::BatchStageTimes>
stage_times(int n, double scale = 1.0, uint64_t salt = 1)
{
    std::vector<core::BatchStageTimes> batches;
    for (int i = 0; i < n; ++i) {
        core::BatchStageTimes t;
        // Deterministic pseudo-varied durations (no RNG needed).
        const double v = double((i * 2654435761u + salt) % 97) / 97.0;
        t.sample = scale * (1e-3 + 1e-3 * v);
        t.io = scale * (8e-4 + 6e-4 * v);
        t.compute = scale * (2e-3 + 1e-3 * v);
        batches.push_back(t);
    }
    return batches;
}

TEST(MultiGpuTimeline, SymmetricReproducesLegacyMakespanExactly)
{
    const auto batches = stage_times(40);
    for (const bool overlap : {false, true}) {
        for (const bool dedicated : {false, true}) {
            core::TimelineConfig legacy_cfg;
            legacy_cfg.overlap_copy_compute = overlap;
            legacy_cfg.dedicated_sampler = dedicated;
            legacy_cfg.allreduce = 4.2e-4;
            const double legacy =
                core::simulate_epoch(batches, legacy_cfg).makespan;

            for (const int devices : {1, 2, 4}) {
                core::MultiGpuConfig cfg;
                cfg.mode = core::MultiGpuMode::kSymmetric;
                cfg.base = legacy_cfg;
                cfg.num_devices = devices;
                const std::vector<std::vector<core::MultiGpuBatch>>
                    per_device(size_t(devices),
                               core::to_multi_gpu_batches(batches));
                const auto result =
                    core::simulate_epoch_multi(per_device, cfg);
                // Bit-exact: symmetric ranks hit the allreduce barrier
                // simultaneously, so the generalized schedule performs
                // the identical float operations as the legacy
                // "simulate one, take the max" model.
                EXPECT_EQ(result.makespan, legacy)
                    << "devices=" << devices << " overlap=" << overlap
                    << " dedicated=" << dedicated;
            }
        }
    }
}

TEST(MultiGpuTimeline, AsymmetricTrainersBoundedByBarrier)
{
    core::TimelineConfig base;
    base.allreduce = 5e-4;
    core::MultiGpuConfig cfg;
    cfg.mode = core::MultiGpuMode::kSymmetric;
    cfg.base = base;
    cfg.num_devices = 2;
    // Device 1's batches are 3x slower: the ring barrier must drag
    // device 0 down to (at least) the slow rank's standalone makespan.
    const std::vector<std::vector<core::MultiGpuBatch>> per_device = {
        core::to_multi_gpu_batches(stage_times(20, 1.0)),
        core::to_multi_gpu_batches(stage_times(20, 3.0)),
    };
    const auto result = core::simulate_epoch_multi(per_device, cfg);
    const double slow =
        core::simulate_epoch(stage_times(20, 3.0), base).makespan;
    EXPECT_GE(result.makespan, slow);
    ASSERT_EQ(result.devices.size(), 2u);
    EXPECT_EQ(result.devices[0].batches_trained, 20);
    EXPECT_EQ(result.devices[1].batches_trained, 20);
    EXPECT_GT(result.allreduce_seconds, 0.0);
}

TEST(MultiGpuTimeline, FactoredTrainsEveryBatchDeterministically)
{
    core::MultiGpuConfig cfg;
    cfg.mode = core::MultiGpuMode::kFactored;
    cfg.base.allreduce = 2e-4;
    cfg.num_devices = 4;
    cfg.num_samplers = 2;
    const std::vector<std::vector<core::MultiGpuBatch>> per_device(
        4, core::to_multi_gpu_batches(stage_times(15)));
    sim::PeerTopologyOptions popts;
    popts.num_devices = 4;
    sim::PeerTopology topo_a(sim::rtx3090(), popts);
    sim::PeerTopology topo_b(sim::rtx3090(), popts);
    const auto a = core::simulate_epoch_multi(per_device, cfg, &topo_a);
    const auto b = core::simulate_epoch_multi(per_device, cfg, &topo_b);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.makespan, b.makespan);
    int64_t trained = 0, sampled = 0;
    for (const auto &dev : a.devices) {
        trained += dev.batches_trained;
        sampled += dev.batches_sampled;
    }
    EXPECT_EQ(trained, 60);
    EXPECT_EQ(sampled, 60);
    // Fixed roles: samplers never train, trainers never sample.
    EXPECT_EQ(a.devices[0].batches_trained, 0);
    EXPECT_EQ(a.devices[3].batches_sampled, 0);
    EXPECT_TRUE(a.switches.empty());
}

TEST(MultiGpuTimeline, SwitcherRebalancesSampleBoundWork)
{
    // Sample-heavy workload: one dedicated sampler starves three
    // trainers, so the switcher must flip starving trainers into
    // samplers (and back into trainers once sampling drains).
    auto batches = stage_times(48);
    for (auto &t : batches) {
        t.sample *= 6.0;
        t.compute *= 0.5;
    }
    const std::vector<std::vector<core::MultiGpuBatch>> per_device(
        4, core::to_multi_gpu_batches(batches));
    core::MultiGpuConfig cfg;
    cfg.base.allreduce = 1e-4;
    cfg.num_devices = 4;
    cfg.num_samplers = 1;

    cfg.mode = core::MultiGpuMode::kFactored;
    const auto fixed = core::simulate_epoch_multi(per_device, cfg);
    cfg.mode = core::MultiGpuMode::kFactoredSwitcher;
    const auto dynamic = core::simulate_epoch_multi(per_device, cfg);

    EXPECT_FALSE(dynamic.switches.empty());
    EXPECT_LT(dynamic.makespan, fixed.makespan);
    int64_t trained = 0;
    for (const auto &dev : dynamic.devices)
        trained += dev.batches_trained;
    EXPECT_EQ(trained, 4 * 48);
}

TEST(MultiGpuTimeline, FactoredSwitcherGoldenFingerprint)
{
    // Golden pin of one factored-switcher schedule: any change to the
    // event loop's ordering, flip policy, or cost arithmetic shows up
    // here first. Update deliberately, never casually.
    auto batches = stage_times(32, 1.0, 9);
    for (auto &t : batches)
        t.sample *= 4.0;
    const std::vector<std::vector<core::MultiGpuBatch>> per_device(
        3, core::to_multi_gpu_batches(batches));
    core::MultiGpuConfig cfg;
    cfg.mode = core::MultiGpuMode::kFactoredSwitcher;
    cfg.base.allreduce = 3e-4;
    cfg.num_devices = 3;
    cfg.num_samplers = 1;
    sim::PeerTopologyOptions popts;
    popts.num_devices = 3;
    sim::PeerTopology topo(sim::rtx3090(), popts);
    const auto result =
        core::simulate_epoch_multi(per_device, cfg, &topo);
    EXPECT_EQ(result.fingerprint, 0xD429562CD00A345CULL);
}

TEST(MultiGpuTimeline, RouteByAffinityBalancesAndPreservesOrder)
{
    // 10 batches, partitions skewed onto partition 0.
    const std::vector<int32_t> parts = {0, 0, 0, 0, 0, 0, 1, 1, -1, 2};
    const auto routed = core::route_by_affinity(parts, 3);
    ASSERT_EQ(routed.size(), 3u);
    std::vector<bool> seen(parts.size(), false);
    for (const auto &list : routed) {
        // Balanced: no device above ceil(10/3) = 4.
        EXPECT_LE(list.size(), 4u);
        for (size_t i = 1; i < list.size(); ++i)
            EXPECT_LT(list[i - 1], list[i]);
        for (int64_t b : list) {
            EXPECT_FALSE(seen[size_t(b)]);
            seen[size_t(b)] = true;
        }
    }
    for (bool b : seen)
        EXPECT_TRUE(b);
    // Affinity: batch 6/7 (partition 1) stay on device 1, batch 9
    // (partition 2) on device 2.
    EXPECT_TRUE(std::find(routed[1].begin(), routed[1].end(), 6) !=
                routed[1].end());
    EXPECT_TRUE(std::find(routed[2].begin(), routed[2].end(), 9) !=
                routed[2].end());
}

// -------------------------------------------------- serve + trainer

TEST(MultiGpuServe, FingerprintStableAcrossWorkerCounts)
{
    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    ropts.size_factor = 0.15;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kReddit, ropts);

    serve::LoadGeneratorOptions lopts;
    lopts.rate_rps = 20000.0;
    lopts.num_requests = 256;
    lopts.seed = 11;

    uint64_t first = 0;
    for (const int threads : {1, 4, 8}) {
        serve::ServerOptions sopts;
        sopts.worker_threads = threads;
        sopts.num_gpus = 2;
        sopts.seed = 7;
        serve::Server server(ds, sopts);
        EXPECT_EQ(server.num_gpus(), 2);
        serve::LoadGenerator gen(server.popularity(), lopts);
        server.serve(gen.generate());
        const serve::ServingStats &st = server.last_stats();
        EXPECT_EQ(st.num_gpus, 2);
        if (threads == 1) {
            first = st.fingerprint;
            // The shards really split traffic: both remote feature
            // hits and multiple partitions' counters are populated.
            const store::ResidencyStats &r = st.residency;
            EXPECT_GT(r.features.remote_hits, 0);
            ASSERT_EQ(r.per_partition.size(), 2u);
            EXPECT_GT(r.per_partition[0].lookups(), 0);
            EXPECT_GT(r.per_partition[1].lookups(), 0);
            EXPECT_FALSE(r.peer_links.empty());
        } else {
            EXPECT_EQ(st.fingerprint, first)
                << "threads=" << threads;
        }
    }
}

TEST(MultiGpuServe, ServeCallsAreRepeatable)
{
    // The fetch-and-cache overlay must be rewound between calls:
    // serving the same trace twice gives identical fingerprints.
    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    ropts.size_factor = 0.1;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kReddit, ropts);
    serve::ServerOptions sopts;
    sopts.num_gpus = 2;
    serve::Server server(ds, sopts);
    serve::LoadGeneratorOptions lopts;
    lopts.num_requests = 128;
    serve::LoadGenerator gen(server.popularity(), lopts);
    const auto trace = gen.generate();
    server.serve(trace);
    const uint64_t once = server.last_stats().fingerprint;
    server.serve(trace);
    EXPECT_EQ(server.last_stats().fingerprint, once);
}

TEST(MultiGpuTrainer, AccountingNeverMovesTheTrainingTrajectory)
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.05;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kReddit, ropts);

    core::TrainerOptions single;
    single.max_batches = 3;
    single.feature_cache_ratio = 0.2;
    core::TrainerOptions multi = single;
    multi.num_gpus = 2;

    core::Trainer a(ds, single);
    core::Trainer b(ds, multi);
    const auto sa = a.train_epoch();
    const auto sb = b.train_epoch();
    // Bitwise-identical losses: the sharded pass is accounting only.
    ASSERT_EQ(sa.iteration_losses.size(), sb.iteration_losses.size());
    for (size_t i = 0; i < sa.iteration_losses.size(); ++i)
        EXPECT_EQ(sa.iteration_losses[i], sb.iteration_losses[i]);
    EXPECT_EQ(sa.num_gpus, 1);
    EXPECT_EQ(sb.num_gpus, 2);
    EXPECT_GT(sb.residency.features.lookups(), 0);
    EXPECT_EQ(sb.residency.per_partition.size(), 2u);
    EXPECT_NE(b.residency().sharded_cache(), nullptr);
    EXPECT_EQ(a.residency().sharded_cache(), nullptr);
}

} // namespace
} // namespace fastgl
