/**
 * @file
 * Tests for the batched feature-gather fast path: bitwise equality of
 * match::GatherEngine against the legacy per-row gather_row loop at
 * several thread widths (fuzzed over ragged batches and awkward
 * dimensions), golden hashes pinning the pre-engine gather output,
 * FrequencyHashmap equivalence against a std::unordered_map reference
 * and against the legacy dense two-pass presample ranking, hoisted
 * bounds validation death tests, exact StaticFeatureCache statistics
 * under concurrent engines, panel lifetime past engine destruction,
 * and the Tensor view-mode semantics the zero-copy handoff relies on.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compute/tensor.h"
#include "graph/feature_store.h"
#include "match/feature_cache.h"
#include "match/gather_engine.h"
#include "sample/frequency_hashmap.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace fastgl {
namespace {

using graph::FeatureStore;
using graph::NodeId;
using match::FeaturePanel;
using match::GatherEngine;
using match::StaticFeatureCache;
using sample::FrequencyHashmap;
using util::fnv_bytes;

/** The legacy gather: one gather_row call per node into a flat buffer. */
std::vector<float>
legacy_gather(const FeatureStore &store,
              const std::vector<NodeId> &nodes)
{
    std::vector<float> out(nodes.size() *
                           static_cast<size_t>(store.dim()));
    for (size_t i = 0; i < nodes.size(); ++i)
        store.gather_row(nodes[i], out.data() + i * store.dim());
    return out;
}

uint64_t
panel_hash(const FeaturePanel &panel)
{
    return fnv_bytes(panel.data(), static_cast<size_t>(panel.bytes()));
}

// ------------------------------------------------------ bit identity

TEST(GatherEngine, FuzzBitIdenticalToPerRowLoopAcrossWidths)
{
    util::Rng rng(0x6A7831);
    const std::vector<int> dims = {1, 7, 64, 257};
    const std::vector<int64_t> batch_sizes = {0, 1, 2, 33, 257, 1024};
    for (const bool materialized : {true, false}) {
        for (const int dim : dims) {
            const NodeId n = 400;
            FeatureStore store(n, dim, 5, 0xFEED + dim, materialized);
            for (const int64_t batch : batch_sizes) {
                std::vector<NodeId> nodes;
                nodes.reserve(static_cast<size_t>(batch));
                for (int64_t i = 0; i < batch; ++i)
                    nodes.push_back(static_cast<NodeId>(rng.next_below(
                        static_cast<uint64_t>(n)))); // repeats likely
                const std::vector<float> want =
                    legacy_gather(store, nodes);
                const uint64_t want_hash = fnv_bytes(
                    want.data(), want.size() * sizeof(float));
                for (const int threads : {1, 4, 8}) {
                    GatherEngine engine(threads);
                    FeaturePanel panel = engine.gather(store, nodes);
                    ASSERT_EQ(panel.rows(),
                              static_cast<int64_t>(nodes.size()));
                    ASSERT_EQ(panel.dim(), dim);
                    ASSERT_EQ(panel_hash(panel), want_hash)
                        << "dim=" << dim << " batch=" << batch
                        << " threads=" << threads
                        << " materialized=" << materialized;
                }
            }
        }
    }
}

TEST(GatherEngine, PanelReuseAcrossBatchesStaysIdentical)
{
    // The same engine (and therefore recycled arenas) across ragged
    // consecutive batches: stale bytes from a larger earlier panel
    // must never leak into a smaller later one.
    FeatureStore store(300, 31, 4, 9, true);
    GatherEngine engine(4);
    util::Rng rng(77);
    for (int round = 0; round < 20; ++round) {
        const int64_t batch = static_cast<int64_t>(
            rng.next_below(round % 2 == 0 ? 512 : 3));
        std::vector<NodeId> nodes;
        for (int64_t i = 0; i < batch; ++i)
            nodes.push_back(
                static_cast<NodeId>(rng.next_below(300)));
        const std::vector<float> want = legacy_gather(store, nodes);
        FeaturePanel panel = engine.gather(store, nodes);
        ASSERT_EQ(panel_hash(panel),
                  fnv_bytes(want.data(), want.size() * sizeof(float)));
    }
}

TEST(GatherEngine, StatsCountRowsBytesCalls)
{
    FeatureStore store(100, 16, 3, 1, true);
    GatherEngine engine;
    std::vector<NodeId> nodes(25);
    std::iota(nodes.begin(), nodes.end(), 10);
    engine.gather(store, nodes);
    engine.gather(store, nodes);
    EXPECT_EQ(engine.stats().calls, 2);
    EXPECT_EQ(engine.stats().rows, 50);
    EXPECT_EQ(engine.stats().bytes, 50u * 16u * sizeof(float));
    engine.reset_stats();
    EXPECT_EQ(engine.stats().calls, 0);
}

// ------------------------------------------------------- golden hashes
//
// FNV-1a hashes of the *legacy* per-row gather output on pinned
// configurations, captured before the engine existed. The engine (any
// width) must keep reproducing these exact bytes. g1 and g4 pin the
// same value on purpose: a materialised store's rows are the ones the
// virtual store regenerates, and that parity is part of the contract.

struct GoldenCase
{
    NodeId num_nodes;
    int dim;
    int classes;
    uint64_t seed;
    bool materialized;
    uint64_t want;
};

std::vector<NodeId>
golden_nodes(int which)
{
    std::vector<NodeId> nodes;
    switch (which) {
    case 1:
    case 4:
        for (int i = 0; i < 100; ++i)
            nodes.push_back((i * 37) % 500);
        break;
    case 2:
        for (int i = 0; i < 64; ++i)
            nodes.push_back((i * i + 3) % 256);
        break;
    case 3:
        for (int i = 0; i < 33; ++i)
            nodes.push_back(999 - i * 30);
        break;
    case 5:
        nodes = {9};
        break;
    }
    return nodes;
}

TEST(GatherEngine, GoldenHashesPinLegacyGatherOutput)
{
    const std::vector<GoldenCase> cases = {
        {500, 64, 7, 123, true, 13311373199250224535ULL},
        {256, 7, 3, 77, true, 16350564843628151889ULL},
        {1000, 257, 11, 2024, true, 6283258923631365797ULL},
        {500, 64, 7, 123, false, 13311373199250224535ULL},
        {10, 1, 2, 555, true, 4522040095442430293ULL},
    };
    for (size_t c = 0; c < cases.size(); ++c) {
        const GoldenCase &g = cases[c];
        FeatureStore store(g.num_nodes, g.dim, g.classes, g.seed,
                           g.materialized);
        const std::vector<NodeId> nodes =
            golden_nodes(static_cast<int>(c) + 1);
        // Legacy loop still matches its pinned hash...
        const std::vector<float> legacy = legacy_gather(store, nodes);
        EXPECT_EQ(fnv_bytes(legacy.data(),
                            legacy.size() * sizeof(float)),
                  g.want)
            << "golden case " << c + 1;
        // ...and the engine reproduces it at every width.
        for (const int threads : {1, 4, 8}) {
            GatherEngine engine(threads);
            EXPECT_EQ(panel_hash(engine.gather(store, nodes)), g.want)
                << "golden case " << c + 1 << " threads=" << threads;
        }
    }
}

// ------------------------------------------- hoisted bounds validation

using GatherDeathTest = ::testing::Test;

TEST(GatherDeathTest, ValidateNodesRejectsOutOfRangeIds)
{
    FeatureStore store(50, 8, 2, 3, true);
    const std::vector<NodeId> high = {0, 10, 50};
    const std::vector<NodeId> negative = {-1, 10, 20};
    EXPECT_DEATH(store.validate_nodes(high),
                 "gather node ID outside the feature matrix");
    EXPECT_DEATH(store.validate_nodes(negative),
                 "gather node ID outside the feature matrix");
    const std::vector<NodeId> fine = {0, 49, 17};
    store.validate_nodes(fine); // in range: no death
    store.validate_nodes({});   // empty: vacuously valid
}

TEST(GatherDeathTest, EngineGatherPanicsOnOutOfRangeNode)
{
    FeatureStore store(50, 8, 2, 3, true);
    const std::vector<NodeId> bad = {1, 2, 51};
    GatherEngine sequential;
    EXPECT_DEATH(sequential.gather(store, bad),
                 "gather node ID outside the feature matrix");
    GatherEngine parallel(4);
    EXPECT_DEATH(parallel.gather(store, bad),
                 "gather node ID outside the feature matrix");
}

TEST(GatherDeathTest, GatherRowKeepsItsPerRowCheck)
{
    FeatureStore store(50, 8, 2, 3, true);
    std::vector<float> row(8);
    EXPECT_DEATH(store.gather_row(50, row.data()),
                 "node out of range");
    EXPECT_DEATH(store.gather_row(-1, row.data()),
                 "node out of range");
}

// -------------------------------------------------- frequency hashmap

TEST(FrequencyHashmap, FuzzMatchesUnorderedMapReference)
{
    util::Rng rng(0xC0FFEE);
    for (int round = 0; round < 8; ++round) {
        // Deliberately tiny initial hint: growth is part of the fuzz.
        FrequencyHashmap freq(4);
        std::unordered_map<NodeId, int64_t> ref;
        std::vector<NodeId> first_seen;
        const int64_t stream_len = 1 + static_cast<int64_t>(
                                           rng.next_below(5000));
        const uint64_t id_range = 1 + rng.next_below(800);
        for (int64_t i = 0; i < stream_len; ++i) {
            const NodeId u =
                static_cast<NodeId>(rng.next_below(id_range));
            const bool fresh = freq.add(u);
            EXPECT_EQ(fresh, ref.find(u) == ref.end());
            if (fresh)
                first_seen.push_back(u);
            ++ref[u];
        }
        ASSERT_EQ(freq.size(), static_cast<int64_t>(ref.size()));
        EXPECT_EQ(freq.total(), stream_len);
        const auto uniques = freq.uniques();
        const auto counts = freq.counts();
        ASSERT_EQ(uniques.size(), first_seen.size());
        for (size_t i = 0; i < uniques.size(); ++i) {
            EXPECT_EQ(uniques[i], first_seen[i]) << "first-seen order";
            EXPECT_EQ(counts[i], ref.at(uniques[i])) << "exact count";
        }
    }
}

TEST(FrequencyHashmap, CollisionHeavyKeysStayExact)
{
    // IDs a power-of-two stride apart land in colliding slots for any
    // mask-based table; counts must survive the probing and growth.
    FrequencyHashmap freq(4);
    std::unordered_map<NodeId, int64_t> ref;
    for (int rep = 0; rep < 7; ++rep) {
        for (NodeId u = 0; u < 4096 * 64; u += 4096) {
            freq.add(u);
            ++ref[u];
        }
    }
    ASSERT_EQ(freq.size(), static_cast<int64_t>(ref.size()));
    const auto uniques = freq.uniques();
    const auto counts = freq.counts();
    for (size_t i = 0; i < uniques.size(); ++i)
        EXPECT_EQ(counts[i], ref.at(uniques[i]));
}

TEST(FrequencyHashmap, ResetClearsCountsAndOrder)
{
    FrequencyHashmap freq(8);
    freq.add(5);
    freq.add(5);
    freq.add(9);
    freq.reset(8);
    EXPECT_EQ(freq.size(), 0);
    EXPECT_EQ(freq.total(), 0);
    EXPECT_TRUE(freq.add(9));
    ASSERT_EQ(freq.size(), 1);
    EXPECT_EQ(freq.uniques()[0], 9);
    EXPECT_EQ(freq.counts()[0], 1);
}

TEST(FrequencyHashmap, DenseFrequenciesMatchSparseCounts)
{
    FrequencyHashmap freq(16);
    const std::vector<NodeId> stream = {3, 1, 3, 7, 1, 3};
    freq.add_stream(stream);
    const std::vector<int64_t> dense = freq.dense_frequencies(10);
    ASSERT_EQ(dense.size(), 10u);
    EXPECT_EQ(dense[3], 3);
    EXPECT_EQ(dense[1], 2);
    EXPECT_EQ(dense[7], 1);
    EXPECT_EQ(dense[0], 0);
}

TEST(FrequencyHashmap, FusedRankingIdenticalToLegacyTwoPass)
{
    // The one-pass count-while-dedup presample must rank exactly like
    // the legacy pipeline: dense count array -> iota -> stable_sort by
    // frequency descending. Fuzz over random traces, including nodes
    // that never appear (they must trail in ascending ID order).
    util::Rng rng(0x5EED);
    for (int round = 0; round < 10; ++round) {
        const NodeId num_nodes =
            16 + static_cast<NodeId>(rng.next_below(600));
        const int64_t stream_len =
            static_cast<int64_t>(rng.next_below(4000));
        FrequencyHashmap freq(8);
        std::vector<int64_t> dense(static_cast<size_t>(num_nodes), 0);
        for (int64_t i = 0; i < stream_len; ++i) {
            // Skewed stream: low IDs are hot, as in presampling.
            const NodeId u = static_cast<NodeId>(
                rng.next_below(static_cast<uint64_t>(num_nodes)) *
                rng.next_below(static_cast<uint64_t>(num_nodes)) /
                static_cast<uint64_t>(num_nodes));
            freq.add(u);
            ++dense[static_cast<size_t>(u)];
        }
        const std::vector<NodeId> legacy =
            match::presample_ranking(dense);
        const std::vector<NodeId> fused = match::presample_ranking(
            freq.uniques(), freq.counts(), num_nodes);
        ASSERT_EQ(fused, legacy) << "round " << round;
    }
}

// ------------------------------------------------ fused cache account

TEST(GatherEngine, CachedGatherMatchesLookupBatchAccounting)
{
    const NodeId n = 200;
    FeatureStore store(n, 24, 4, 11, true);
    std::vector<NodeId> ranking(static_cast<size_t>(n));
    std::iota(ranking.begin(), ranking.end(), 0);
    StaticFeatureCache fused_cache(n, ranking, 60);
    StaticFeatureCache legacy_cache(n, ranking, 60);

    util::Rng rng(31337);
    GatherEngine engine(4);
    for (int batch = 0; batch < 12; ++batch) {
        std::vector<NodeId> nodes;
        for (int i = 0; i < 150; ++i)
            nodes.push_back(static_cast<NodeId>(
                rng.next_below(static_cast<uint64_t>(n))));
        const int64_t legacy_misses = legacy_cache.lookup_batch(nodes);
        const auto result =
            engine.gather_cached(store, nodes, fused_cache);
        EXPECT_EQ(result.misses, legacy_misses);
        EXPECT_EQ(result.hits,
                  static_cast<int64_t>(nodes.size()) - legacy_misses);
        // The fused pass gathers the same bytes as a plain gather.
        const std::vector<float> want = legacy_gather(store, nodes);
        EXPECT_EQ(panel_hash(result.panel),
                  fnv_bytes(want.data(), want.size() * sizeof(float)));
    }
    // Published statistics match the legacy accounting exactly.
    EXPECT_EQ(fused_cache.hits(), legacy_cache.hits());
    EXPECT_EQ(fused_cache.misses(), legacy_cache.misses());
    EXPECT_EQ(engine.stats().cache_hits, fused_cache.hits());
    EXPECT_EQ(engine.stats().cache_misses, fused_cache.misses());
}

TEST(GatherEngine, CacheStatsExactUnderConcurrentEngines)
{
    // Several engines (each itself sharded) hammer one shared cache;
    // the atomic totals must come out exact, not approximately right.
    const NodeId n = 300;
    FeatureStore store(n, 16, 3, 21, true);
    std::vector<NodeId> ranking(static_cast<size_t>(n));
    std::iota(ranking.begin(), ranking.end(), 0);
    StaticFeatureCache cache(n, ranking, 100);

    constexpr int kWorkers = 4;
    constexpr int kBatches = 25;
    constexpr int kBatchSize = 97;
    std::vector<int64_t> worker_hits(kWorkers, 0);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            GatherEngine engine(2);
            util::Rng rng(1000 + w);
            int64_t hits = 0;
            for (int b = 0; b < kBatches; ++b) {
                std::vector<NodeId> nodes;
                for (int i = 0; i < kBatchSize; ++i)
                    nodes.push_back(static_cast<NodeId>(
                        rng.next_below(static_cast<uint64_t>(n))));
                hits += engine.gather_cached(store, nodes, cache).hits;
            }
            worker_hits[static_cast<size_t>(w)] = hits;
        });
    }
    for (auto &t : workers)
        t.join();
    int64_t want_hits = 0;
    for (int64_t h : worker_hits)
        want_hits += h;
    const int64_t total =
        int64_t(kWorkers) * kBatches * kBatchSize;
    EXPECT_EQ(cache.hits(), want_hits);
    EXPECT_EQ(cache.hits() + cache.misses(), total);
}

// ------------------------------------------------------ panel lifetime

TEST(FeaturePanel, OutlivesItsEngine)
{
    FeatureStore store(64, 12, 2, 5, true);
    std::vector<NodeId> nodes = {1, 5, 63, 5};
    const std::vector<float> want = legacy_gather(store, nodes);
    FeaturePanel panel;
    {
        GatherEngine engine(4);
        panel = engine.gather(store, nodes);
    } // engine (and its worker pool) destroyed here
    ASSERT_EQ(panel.rows(), 4);
    EXPECT_EQ(panel_hash(panel),
              fnv_bytes(want.data(), want.size() * sizeof(float)));
    panel.release(); // arena returns to the orphaned pool: no crash
    EXPECT_EQ(panel.rows(), 0);
    EXPECT_EQ(panel.data(), nullptr);
}

TEST(FeaturePanel, MoveTransfersTheLeaseWithoutCopying)
{
    FeatureStore store(32, 8, 2, 5, true);
    GatherEngine engine;
    FeaturePanel a = engine.gather(store, {{3, 7}});
    const float *bytes = a.data();
    FeaturePanel b = std::move(a);
    EXPECT_EQ(b.data(), bytes); // same storage, no copy
    EXPECT_EQ(b.rows(), 2);
}

// ------------------------------------------------- tensor view bridge

TEST(TensorView, ViewReadsAndWritesExternalStorage)
{
    std::vector<float> storage = {1, 2, 3, 4, 5, 6};
    compute::Tensor v = compute::Tensor::view(storage.data(), 2, 3);
    EXPECT_TRUE(v.is_view());
    EXPECT_EQ(v.at(1, 2), 6.0f);
    v.at(0, 0) = 42.0f; // writes land in the external buffer
    EXPECT_EQ(storage[0], 42.0f);
}

TEST(TensorView, CopyingAViewDeepCopies)
{
    // GAT's forward saves its input by copy-assignment; a view copy
    // must therefore materialise, never alias soon-recycled panels.
    std::vector<float> storage = {1, 2, 3, 4};
    compute::Tensor v = compute::Tensor::view(storage.data(), 2, 2);
    compute::Tensor copy = v;
    EXPECT_FALSE(copy.is_view());
    storage[0] = 99.0f;
    EXPECT_EQ(copy.at(0, 0), 1.0f); // owns its bytes
    compute::Tensor assigned;
    assigned = v;
    EXPECT_FALSE(assigned.is_view());
    EXPECT_EQ(assigned.at(0, 0), 99.0f);
}

TEST(TensorView, MovePreservesViewness)
{
    std::vector<float> storage = {1, 2};
    compute::Tensor v = compute::Tensor::view(storage.data(), 1, 2);
    compute::Tensor moved = std::move(v);
    EXPECT_TRUE(moved.is_view());
    EXPECT_EQ(moved.data(), storage.data());
}

} // namespace
} // namespace fastgl
