/**
 * @file
 * Tests for the batched feature-gather fast path: bitwise equality of
 * match::GatherEngine against the legacy per-row gather_row loop at
 * several thread widths (fuzzed over ragged batches and awkward
 * dimensions), golden hashes pinning the pre-engine gather output,
 * FrequencyHashmap equivalence against a std::unordered_map reference
 * and against the legacy dense two-pass presample ranking, hoisted
 * bounds validation death tests, panel lifetime past engine
 * destruction, and the Tensor view-mode semantics the zero-copy
 * handoff relies on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "compute/tensor.h"
#include "graph/feature_store.h"
#include "match/feature_cache.h"
#include "match/gather_engine.h"
#include "sample/frequency_hashmap.h"
#include "util/fnv.h"
#include "util/isa.h"
#include "util/rng.h"

namespace fastgl {
namespace {

using graph::FeatureStore;
using graph::NodeId;
using match::FeaturePanel;
using match::GatherEngine;
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
    // The same engine (and therefore recycled buffers) across ragged
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

TEST(GatherEngine, SharedRowsGatherWritesWhatGatherWrites)
{
    // None, some or all rows taken from a shared panel, which holds
    // them in another order: every byte must be the one the per-row
    // gather_row loop writes, on materialised and on-demand stores, at
    // widths 1 and 4. With nothing shared this is gather() itself.
    util::Rng rng(0x5A4ED);
    for (const int dim : {1, 7, 200, 257}) {
        for (const bool materialize : {false, true}) {
            const FeatureStore store(3000, dim, 47, 0xC0 + dim,
                                     materialize);
            std::vector<std::vector<NodeId>> lists;
            for (size_t len = 0; len <= 17; ++len) {
                lists.emplace_back(len);
                for (NodeId &u : lists.back())
                    u = static_cast<NodeId>(rng.next_below(3000));
            }
            lists.emplace_back(1000);
            for (NodeId &u : lists.back())
                u = static_cast<NodeId>(rng.next_below(3000));
            for (const int threads : {1, 4}) {
                GatherEngine engine(threads);
                for (const std::vector<NodeId> &nodes : lists) {
                    const std::vector<float> want =
                        legacy_gather(store, nodes);
                    for (const char *share : {"none", "some", "all"}) {
                        const std::string_view mode = share;
                        std::vector<NodeId> shared_nodes;
                        std::vector<int64_t> rows(nodes.size(), -1);
                        for (size_t i = 0; i < nodes.size(); ++i) {
                            if (mode == "all" ||
                                (mode == "some" && rng.next_below(2))) {
                                rows[i] =
                                    static_cast<int64_t>(shared_nodes.size());
                                shared_nodes.push_back(nodes[i]);
                            }
                        }
                        std::reverse(shared_nodes.begin(),
                                     shared_nodes.end());
                        for (int64_t &r : rows) {
                            if (r >= 0)
                                r = static_cast<int64_t>(
                                        shared_nodes.size()) -
                                    1 - r;
                        }
                        const FeaturePanel shared =
                            engine.gather(store, shared_nodes);
                        const FeaturePanel got =
                            engine.gather(store, nodes, shared, rows);
                        ASSERT_EQ(got.rows(),
                                  static_cast<int64_t>(nodes.size()));
                        ASSERT_EQ(got.dim(), dim);
                        ASSERT_TRUE(want.empty() ||
                                    std::memcmp(got.data(), want.data(),
                                                got.bytes()) == 0)
                            << "dim=" << dim
                            << " materialized=" << materialize
                            << " threads=" << threads
                            << " rows=" << nodes.size()
                            << " share=" << share;
                    }
                }
            }
        }
    }
}

/** @p rows node IDs cycling through a store of @p n nodes. */
std::vector<NodeId>
cycling_nodes(int64_t rows, NodeId n)
{
    std::vector<NodeId> nodes(static_cast<size_t>(rows));
    for (size_t i = 0; i < nodes.size(); ++i)
        nodes[i] = static_cast<NodeId>(i % static_cast<size_t>(n));
    return nodes;
}

TEST(GatherEngine, PoolHoldsOneBufferWithinSlackOfTheLargestPanel)
{
    // Panels that grow, then shrink and grow again, one alive at a
    // time. The pool keeps one buffer no more than 1/8 larger than the
    // largest panel so far; it keeps none of the sizes it grew through.
    FeatureStore store(512, 64, 3, 11, true);
    GatherEngine engine;
    uint64_t largest = 0;
    for (const int64_t rows :
         {100, 160, 250, 400, 640, 1000, 1600, 2500, 4000, 300, 3900}) {
        const FeaturePanel panel =
            engine.gather(store, cycling_nodes(rows, 512));
        largest = std::max(largest, panel.bytes());
        EXPECT_GE(engine.pooled_bytes(), panel.bytes());
        EXPECT_LE(engine.pooled_bytes(), largest + largest / 8)
            << "rows=" << rows;
    }
}

TEST(GatherEngine, TwoLiveLeasesHoldTwoBuffers)
{
    // A producer gathers batch b+1 while its consumer still holds
    // batch b: two panels alive at a time hold two buffers, each
    // within the slack of the largest panel.
    FeatureStore store(512, 64, 3, 11, true);
    GatherEngine engine;
    uint64_t largest = 0;
    FeaturePanel held;
    for (const int64_t rows : {100, 400, 250, 1600, 900, 2500, 2400}) {
        FeaturePanel next = engine.gather(store, cycling_nodes(rows, 512));
        largest = std::max(largest, next.bytes());
        EXPECT_LE(engine.pooled_bytes(), 2 * (largest + largest / 8))
            << "rows=" << rows;
        held = std::move(next);
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

// ----------------------------------------------------- on-demand rows
//
// FNV digests of regenerated rows, pinned before the row generator ran
// rows side by side in SIMD lanes. Lists of every length from 1 to 17
// leave every ragged tail of a 4- or 8-lane group, also inside the
// shards of a 4-wide engine.

/** Digest of every panel @p engine gathers from @p store. */
uint64_t
on_demand_digest(const FeatureStore &store, GatherEngine &engine)
{
    const NodeId n = store.num_nodes();
    uint64_t h = util::kFnvOffset;
    for (NodeId len = 1; len <= 17; ++len) {
        std::vector<NodeId> nodes;
        for (NodeId i = 0; i < len; ++i)
            nodes.push_back((len * 131 + i * 977) % n);
        h = util::fnv(h, panel_hash(engine.gather(store, nodes)));
    }
    util::Rng rng(0xD1CE);
    std::vector<NodeId> random(1000);
    for (NodeId &u : random)
        u = static_cast<NodeId>(rng.next_below(static_cast<uint64_t>(n)));
    return util::fnv(h, panel_hash(engine.gather(store, random)));
}

TEST(FeatureStore, OnDemandRowsArePinned)
{
    struct Shape
    {
        int dim;
        int classes;
        uint64_t want;
    };
    const std::vector<Shape> shapes = {
        {1, 3, 0x2FC07939B4141238ULL},
        {7, 5, 0xFA59E31ECCB25C22ULL},
        {200, 47, 0xFE5F26AE85366225ULL},
        {257, 11, 0x682E8BDE73286775ULL},
    };
    for (const Shape &s : shapes) {
        const FeatureStore store(4000, s.dim, s.classes, 0x5EED + s.dim,
                                 /*materialize=*/false);
        for (const int threads : {1, 4}) {
            GatherEngine engine(threads);
            EXPECT_EQ(on_demand_digest(store, engine), s.want)
                << "dim=" << s.dim << " threads=" << threads;
        }
    }

    const FeatureStore materialized(3000, 200, 47, 0xFEA7);
    uint64_t h = util::kFnvOffset;
    for (NodeId u = 0; u < materialized.num_nodes(); ++u) {
        const std::span<const float> row = materialized.row(u);
        h = util::fnv(h, fnv_bytes(row.data(), row.size_bytes()));
    }
    EXPECT_EQ(h, 0xA7EC2E658CCC2ABBULL);
}

TEST(FeatureStore, EveryRowStampMatchesGatherRow)
{
    // Each stamp this CPU runs, called directly: FASTGL_KERNEL_ISA can
    // force base or avx2 only, so this is where avx512 is tested.
    util::Rng rng(0x57A3B);
    for (const int dim : {1, 7, 200, 257}) {
        const FeatureStore store(3000, dim, 47, 0xAB + dim,
                                 /*materialize=*/false);
        std::vector<std::vector<NodeId>> lists;
        for (size_t len = 0; len <= 17; ++len) {
            lists.emplace_back(len);
            for (NodeId &u : lists.back())
                u = static_cast<NodeId>(rng.next_below(3000));
        }
        lists.emplace_back(1000);
        for (NodeId &u : lists.back())
            u = static_cast<NodeId>(rng.next_below(3000));
        for (const std::vector<NodeId> &nodes : lists) {
            const std::vector<float> want = legacy_gather(store, nodes);
            for (const graph::RowStamp &stamp : graph::row_stamps()) {
                if (!stamp.supported)
                    continue;
                std::vector<float> got(want.size());
                store.gather_rows(nodes, got.data(), stamp);
                ASSERT_TRUE(want.empty() ||
                            std::memcmp(got.data(), want.data(),
                                        want.size() * sizeof(float)) == 0)
                    << stamp.isa << " dim=" << dim
                    << " rows=" << nodes.size();
            }
        }
    }
    std::string skipped;
    for (const graph::RowStamp &stamp : graph::row_stamps())
        if (!stamp.supported)
            skipped += std::string(skipped.empty() ? "" : " ") + stamp.isa;
    if (!skipped.empty()) {
        RecordProperty("skipped_row_stamps", skipped);
        std::printf("row stamps this CPU cannot run, skipped: %s\n",
                    skipped.c_str());
    }
}

TEST(FeatureStore, ForcedIsaSelectsItsRowStamp)
{
    const graph::RowStamp &selected = graph::selected_row_stamp();
    EXPECT_TRUE(selected.supported);
    const std::string_view isa = selected.isa;
    switch (util::forced_isa()) {
      case util::ForcedIsa::kBase:
        EXPECT_EQ(isa, "base");
        break;
      case util::ForcedIsa::kAvx2:
        EXPECT_EQ(isa, "avx2");
        break;
      case util::ForcedIsa::kNone:
        break;
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

TEST(GatherDeathTest, SharedRowsGatherPanicsOnABadSharedRow)
{
    FeatureStore store(50, 8, 2, 3, false);
    GatherEngine engine;
    const std::vector<NodeId> nodes = {1, 2, 3};
    const std::vector<NodeId> two = {4, 5};
    const FeaturePanel shared = engine.gather(store, two);
    const std::vector<int64_t> past_end = {0, -1, 2};
    EXPECT_DEATH(engine.gather(store, nodes, shared, past_end),
                 "shared row outside the shared panel");
    const std::vector<int64_t> too_short = {0, 1};
    EXPECT_DEATH(engine.gather(store, nodes, shared, too_short),
                 "one shared-row index per gathered node");
    FeatureStore wider(50, 9, 2, 3, false);
    const std::vector<int64_t> fine = {0, -1, 1};
    EXPECT_DEATH(engine.gather(wider, nodes, shared, fine),
                 "shared row outside the shared panel");
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
