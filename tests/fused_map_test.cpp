/**
 * @file
 * Property tests for the Fused-Map lock-free hash table (Algorithm 2).
 *
 * The core claims: (1) every distinct global ID receives exactly one local
 * ID; (2) local IDs are dense in [0, uniques); (3) this holds under real
 * multi-threaded insertion; (4) linear probing resolves collisions; (5)
 * the single-writer IdMap the samplers use answers and probes exactly as
 * a sequentially fed FusedHashTable does.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "sample/fused_hash_table.h"
#include "sample/id_map.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace {

TEST(FusedHashTable, SequentialInsertAssignsInsertionOrder)
{
    sample::FusedHashTable table(16);
    EXPECT_TRUE(table.insert(100));
    EXPECT_TRUE(table.insert(200));
    EXPECT_FALSE(table.insert(100)); // duplicate: Flag == True path
    EXPECT_TRUE(table.insert(300));
    EXPECT_EQ(table.size(), 3);
    EXPECT_EQ(table.lookup(100), 0);
    EXPECT_EQ(table.lookup(200), 1);
    EXPECT_EQ(table.lookup(300), 2);
    EXPECT_EQ(table.lookup(999), graph::kInvalidNode);
}

TEST(FusedHashTable, LocalToGlobalIsExactInverse)
{
    sample::FusedHashTable table(64);
    std::vector<graph::NodeId> inserted = {5, 17, 3, 99, 42, 7};
    for (graph::NodeId g : inserted)
        table.insert(g);
    const auto l2g = table.local_to_global();
    ASSERT_EQ(l2g.size(), inserted.size());
    EXPECT_EQ(l2g, inserted); // sequential: insertion order
    for (size_t i = 0; i < l2g.size(); ++i)
        EXPECT_EQ(table.lookup(l2g[i]), graph::NodeId(i));
}

TEST(FusedHashTable, ResetClearsEverything)
{
    sample::FusedHashTable table(16);
    table.insert(1);
    table.insert(2);
    table.reset(16);
    EXPECT_EQ(table.size(), 0);
    EXPECT_EQ(table.probes(), 0u); // before lookups, which also probe
    EXPECT_EQ(table.lookup(1), graph::kInvalidNode);
}

TEST(FusedHashTable, ResetGrowsCapacity)
{
    sample::FusedHashTable table(4);
    const size_t before = table.capacity();
    table.reset(100000);
    EXPECT_GT(table.capacity(), before);
}

TEST(FusedHashTable, CollisionsResolvedByLinearProbing)
{
    // Tiny table forces collisions; all keys must still be found.
    sample::FusedHashTable table(8);
    std::vector<graph::NodeId> keys;
    for (graph::NodeId g = 0; g < 12; ++g)
        keys.push_back(g * 1000 + 7);
    for (graph::NodeId g : keys)
        EXPECT_TRUE(table.insert(g));
    std::set<graph::NodeId> locals;
    for (graph::NodeId g : keys) {
        const graph::NodeId local = table.lookup(g);
        EXPECT_NE(local, graph::kInvalidNode);
        locals.insert(local);
    }
    // Dense bijection.
    EXPECT_EQ(int64_t(locals.size()), table.size());
    EXPECT_EQ(*locals.begin(), 0);
    EXPECT_EQ(*locals.rbegin(), table.size() - 1);
}

TEST(FusedHashTable, ProbesCounted)
{
    sample::FusedHashTable table(1024);
    table.insert(1);
    EXPECT_GE(table.probes(), 1u);
}

/** Concurrent property test, parameterized by thread count. */
class FusedMapConcurrency : public ::testing::TestWithParam<int> {};

TEST_P(FusedMapConcurrency, ParallelInsertIsDenseBijection)
{
    const int threads = GetParam();
    util::ThreadPool pool(threads);
    util::Rng rng(2024);

    // Instance stream with heavy duplication (like sampled neighbours).
    constexpr size_t kInstances = 200000;
    constexpr uint64_t kUniverse = 20000;
    std::vector<graph::NodeId> stream(kInstances);
    for (auto &g : stream)
        g = static_cast<graph::NodeId>(rng.next_below(kUniverse));

    std::unordered_set<graph::NodeId> distinct(stream.begin(),
                                               stream.end());

    sample::FusedHashTable table(kInstances);
    table.insert_stream_parallel(stream, pool);

    // (1) unique count is exact.
    ASSERT_EQ(table.size(), int64_t(distinct.size()));

    // (2) every inserted global resolves to a local in range, and the
    // mapping is injective.
    std::vector<bool> seen(distinct.size(), false);
    for (graph::NodeId g : distinct) {
        const graph::NodeId local = table.lookup(g);
        ASSERT_GE(local, 0);
        ASSERT_LT(local, table.size());
        ASSERT_FALSE(seen[static_cast<size_t>(local)])
            << "two globals share local " << local;
        seen[static_cast<size_t>(local)] = true;
    }

    // (3) local_to_global is the exact inverse.
    const auto l2g = table.local_to_global();
    for (size_t local = 0; local < l2g.size(); ++local) {
        ASSERT_NE(l2g[local], graph::kInvalidNode);
        ASSERT_EQ(table.lookup(l2g[local]), graph::NodeId(local));
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, FusedMapConcurrency,
                         ::testing::Values(1, 2, 4, 8));

TEST(FusedHashTable, ParallelAndSequentialAgreeOnUniqueCount)
{
    util::Rng rng(7);
    std::vector<graph::NodeId> stream(50000);
    for (auto &g : stream)
        g = static_cast<graph::NodeId>(rng.next_below(6000));

    sample::FusedHashTable seq(stream.size());
    seq.insert_stream(stream);

    util::ThreadPool pool(4);
    sample::FusedHashTable par(stream.size());
    par.insert_stream_parallel(stream, pool);

    EXPECT_EQ(seq.size(), par.size());
    // Same *set* of globals even if local IDs were raced differently.
    auto a = seq.local_to_global();
    auto b = par.local_to_global();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
}

// The probe counts feed the modelled ID-map seconds, so the plain map
// must walk exactly the concurrent table's probe sequence: same answer
// from every call, same probes() after it, across a reset that keeps
// the slot count and one that grows it.
TEST(IdMap, MatchesSequentialFusedHashTable)
{
    util::Rng rng(11);
    sample::IdMap id(1000);
    sample::FusedHashTable fused(1000);
    auto expect_same_state = [&] {
        EXPECT_EQ(id.size(), fused.size());
        EXPECT_EQ(id.probes(), fused.probes());
        EXPECT_EQ(id.capacity(), fused.capacity());
        EXPECT_EQ(id.local_to_global(), fused.local_to_global());
    };
    for (size_t hint : {1000, 1000, 4000}) {
        id.reset(hint);
        fused.reset(hint);
        ASSERT_EQ(id.capacity(), fused.capacity());
        // Half the universe of keys gets inserted; lookups draw from
        // all of it, so about half of them miss.
        const uint64_t universe = hint;
        for (size_t op = 0; op < hint; ++op) {
            const auto key =
                static_cast<graph::NodeId>(rng.next_below(universe));
            switch (rng.next_below(3)) {
            case 0:
                ASSERT_EQ(id.insert(key), fused.insert(key)) << key;
                break;
            case 1: {
                const bool fresh = fused.insert(key);
                const int64_t before = id.size();
                const graph::NodeId local = id.find_or_insert(key);
                ASSERT_EQ(local == before, fresh) << key;
                ASSERT_EQ(id.probes(), fused.probes());
                ASSERT_EQ(local, fused.lookup(key)) << key;
                ASSERT_EQ(local, id.lookup(key)) << key;
                break;
            }
            default: {
                const auto probe = static_cast<graph::NodeId>(
                    rng.next_below(2 * universe));
                ASSERT_EQ(id.lookup(probe), fused.lookup(probe)) << probe;
                break;
            }
            }
            ASSERT_EQ(id.probes(), fused.probes()) << "op " << op;
        }
        expect_same_state();
    }
}

} // namespace
} // namespace fastgl
