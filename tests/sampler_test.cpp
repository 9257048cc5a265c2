/**
 * @file
 * Tests for the k-hop neighbour sampler, the random-walk sampler and the
 * batch splitter: structural invariants every sampled subgraph must hold.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_set>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sample/batch_splitter.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "util/rng.h"

namespace fastgl {
namespace {

graph::CsrGraph
test_graph()
{
    graph::RmatParams params;
    params.num_nodes = 4000;
    params.num_edges = 40000;
    params.seed = 77;
    return graph::generate_rmat(params);
}

/** Validate every invariant of a sampled subgraph. */
void
check_subgraph(const sample::SampledSubgraph &sg,
               const graph::CsrGraph &g, size_t num_seeds, int hops)
{
    // Seeds occupy the first local IDs.
    ASSERT_GE(sg.num_nodes(), int64_t(num_seeds));
    EXPECT_EQ(sg.num_seeds, int64_t(num_seeds));
    EXPECT_EQ(int(sg.blocks.size()), hops);

    // nodes[] are unique, valid global IDs.
    std::unordered_set<graph::NodeId> uniq;
    for (graph::NodeId u : sg.nodes) {
        EXPECT_GE(u, 0);
        EXPECT_LT(u, g.num_nodes());
        EXPECT_TRUE(uniq.insert(u).second) << "duplicate node " << u;
    }

    // Monotone frontier: block h has exactly the first n_h nodes as
    // targets, sources stay within local-ID range.
    int64_t prev_targets = sg.num_seeds;
    for (int h = 0; h < hops; ++h) {
        const auto &blk = sg.blocks[h];
        EXPECT_GE(blk.num_targets(), prev_targets);
        EXPECT_EQ(blk.indptr.front(), 0);
        EXPECT_EQ(blk.indptr.back(), blk.num_edges());
        for (size_t t = 0; t + 1 < blk.indptr.size(); ++t)
            EXPECT_LE(blk.indptr[t], blk.indptr[t + 1]);
        for (graph::NodeId src : blk.sources) {
            EXPECT_GE(src, 0);
            EXPECT_LT(src, sg.num_nodes());
        }
        for (int64_t t = 0; t < blk.num_targets(); ++t)
            EXPECT_EQ(blk.targets[t], t);
        prev_targets = blk.num_targets();
    }

    EXPECT_GT(sg.instances, 0);
    EXPECT_EQ(sg.id_map.uniques, sg.num_nodes());
    EXPECT_GE(sg.id_map.probes, sg.id_map.uniques);
}

/** Edges in the block must be real graph edges (or self loops). */
void
check_edges_exist(const sample::SampledSubgraph &sg,
                  const graph::CsrGraph &g)
{
    for (const auto &blk : sg.blocks) {
        for (int64_t t = 0; t < blk.num_targets(); ++t) {
            const graph::NodeId gu = sg.nodes[static_cast<size_t>(t)];
            const auto nbrs = g.neighbors(gu);
            const std::set<graph::NodeId> nbr_set(nbrs.begin(),
                                                  nbrs.end());
            for (graph::EdgeId e = blk.indptr[t]; e < blk.indptr[t + 1];
                 ++e) {
                const graph::NodeId gv =
                    sg.nodes[static_cast<size_t>(blk.sources[e])];
                EXPECT_TRUE(gv == gu || nbr_set.count(gv))
                    << gv << " is not a neighbour of " << gu;
            }
        }
    }
}

class FanoutProperty
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(FanoutProperty, SubgraphInvariantsHold)
{
    graph::CsrGraph g = test_graph();
    sample::NeighborSamplerOptions opts;
    opts.fanouts = GetParam();
    opts.seed = 5;
    sample::NeighborSampler sampler(g, opts);

    std::vector<graph::NodeId> seeds = {1, 5, 9, 100, 250, 1033};
    sample::SampledSubgraph sg = sampler.sample(seeds);
    check_subgraph(sg, g, seeds.size(), int(opts.fanouts.size()));
    check_edges_exist(sg, g);
}

TEST_P(FanoutProperty, FanoutBoundsRespected)
{
    graph::CsrGraph g = test_graph();
    sample::NeighborSamplerOptions opts;
    opts.fanouts = GetParam();
    opts.seed = 6;
    sample::NeighborSampler sampler(g, opts);

    std::vector<graph::NodeId> seeds = {10, 20, 30};
    sample::SampledSubgraph sg = sampler.sample(seeds);
    const int hops = int(opts.fanouts.size());
    for (int h = 0; h < hops; ++h) {
        const int fanout = opts.fanouts[size_t(hops - 1 - h)];
        const auto &blk = sg.blocks[size_t(h)];
        for (int64_t t = 0; t < blk.num_targets(); ++t) {
            const graph::EdgeId deg = blk.indptr[t + 1] - blk.indptr[t];
            // At most fanout sampled + 1 self edge.
            EXPECT_LE(deg, fanout + 1);
            EXPECT_GE(deg, 1); // the self edge at minimum
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperFanouts, FanoutProperty,
    ::testing::Values(std::vector<int>{5}, std::vector<int>{5, 10},
                      std::vector<int>{5, 10, 15},
                      std::vector<int>{5, 5, 10, 10}));

TEST(NeighborSampler, DeterministicForSameSeed)
{
    graph::CsrGraph g = test_graph();
    sample::NeighborSamplerOptions opts;
    opts.seed = 42;
    std::vector<graph::NodeId> seeds = {7, 13, 77};
    sample::NeighborSampler a(g, opts), b(g, opts);
    const auto sa = a.sample(seeds);
    const auto sb = b.sample(seeds);
    EXPECT_EQ(sa.nodes, sb.nodes);
    EXPECT_EQ(sa.instances, sb.instances);
    for (size_t h = 0; h < sa.blocks.size(); ++h)
        EXPECT_EQ(sa.blocks[h].sources, sb.blocks[h].sources);
}

TEST(NeighborSampler, SelfLoopPresentForEveryTarget)
{
    graph::CsrGraph g = test_graph();
    sample::NeighborSamplerOptions opts;
    opts.fanouts = {5, 10};
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds = {3, 4, 5};
    const auto sg = sampler.sample(seeds);
    for (const auto &blk : sg.blocks) {
        for (int64_t t = 0; t < blk.num_targets(); ++t) {
            bool self = false;
            for (graph::EdgeId e = blk.indptr[t]; e < blk.indptr[t + 1];
                 ++e) {
                if (blk.sources[e] == t)
                    self = true;
            }
            EXPECT_TRUE(self) << "no self edge for target " << t;
        }
    }
}

/**
 * A seeded random multigraph: the last eighth of its nodes are isolated,
 * node 0 is a hub whose degree exceeds every fanout up to
 * @p max_fanout, and the other edges are random, duplicates and self
 * edges kept.
 */
graph::CsrGraph
random_multigraph(uint64_t seed, int max_fanout)
{
    util::Rng rng(seed);
    const auto n = static_cast<graph::NodeId>(40 + rng.next_below(200));
    const graph::NodeId linked = n - n / 8;
    auto any_linked = [&] {
        return static_cast<graph::NodeId>(
            rng.next_below(static_cast<uint64_t>(linked)));
    };
    graph::GraphBuilder builder(n);
    for (int k = 0; k < 3 * max_fanout; ++k)
        builder.add_edge(0, any_linked());
    const auto edges = linked * static_cast<graph::NodeId>(
                                    1 + rng.next_below(6));
    for (graph::NodeId e = 0; e < edges; ++e)
        builder.add_edge(any_linked(), any_linked());
    return builder.build(/*dedup=*/false);
}

// The structural checks above, over many graphs instead of one. Without
// replacement a target picks min(degree, fanout) distinct adjacency
// positions, so no neighbour appears among its picks more often than in
// its adjacency list; with replacement it draws exactly fanout times.
TEST(NeighborSampler, PropertiesHoldOnRandomGraphs)
{
    constexpr int kMaxFanout = 8;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const graph::CsrGraph g = random_multigraph(seed, kMaxFanout);
        util::Rng rng(seed * 31);
        sample::NeighborSamplerOptions opts;
        opts.fanouts.resize(1 + rng.next_below(3));
        for (int &fanout : opts.fanouts)
            fanout = static_cast<int>(1 + rng.next_below(kMaxFanout));
        // Distinct seeds, always with the hub and an isolated node.
        std::set<graph::NodeId> seed_set = {0, g.num_nodes() - 1};
        while (seed_set.size() < 12) {
            seed_set.insert(static_cast<graph::NodeId>(
                rng.next_below(static_cast<uint64_t>(g.num_nodes()))));
        }
        const std::vector<graph::NodeId> seeds(seed_set.begin(),
                                               seed_set.end());
        for (bool replace : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "graph seed " << seed << " replace "
                         << replace);
            opts.replace = replace;
            sample::NeighborSampler sampler(g, opts);
            const auto sg = sampler.sample(seeds, seed);
            const int hops = static_cast<int>(opts.fanouts.size());
            check_subgraph(sg, g, seeds.size(), hops);
            check_edges_exist(sg, g);
            for (int h = 0; h < hops; ++h) {
                const int fanout = opts.fanouts[size_t(hops - 1 - h)];
                const auto &blk = sg.blocks[size_t(h)];
                for (int64_t t = 0; t < blk.num_targets(); ++t) {
                    const auto nbrs = g.neighbors(sg.nodes[size_t(t)]);
                    const auto deg = static_cast<int64_t>(nbrs.size());
                    const int64_t picks = replace
                                              ? (deg > 0 ? fanout : 0)
                                              : std::min<int64_t>(
                                                    deg, fanout);
                    // The row's last source is the added self edge.
                    ASSERT_EQ(blk.indptr[t + 1] - blk.indptr[t],
                              picks + 1);
                    ASSERT_EQ(blk.sources[blk.indptr[t + 1] - 1], t);
                    if (replace)
                        continue;
                    std::map<graph::NodeId, int> adjacency, picked;
                    for (graph::NodeId v : nbrs)
                        ++adjacency[v];
                    for (graph::EdgeId e = blk.indptr[t];
                         e + 1 < blk.indptr[t + 1]; ++e)
                        ++picked[sg.nodes[size_t(blk.sources[e])]];
                    for (const auto &[v, count] : picked)
                        ASSERT_LE(count, adjacency[v])
                            << v << " picked by target " << t;
                }
            }
        }
    }
}

TEST(NeighborSampler, HighOverlapAcrossBatchesOnDenseGraph)
{
    // The Match-Reorder premise: consecutive batches overlap heavily on
    // dense graphs (paper Table 4, Reddit 93%).
    graph::CsrGraph g = test_graph();
    sample::NeighborSamplerOptions opts;
    opts.seed = 3;
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> s1, s2;
    for (graph::NodeId u = 0; u < 200; ++u)
        s1.push_back(u);
    for (graph::NodeId u = 200; u < 400; ++u)
        s2.push_back(u);
    const auto a = sampler.sample(s1);
    const auto b = sampler.sample(s2);
    std::unordered_set<graph::NodeId> sa(a.nodes.begin(), a.nodes.end());
    int64_t overlap = 0;
    for (graph::NodeId u : b.nodes)
        overlap += sa.count(u);
    const double m =
        double(overlap) /
        double(std::min(a.nodes.size(), b.nodes.size()));
    EXPECT_GT(m, 0.3);
}

TEST(RandomWalkSampler, SingleBlockInvariants)
{
    graph::CsrGraph g = test_graph();
    sample::RandomWalkOptions opts;
    opts.seed = 9;
    sample::RandomWalkSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds = {1, 2, 3, 4, 50};
    const auto sg = sampler.sample(seeds);
    ASSERT_EQ(sg.blocks.size(), 1u);
    EXPECT_EQ(sg.num_seeds, 5);
    EXPECT_EQ(sg.blocks[0].num_targets(), 5);
    // Top-k bound: at most top_k walk destinations + self.
    for (int64_t t = 0; t < 5; ++t) {
        const auto deg =
            sg.blocks[0].indptr[t + 1] - sg.blocks[0].indptr[t];
        EXPECT_LE(deg, opts.top_k + 1);
        EXPECT_GE(deg, 1);
    }
    for (graph::NodeId src : sg.blocks[0].sources) {
        EXPECT_GE(src, 0);
        EXPECT_LT(src, sg.num_nodes());
    }
    EXPECT_GT(sg.edges_examined, 0);
}

TEST(RandomWalkSampler, SourcesAreWalkReachable)
{
    // Regression test: every sampled source must be reachable from its
    // seed within walk_length hops (an earlier bug inserted visit counts
    // as node IDs, which passed range checks but were not walk nodes).
    graph::CsrGraph g = test_graph();
    sample::RandomWalkOptions opts;
    opts.seed = 10;
    sample::RandomWalkSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds = {100, 2000};
    const auto sg = sampler.sample(seeds);

    for (int64_t t = 0; t < sg.num_seeds; ++t) {
        const graph::NodeId seed = sg.nodes[size_t(t)];
        // BFS ball of radius walk_length around the seed.
        std::unordered_set<graph::NodeId> ball = {seed};
        std::vector<graph::NodeId> frontier = {seed};
        for (int hop = 0; hop < opts.walk_length; ++hop) {
            std::vector<graph::NodeId> next;
            for (graph::NodeId u : frontier) {
                for (graph::NodeId v : g.neighbors(u)) {
                    if (ball.insert(v).second)
                        next.push_back(v);
                }
            }
            frontier = std::move(next);
        }
        const auto &blk = sg.blocks[0];
        for (graph::EdgeId e = blk.indptr[t]; e < blk.indptr[t + 1];
             ++e) {
            const graph::NodeId gv =
                sg.nodes[size_t(blk.sources[e])];
            EXPECT_TRUE(ball.count(gv))
                << gv << " not walk-reachable from seed " << seed;
        }
    }
}

TEST(RandomWalkSampler, VisitsSpreadBeyondSeeds)
{
    // A healthy walk neighbourhood contains far more distinct non-seed
    // nodes than seeds on a large graph.
    graph::CsrGraph g = test_graph();
    sample::RandomWalkOptions opts;
    opts.seed = 12;
    sample::RandomWalkSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds;
    for (graph::NodeId u = 0; u < 100; ++u)
        seeds.push_back(u * 31 + 5);
    const auto sg = sampler.sample(seeds);
    EXPECT_GT(sg.num_nodes(), 3 * int64_t(seeds.size()));
}

TEST(RandomWalkSampler, Deterministic)
{
    graph::CsrGraph g = test_graph();
    sample::RandomWalkOptions opts;
    opts.seed = 11;
    sample::RandomWalkSampler a(g, opts), b(g, opts);
    std::vector<graph::NodeId> seeds = {10, 11, 12};
    EXPECT_EQ(a.sample(seeds).nodes, b.sample(seeds).nodes);
}

TEST(BatchSplitter, CoversAllNodesExactlyOncePerEpoch)
{
    std::vector<graph::NodeId> nodes;
    for (graph::NodeId u = 0; u < 103; ++u)
        nodes.push_back(u);
    sample::BatchSplitter splitter(nodes, 10, 1);
    EXPECT_EQ(splitter.num_batches(), 11);
    splitter.shuffle_epoch();
    std::set<graph::NodeId> seen;
    for (int64_t b = 0; b < splitter.num_batches(); ++b) {
        for (graph::NodeId u : splitter.batch(b))
            EXPECT_TRUE(seen.insert(u).second);
    }
    EXPECT_EQ(seen.size(), nodes.size());
}

TEST(BatchSplitter, LastBatchMayBeShort)
{
    std::vector<graph::NodeId> nodes(25);
    for (graph::NodeId u = 0; u < 25; ++u)
        nodes[size_t(u)] = u;
    sample::BatchSplitter splitter(nodes, 10, 1);
    EXPECT_EQ(splitter.batch(0).size(), 10u);
    EXPECT_EQ(splitter.batch(2).size(), 5u);
}

TEST(BatchSplitter, ShuffleChangesOrderDeterministically)
{
    std::vector<graph::NodeId> nodes(100);
    for (graph::NodeId u = 0; u < 100; ++u)
        nodes[size_t(u)] = u;
    sample::BatchSplitter a(nodes, 100, 5), b(nodes, 100, 5);
    a.shuffle_epoch();
    b.shuffle_epoch();
    const auto ba = a.batch(0);
    const auto bb = b.batch(0);
    EXPECT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin()));
    // And shuffling actually permutes.
    bool moved = false;
    for (size_t i = 0; i < ba.size(); ++i)
        moved |= (ba[i] != graph::NodeId(i));
    EXPECT_TRUE(moved);
}

} // namespace
} // namespace fastgl
