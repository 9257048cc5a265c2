/**
 * @file
 * Tests for the extension samplers (paper Section 7: Fused-Map serves
 * "diverse sampling algorithms"): layer-wise importance sampling,
 * GraphSAINT node/edge subgraphs, ClusterGCN partition batches, and the
 * shared induced-subgraph builder.
 */
#include <gtest/gtest.h>

#include <unordered_set>

#include "compute/gnn_model.h"
#include "compute/loss.h"
#include "graph/generators.h"
#include "sample/cluster_sampler.h"
#include "sample/layer_sampler.h"
#include "sample/saint_sampler.h"
#include "sample/subgraph_inducer.h"
#include "util/rng.h"

namespace fastgl {
namespace {

const graph::CsrGraph &
test_graph()
{
    static graph::CsrGraph g = [] {
        graph::RmatParams params;
        params.num_nodes = 6000;
        params.num_edges = 60000;
        params.seed = 55;
        return graph::generate_rmat(params);
    }();
    return g;
}

/** Shared structural checks for any SampledSubgraph. */
void
check_structure(const sample::SampledSubgraph &sg)
{
    std::unordered_set<graph::NodeId> uniq;
    for (graph::NodeId u : sg.nodes)
        ASSERT_TRUE(uniq.insert(u).second);
    for (const auto &blk : sg.blocks) {
        ASSERT_EQ(blk.indptr.front(), 0);
        ASSERT_EQ(blk.indptr.back(), blk.num_edges());
        for (graph::NodeId src : blk.sources) {
            ASSERT_GE(src, 0);
            ASSERT_LT(src, sg.num_nodes());
        }
    }
    ASSERT_EQ(sg.id_map.uniques, sg.num_nodes());
    ASSERT_GE(sg.id_map.probes, sg.id_map.uniques);
    ASSERT_GT(sg.instances, 0);
}

TEST(SubgraphInducer, KeepsOnlyInSetEdges)
{
    const auto &g = test_graph();
    std::vector<graph::NodeId> members = {1, 2, 3, 4, 5, 100, 200};
    sample::IdMap table(16);
    const auto sg = sample::induce_subgraph(g, members, 2, table);
    check_structure(sg);
    EXPECT_EQ(sg.num_nodes(), 7);
    EXPECT_EQ(sg.num_seeds, 7);
    ASSERT_EQ(sg.blocks.size(), 2u);

    const std::unordered_set<graph::NodeId> set(members.begin(),
                                                members.end());
    const auto &blk = sg.blocks[0];
    for (int64_t t = 0; t < blk.num_targets(); ++t) {
        const graph::NodeId gu = sg.nodes[size_t(t)];
        for (graph::EdgeId e = blk.indptr[t]; e < blk.indptr[t + 1];
             ++e) {
            const graph::NodeId gv = sg.nodes[size_t(blk.sources[e])];
            EXPECT_TRUE(set.count(gv));
            if (gv != gu) {
                // Must be a real graph edge.
                const auto nbrs = g.neighbors(gu);
                EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), gv) !=
                            nbrs.end());
            }
        }
    }
}

TEST(SubgraphInducer, DuplicateMembersCollapse)
{
    const auto &g = test_graph();
    std::vector<graph::NodeId> members = {7, 7, 7, 8};
    sample::IdMap table(8);
    const auto sg = sample::induce_subgraph(g, members, 1, table);
    EXPECT_EQ(sg.num_nodes(), 2);
    EXPECT_EQ(sg.instances, 4); // all member instances counted
}

TEST(LayerSampler, RespectsLayerBudgets)
{
    const auto &g = test_graph();
    sample::LayerSamplerOptions opts;
    opts.layer_sizes = {128, 64, 32};
    opts.seed = 4;
    sample::LayerSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds = {1, 10, 20, 30};
    const auto sg = sampler.sample(seeds);
    check_structure(sg);
    ASSERT_EQ(sg.blocks.size(), 3u);
    EXPECT_EQ(sg.num_seeds, 4);

    // Per-hop unique growth is bounded by the budget: nodes after hop h
    // grow by at most layer_sizes[hops-1-h].
    int64_t prev = sg.num_seeds;
    for (int h = 0; h < 3; ++h) {
        const int64_t budget = opts.layer_sizes[size_t(2 - h)];
        const int64_t now = sg.blocks[size_t(h)].num_targets();
        EXPECT_LE(now - prev, budget) << "hop " << h;
        prev = now;
    }
    EXPECT_LE(sg.num_nodes() - prev,
              int64_t(opts.layer_sizes.front()));
}

TEST(LayerSampler, MonotoneFrontierWorksWithGnnModel)
{
    const auto &g = test_graph();
    sample::LayerSamplerOptions opts;
    opts.layer_sizes = {96, 48};
    opts.seed = 5;
    sample::LayerSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds = {2, 4, 6, 8};
    const auto sg = sampler.sample(seeds);

    compute::ModelConfig cfg;
    cfg.in_dim = 8;
    cfg.hidden_dim = 12;
    cfg.num_classes = 3;
    cfg.num_layers = 2;
    compute::GnnModel model(cfg);
    util::Rng rng(1);
    compute::Tensor x =
        compute::Tensor::randn(sg.num_nodes(), 8, rng, 1.0f);
    compute::Tensor logits = model.forward(sg, x);
    EXPECT_EQ(logits.rows(), 4);
    // And backward runs without structural violations.
    std::vector<int> labels = {0, 1, 2, 0};
    const auto loss = compute::softmax_cross_entropy(logits, labels);
    model.zero_grad();
    model.backward(sg, loss.grad_logits);
}

TEST(LayerSampler, Deterministic)
{
    const auto &g = test_graph();
    sample::LayerSamplerOptions opts;
    opts.seed = 6;
    sample::LayerSampler a(g, opts), b(g, opts);
    std::vector<graph::NodeId> seeds = {5, 15, 25};
    EXPECT_EQ(a.sample(seeds).nodes, b.sample(seeds).nodes);
}

class SaintMethodProperty
    : public ::testing::TestWithParam<sample::SaintMethod> {};

TEST_P(SaintMethodProperty, ProducesValidInducedSubgraph)
{
    const auto &g = test_graph();
    sample::SaintSamplerOptions opts;
    opts.method = GetParam();
    opts.budget = 500;
    opts.num_layers = 3;
    opts.seed = 7;
    sample::SaintSampler sampler(g, opts);
    const auto sg = sampler.sample();
    check_structure(sg);
    ASSERT_EQ(sg.blocks.size(), 3u);
    EXPECT_EQ(sg.num_seeds, sg.num_nodes()); // all members are seeds
    EXPECT_GT(sg.num_nodes(), 50);
    EXPECT_LE(sg.num_nodes(),
              opts.method == sample::SaintMethod::kNode
                  ? opts.budget
                  : 2 * opts.budget);
    // Blocks are identical at every layer.
    EXPECT_EQ(sg.blocks[0].sources, sg.blocks[2].sources);
}

TEST_P(SaintMethodProperty, ConsecutiveDrawsDiffer)
{
    const auto &g = test_graph();
    sample::SaintSamplerOptions opts;
    opts.method = GetParam();
    opts.budget = 300;
    opts.seed = 8;
    sample::SaintSampler sampler(g, opts);
    const auto a = sampler.sample();
    const auto b = sampler.sample();
    EXPECT_NE(a.nodes, b.nodes);
}

INSTANTIATE_TEST_SUITE_P(Methods, SaintMethodProperty,
                         ::testing::Values(sample::SaintMethod::kNode,
                                           sample::SaintMethod::kEdge),
                         [](const auto &info) {
                             return info.param ==
                                            sample::SaintMethod::kNode
                                        ? "Node"
                                        : "Edge";
                         });

TEST(ClusterSampler, BatchesAreUnionsOfPartitions)
{
    const auto &g = test_graph();
    sample::ClusterSamplerOptions opts;
    opts.num_parts = 8;
    opts.parts_per_batch = 2;
    opts.num_layers = 2;
    opts.seed = 9;
    sample::ClusterSampler sampler(g, opts);

    const int clusters[] = {1, 3};
    const auto sg = sampler.sample_clusters(clusters);
    check_structure(sg);
    const auto &parts = sampler.partitioning();
    const size_t expected = parts.members[1].size() +
                            parts.members[3].size();
    EXPECT_EQ(size_t(sg.num_nodes()), expected);
    for (graph::NodeId u : sg.nodes) {
        const int p = parts.part_of[size_t(u)];
        EXPECT_TRUE(p == 1 || p == 3);
    }
}

TEST(ClusterSampler, RandomBatchesAreValid)
{
    const auto &g = test_graph();
    sample::ClusterSamplerOptions opts;
    opts.num_parts = 16;
    opts.parts_per_batch = 3;
    opts.seed = 10;
    sample::ClusterSampler sampler(g, opts);
    for (int i = 0; i < 5; ++i) {
        const auto sg = sampler.sample();
        check_structure(sg);
        EXPECT_GT(sg.num_nodes(), 0);
    }
}

TEST(ClusterSampler, IntraClusterEdgesDominateCut)
{
    // The whole point of ClusterGCN: the induced batch retains most of
    // its members' edges. Verify the retained fraction beats random
    // grouping (2 of 16 parts -> random retention ~12.5%).
    const auto &g = test_graph();
    sample::ClusterSamplerOptions opts;
    opts.num_parts = 16;
    opts.parts_per_batch = 2;
    opts.seed = 11;
    sample::ClusterSampler sampler(g, opts);
    const auto sg = sampler.sample();
    int64_t member_degree = 0;
    for (graph::NodeId u : sg.nodes)
        member_degree += g.degree(u);
    const int64_t retained =
        sg.blocks[0].num_edges() - sg.num_nodes(); // minus self loops
    EXPECT_GT(double(retained) / double(member_degree), 0.125);
}

} // namespace
} // namespace fastgl
