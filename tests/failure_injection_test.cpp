/**
 * @file
 * Failure-injection tests: every FASTGL_CHECK guard must actually fire
 * on the invalid input it protects against (death tests), and the
 * CSV-export path must engage via the environment hook.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "compute/aggregate.h"
#include "compute/gnn_model.h"
#include "compute/loss.h"
#include "graph/csr_graph.h"
#include "graph/graph_builder.h"
#include "sample/batch_splitter.h"
#include "sample/fused_hash_table.h"
#include "sample/id_map.h"
#include "util/table.h"

namespace fastgl {
namespace {

using ::testing::KilledBySignal;

TEST(FailureInjection, CsrRejectsInconsistentArrays)
{
    EXPECT_DEATH(
        { graph::CsrGraph bad({0, 5}, {1, 2}); },
        "indptr end must equal indices size");
}

TEST(FailureInjection, CsrRejectsNonZeroStart)
{
    EXPECT_DEATH({ graph::CsrGraph bad({1, 2}, {0}); },
                 "indptr must start at 0");
}

TEST(FailureInjection, BuilderRejectsOutOfRangeEndpoints)
{
    graph::GraphBuilder builder(4);
    EXPECT_DEATH(builder.add_edge(0, 9), "dst out of range");
    EXPECT_DEATH(builder.add_edge(-1, 2), "src out of range");
}

TEST(FailureInjection, FusedHashTableRejectsNegativeIds)
{
    sample::FusedHashTable table(8);
    EXPECT_DEATH(table.insert(-5), "negative global ID");
}

TEST(FailureInjection, FusedHashTablePanicsWhenFull)
{
    // The minimum table has 16 slots; a 17th distinct key cannot fit.
    EXPECT_DEATH(
        {
            sample::FusedHashTable table(1);
            for (graph::NodeId g = 0; g < 40; ++g)
                table.insert(g * 7919 + 3);
        },
        "hash table is full");
}

TEST(FailureInjection, IdMapRejectsNegativeIds)
{
    sample::IdMap table(8);
    EXPECT_DEATH(table.insert(-5), "negative global ID");
    EXPECT_DEATH(table.find_or_insert(-1), "negative global ID");
}

TEST(FailureInjection, IdMapPanicsWhenFull)
{
    // The minimum table has 16 slots; a 17th distinct key cannot fit.
    EXPECT_DEATH(
        {
            sample::IdMap table(1);
            for (graph::NodeId g = 0; g < 40; ++g)
                table.insert(g * 7919 + 3);
        },
        "hash table is full");
}

TEST(FailureInjection, BatchSplitterRejectsEmptyAndZeroBatch)
{
    std::vector<graph::NodeId> nodes = {1, 2, 3};
    EXPECT_DEATH(sample::BatchSplitter({}, 4, 1), "no training nodes");
    EXPECT_DEATH(sample::BatchSplitter(nodes, 0, 1),
                 "batch size must be positive");
}

TEST(FailureInjection, GnnModelRejectsUnresolvedConfig)
{
    compute::ModelConfig cfg; // in_dim/num_classes left at 0
    EXPECT_DEATH(compute::GnnModel model(cfg),
                 "must be resolved before building");
}

TEST(FailureInjection, AggregateRejectsShapeMismatch)
{
    sample::LayerBlock blk;
    blk.targets = {0};
    blk.indptr = {0, 1};
    blk.sources = {0};
    std::vector<float> weights = {1.0f};
    compute::Tensor in(1, 4);
    compute::Tensor out(2, 4); // wrong target count
    EXPECT_DEATH(compute::aggregate_forward(blk, weights, in, out),
                 "aggregate output shape mismatch");
}

TEST(FailureInjection, LossRejectsOutOfRangeLabel)
{
    compute::Tensor logits(1, 3);
    std::vector<int> labels = {7};
    EXPECT_DEATH(compute::softmax_cross_entropy(logits, labels),
                 "label out of range");
}

TEST(FailureInjection, CsvExportHookEngages)
{
    setenv("FASTGL_CSV_DIR", "/tmp", 1);
    util::TextTable table("Env Export Probe!");
    table.set_header({"a"});
    table.add_row({"1"});
    table.print();
    unsetenv("FASTGL_CSV_DIR");

    FILE *f = fopen("/tmp/env-export-probe.csv", "r");
    ASSERT_NE(f, nullptr);
    char buf[64];
    ASSERT_NE(fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "a\n");
    fclose(f);
    std::remove("/tmp/env-export-probe.csv");
}

} // namespace
} // namespace fastgl
