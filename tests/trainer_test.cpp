/**
 * @file
 * Tests for the numeric Trainer: real end-to-end training must reduce the
 * loss on the dataset replicas (the paper's Fig. 16 correctness claim),
 * and every batch crosses the producer-to-consumer hand-off once.
 */
#include <gtest/gtest.h>

#include "core/trainer.h"
#include "graph/datasets.h"

namespace fastgl {
namespace {

graph::Dataset
tiny_reddit()
{
    graph::ReplicaOptions opts;
    opts.size_factor = 0.05;
    opts.materialize_features = true;
    return graph::load_replica(graph::DatasetId::kReddit, opts);
}

TEST(Trainer, LossDecreasesOverEpochsGcn)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    core::Trainer trainer(ds, opts);

    const auto first = trainer.train_epoch();
    double last_loss = first.mean_loss;
    for (int e = 0; e < 4; ++e)
        last_loss = trainer.train_epoch().mean_loss;
    EXPECT_LT(last_loss, first.mean_loss);
}

TEST(Trainer, LossDecreasesOverEpochsGin)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    opts.model.type = compute::ModelType::kGin;
    core::Trainer trainer(ds, opts);
    const auto first = trainer.train_epoch();
    double last_loss = first.mean_loss;
    for (int e = 0; e < 4; ++e)
        last_loss = trainer.train_epoch().mean_loss;
    EXPECT_LT(last_loss, first.mean_loss);
}

TEST(Trainer, ResolvesModelShapeFromDataset)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {3, 3};
    opts.max_batches = 1;
    opts.batch_size = 16;
    core::Trainer trainer(ds, opts);
    EXPECT_EQ(trainer.options().model.in_dim, ds.features.dim());
    EXPECT_EQ(trainer.options().model.num_classes,
              ds.features.num_classes());
    EXPECT_EQ(trainer.options().model.num_layers, 2);
}

TEST(Trainer, EvaluateReturnsValidAccuracy)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {3, 3};
    opts.max_batches = 2;
    opts.batch_size = 16;
    core::Trainer trainer(ds, opts);
    const double acc = trainer.evaluate(2);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(Trainer, IterationLossesRecorded)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {3, 3};
    opts.max_batches = 3;
    opts.batch_size = 16;
    core::Trainer trainer(ds, opts);
    const auto stats = trainer.train_epoch();
    EXPECT_EQ(stats.iteration_losses.size(), 3u);
    for (double loss : stats.iteration_losses)
        EXPECT_GT(loss, 0.0);
}

TEST(Trainer, SgdVariantAlsoLearns)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    opts.use_adam = false;
    opts.learning_rate = 0.05f;
    core::Trainer trainer(ds, opts);
    const auto first = trainer.train_epoch();
    double last = first.mean_loss;
    for (int e = 0; e < 5; ++e)
        last = trainer.train_epoch().mean_loss;
    EXPECT_LT(last, first.mean_loss * 1.05);
}

TEST(Trainer, RecordsNodeFrequenciesForWarmup)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 3;
    opts.batch_size = 32;
    opts.record_node_frequencies = true;
    core::Trainer trainer(ds, opts);
    const auto stats = trainer.train_epoch();

    ASSERT_EQ(stats.node_frequencies.size(),
              static_cast<size_t>(ds.graph.num_nodes()));
    int64_t touched = 0, total = 0;
    for (int64_t f : stats.node_frequencies) {
        EXPECT_GE(f, 0);
        touched += f > 0 ? 1 : 0;
        total += f;
    }
    // Every sampled subgraph node counts once per appearance; three
    // batches of 32 seeds with fanouts {4,4} touch far more nodes than
    // seeds but not the whole graph replica.
    EXPECT_GT(touched, 3 * 32);
    EXPECT_LT(touched, ds.graph.num_nodes());
    EXPECT_GE(total, touched);

    // Same seed, fresh trainer: the recording is deterministic.
    core::Trainer again(ds, opts);
    EXPECT_EQ(again.train_epoch().node_frequencies,
              stats.node_frequencies);
}

TEST(Trainer, HandoffQueueCarriesEachBatchOnce)
{
    // Every batch crosses the producer-to-consumer hand-off exactly
    // once, in memory and over NVMe with storage lookaheads of 0 and 3,
    // and the queue never holds more than one prepared batch.
    const graph::Dataset ds = tiny_reddit();
    for (const int depth : {-1, 0, 3}) { // -1: storage off
        core::TrainerOptions opts;
        opts.fanouts = {4, 4};
        opts.max_batches = 5;
        opts.batch_size = 32;
        opts.gather_threads = 2;
        if (depth >= 0) {
            opts.storage.storage = store::StorageKind::kNvme;
            opts.storage.host_mem_fraction = 0.25;
            opts.storage.prefetch_depth = depth;
        }
        core::Trainer trainer(ds, opts);
        for (int epoch = 0; epoch < 2; ++epoch) {
            const util::QueueStats q = trainer.train_epoch().handoff_queue;
            EXPECT_EQ(q.pushed, 5u) << "depth " << depth;
            EXPECT_EQ(q.popped, 5u) << "depth " << depth;
            EXPECT_LE(q.max_depth, 1u) << "depth " << depth;
            EXPECT_LE(q.pop_blocked, q.popped) << "depth " << depth;
        }
    }
}

TEST(Trainer, FrequencyRecordingOffByDefault)
{
    const graph::Dataset ds = tiny_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {3, 3};
    opts.max_batches = 1;
    opts.batch_size = 16;
    core::Trainer trainer(ds, opts);
    EXPECT_TRUE(trainer.train_epoch().node_frequencies.empty());
}

} // namespace
} // namespace fastgl
