/**
 * @file
 * End-to-end numeric trainer: real sampling, real feature gathering, real
 * forward/backward/optimizer steps. This is the execution path behind the
 * convergence experiment (paper Fig. 16) and the runnable examples —
 * unlike Pipeline, which models time, Trainer computes actual numbers.
 */
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "compute/compute_cost.h"
#include "compute/gnn_model.h"
#include "compute/kernel_engine.h"
#include "compute/loss.h"
#include "compute/optimizer.h"
#include "graph/datasets.h"
#include "match/gather_engine.h"
#include "prof/profiler.h"
#include "sample/batch_splitter.h"
#include "sample/neighbor_sampler.h"
#include "store/residency.h"
#include "util/rng.h"

namespace fastgl {
namespace core {

/** Trainer hyperparameters. */
struct TrainerOptions
{
    std::vector<int> fanouts = {5, 10, 15};
    compute::ModelConfig model; ///< in_dim/num_classes 0 = from dataset.
    int64_t batch_size = 0;     ///< 0 = dataset default.
    float learning_rate = 3e-3f;
    bool use_adam = true;
    /** Inverted dropout applied to the gathered input features during
     *  training (0 = off); evaluation never drops. */
    float input_dropout = 0.0f;
    int64_t max_batches = 0;    ///< Cap batches per epoch (0 = all).
    /** Kernel-engine width: 1 = sequential, 0 = hardware concurrency.
     *  Losses and parameters are bit-identical at any width. */
    int compute_threads = 1;
    /** Gather-engine width for batched feature gathering: 1 =
     *  sequential, 0 = hardware concurrency. Gathered features — and
     *  therefore losses and parameters — are bit-identical at any
     *  width (match::GatherEngine contract). */
    int gather_threads = 1;
    /**
     * When > 0, a match::StaticFeatureCache over this fraction of the
     * nodes, ranked by a presample on its own sampler/splitter (GNNLab
     * policy, training RNG streams untouched). Like num_gpus and
     * storage it configures the trainer's store::FeatureResidency:
     * accounting only, so gathered bits, losses and parameters are
     * unaffected.
     */
    double feature_cache_ratio = 0.0;
    /**
     * Record per-node access frequencies (appearances in sampled
     * subgraphs) into TrainEpochStats::node_frequencies. The counts
     * become a match::WarmupTrace that warms the serving tier's
     * feature/embedding caches instead of starting them cold.
     */
    bool record_node_frequencies = false;
    /**
     * Modelled devices. With N > 1 and feature_cache_ratio > 0 a
     * match::PartitionedFeatureCache splits the cache's row budget into
     * N shards along a graph partitioning, and each batch is charged
     * on its first seed's home device (TrainEpochStats::residency).
     */
    int num_gpus = 1;
    /** Partitioner behind the num_gpus > 1 accounting pass. */
    graph::PartitionerKind partitioner = graph::PartitionerKind::kLdg;
    /**
     * Out-of-core tier (store::TieredFeatureStore): rows beyond the
     * host-DRAM budget live on a modelled drive, and the epoch loop
     * samples `storage.prefetch_depth` batches ahead (in order, RNG
     * streams untouched) so their blocks prefetch during compute.
     */
    store::TieredStoreOptions storage;
    /**
     * Per-stage profiling (fastgl::prof): replay the epoch's batches
     * through a virtual sampler -> gather -> compute pipeline (the
     * same modelled quantities the cost model already produces) and
     * report queue waits, service percentiles, and device busy/idle
     * accounting in TrainEpochStats::profile. Pure observation: the
     * training trajectory — every RNG stream, loss, and parameter —
     * is bit-identical with profiling on or off.
     */
    bool profile = false;
    uint64_t seed = 3407;
};

/** Loss/accuracy curve of one epoch. */
struct TrainEpochStats
{
    std::vector<double> iteration_losses;
    double mean_loss = 0.0;
    double mean_accuracy = 0.0;
    /** Host kernel counters measured during this epoch. */
    compute::KernelEngineStats measured_compute;
    /** GPU-modelled compute seconds for the same batches, for
     *  measured-vs-modelled comparison. */
    double modelled_compute_seconds = 0.0;
    /**
     * node_frequencies[node] = appearances in this epoch's sampled
     * subgraphs. Filled only when
     * TrainerOptions::record_node_frequencies is set; feed it to
     * match::save_warmup_trace / serve::ServerOptions::warmup to warm
     * serving caches from real training traffic.
     */
    std::vector<int64_t> node_frequencies;
    /** Batched feature-gather counters measured during this epoch
     *  (rows/bytes/seconds, plus fused cache hit/miss tallies when
     *  TrainerOptions::feature_cache_ratio is on). */
    match::GatherStats gather;
    /** Modelled devices of the accounting pass (1 = off). */
    int num_gpus = 1;
    /** The epoch's feature-residency counters: cache (or shard)
     *  hits and misses, per-partition and peer-link traffic, and the
     *  out-of-core tier with its demand stall and prefetch seconds. */
    store::ResidencyStats residency;
    /** Modelled epoch seconds: compute plus the storage stall
     *  (residency.store.stall_seconds). With every row in host DRAM
     *  this equals modelled_compute_seconds exactly — the bench's
     *  in-memory baseline. */
    double modelled_epoch_seconds = 0.0;
    /** Per-stage profile (enabled iff TrainerOptions::profile). The
     *  compute stage's busy_seconds equals modelled_compute_seconds
     *  bit-exactly (same values summed in the same order). */
    prof::ProfileReport profile;
};

/** Owns the model, optimizer and sampler; runs real training epochs. */
class Trainer
{
  public:
    Trainer(const graph::Dataset &dataset, TrainerOptions opts);

    /** Run one real training epoch; returns its loss curve. */
    TrainEpochStats train_epoch();

    /**
     * Evaluate accuracy on up to @p max_batches batches of training nodes
     * (no parameter update).
     */
    double evaluate(int64_t max_batches = 4);

    /**
     * Evaluate accuracy on an arbitrary node list (e.g. the dataset's
     * val_nodes or test_nodes). No parameter update, no dropout.
     */
    double evaluate_nodes(std::span<const graph::NodeId> nodes,
                          int64_t max_batches = 4);

    compute::GnnModel &model() { return *model_; }
    const TrainerOptions &options() const { return opts_; }

    /** The trainer's gather engine (stats, width introspection). */
    const match::GatherEngine &gather_engine() const
    {
        return *gather_engine_;
    }

    /** Feature cache, shards, partitioning, peer links and storage
     *  tier built from feature_cache_ratio, num_gpus and storage. */
    const store::FeatureResidency &residency() const
    {
        return *residency_;
    }

  private:
    /**
     * Gather one feature row per subgraph node through the batched
     * gather engine. Returns a zero-copy Tensor::view over the leased
     * panel (panel_); valid until the next gather_features call.
     */
    compute::Tensor gather_features(const sample::SampledSubgraph &sg);

    /** Inverted dropout on the gathered input features (train only). */
    void apply_input_dropout(compute::Tensor &features);

    /** Labels of the seed nodes. */
    std::vector<int> seed_labels(const sample::SampledSubgraph &sg);

    const graph::Dataset &dataset_;
    TrainerOptions opts_;
    std::unique_ptr<compute::KernelEngine> engine_;
    std::unique_ptr<match::GatherEngine> gather_engine_;
    /** Panel behind the current batch's input view; replaced (and its
     *  arena recycled) by the next gather_features call. */
    match::FeaturePanel panel_;
    /** Feature cache, shards, peer links and storage tier; built by
     *  the constructor, charged once per training batch. */
    std::unique_ptr<store::FeatureResidency> residency_;
    compute::ComputeCostModel cost_model_;
    std::unique_ptr<compute::GnnModel> model_;
    std::unique_ptr<compute::Optimizer> optimizer_;
    sample::BatchSplitter splitter_;
    std::unique_ptr<sample::NeighborSampler> sampler_;
    util::Rng dropout_rng_{0xD80F0D80F0ULL};
};

} // namespace core
} // namespace fastgl
