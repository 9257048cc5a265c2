/**
 * @file
 * The epoch pipeline: orchestrates sample → (reorder) → match/cache →
 * transfer → compute across data-parallel GPUs, under any FrameworkConfig
 * preset, and produces modelled phase times from measured counts.
 *
 * This is the engine behind every end-to-end figure in the paper (Figs. 3,
 * 9, 10, 13, 14, 15): the sampling, hashing, matching and caching all
 * really execute; the seconds come from sim::KernelModel, and a batch's
 * PCIe seconds from the formula in process_batch.
 *
 * run_epoch samples each Reorder window's batches in parallel on the
 * window pool, and the task that samples a batch also builds its
 * match::NodeSet. While the calling thread reorders and matches window
 * w, the pool samples window w + 1: the paper's Fig. 5 overlap, run
 * with real threads. The modelled numbers keep their bits at any pool
 * width, for two reasons:
 *  - every batch samples from its own derived RNG stream
 *    (util::derive_seed of the seed, the epoch and the batch index), so
 *    which thread samples it, and when, cannot change it;
 *  - Reorder and Match, the only steps with state (each GPU's
 *    resident batch), run on the calling thread, window by window in
 *    the order of the sequential definition.
 */
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "compute/compute_cost.h"
#include "core/framework_config.h"
#include "core/phase_stats.h"
#include "core/timeline.h"
#include "graph/datasets.h"
#include "match/feature_cache.h"
#include "match/match.h"
#include "sample/batch_splitter.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "sim/gpu_spec.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace core {

/** Everything configurable about one pipeline run. */
struct PipelineOptions
{
    FrameworkConfig fw = framework_preset(Framework::kFastGL);
    int num_gpus = 2;            ///< Paper's default evaluation setup.
    std::vector<int> fanouts = {5, 10, 15};
    compute::ModelConfig model;  ///< in_dim/num_classes 0 = from dataset.
    /**
     * Batches sampled per Reorder window (the paper's n). Windows also
     * bound how much host memory holds presampled subgraphs: at most
     * two windows of subgraphs are alive, the one being matched and
     * the one being sampled.
     */
    int reorder_window = 16;
    /**
     * Feature-cache capacity as a fraction of the full feature matrix.
     * Negative = derive from the (scale-adjusted) free device memory.
     */
    double cache_ratio = -1.0;
    int64_t max_batches = 0;     ///< Cap batches per epoch (0 = all).
    int64_t batch_size = 0;      ///< 0 = dataset default.
    uint64_t seed = 1;
    /** Naive-kernel cache hit rates driving the compute model. */
    double l1_hit = 0.045;
    double l2_hit = 0.196;
    /** Use the PinSAGE random-walk sampler instead of k-hop (Table 7). */
    bool use_random_walk = false;
    sample::RandomWalkOptions walk;

    // --- Multi-machine extension (paper Section 7.1) ---
    /** Machines in the data-parallel job; each holds num_gpus GPUs. */
    int num_machines = 1;
    /** Inter-machine network bandwidth (default 100 Gb/s Ethernet). */
    double network_bw = 12.5e9;
};

/** Runs epochs for one dataset under one framework configuration. */
class Pipeline
{
  public:
    Pipeline(const graph::Dataset &dataset, PipelineOptions opts,
             sim::GpuSpec spec = sim::rtx3090());

    /** Run one modelled epoch (shuffles batches first). */
    EpochResult run_epoch();

    const PipelineOptions &options() const { return opts_; }
    const sim::GpuSpec &gpu() const { return spec_; }

    /** Rows the feature cache holds (0 when no cache is configured). */
    int64_t cache_capacity_rows() const { return cache_rows_; }

    /** Trainer GPU count per machine after sampler dedication. */
    int trainer_gpus() const { return trainers_; }

    /** Trainer GPUs across all machines. */
    int
    total_trainers() const
    {
        return trainers_ * std::max(1, opts_.num_machines);
    }

    /** Sampler GPU count (0 unless pipelined sampling). */
    int sampler_gpus() const { return samplers_; }

    /** Modelled parameter bytes of the configured model. */
    uint64_t param_bytes() const { return param_bytes_; }

    /**
     * Per-batch stage durations of trainer GPU 0 from the most recent
     * run_epoch(), for event-driven validation and timeline export
     * (core::simulate_epoch).
     */
    const std::vector<BatchStageTimes> &
    last_epoch_stage_times() const
    {
        return last_stages_;
    }

  private:
    struct BatchRecord
    {
        double sample = 0.0;
        double id_map = 0.0;
        double io = 0.0;
        /** Part of io hidden behind compute (FastGL topology prefetch). */
        double io_overlapped = 0.0;
        double compute = 0.0;
        int64_t loaded = 0;
        int64_t reused = 0;
        int64_t cache_hits = 0;
        uint64_t bytes = 0;
        int64_t instances = 0;
        int64_t uniques = 0;
    };

    /** One Reorder window of one trainer GPU's batches. */
    struct PlannedWindow
    {
        size_t gpu = 0;
        std::vector<int64_t> batches;
    };

    /** One epoch's work assignment. */
    struct EpochPlan
    {
        int64_t num_batches = 0;
        /**
         * Every Reorder window in run order: GPU 0's windows, then GPU
         * 1's, and so on. Of G trainer GPUs, GPU g runs batches g,
         * g + G, g + 2G, ... (round robin).
         */
        std::vector<PlannedWindow> windows;
    };

    /**
     * One Reorder window's sampled batches, in plan order. sets[i] is
     * subgraphs[i]'s Match set, built by the thread that sampled it;
     * it stays empty unless the preset runs Match.
     */
    struct SampledWindow
    {
        SampledWindow() = default;
        explicit SampledWindow(size_t n) : subgraphs(n), sets(n) {}

        std::vector<sample::SampledSubgraph> subgraphs;
        std::vector<match::NodeSet> sets;
    };

    /**
     * The pipeline's k-hop or random-walk sampler. The pipeline holds
     * one per window-pool shard (shard 0 is sampler_, which
     * sample_batch also uses): instances are not shareable across
     * threads, but any instance yields identical output for the same
     * (epoch, index) because sampling draws from a per-batch derived
     * RNG stream.
     */
    struct ThreadSampler
    {
        explicit ThreadSampler(const Pipeline &pipe);

        /** Identical output to pipe.sample_batch(epoch, index). */
        sample::SampledSubgraph sample(const Pipeline &pipe,
                                       int64_t epoch, int64_t index);

        /**
         * Sample batch @p index into slot @p slot of @p window and,
         * when the preset runs Match, build its NodeSet there too.
         */
        void fill(const Pipeline &pipe, int64_t epoch, int64_t index,
                  SampledWindow &window, size_t slot);

        std::unique_ptr<sample::NeighborSampler> khop;
        std::unique_ptr<sample::RandomWalkSampler> walk;
    };

    /** Shuffle, advance the epoch counter, cut the batches into windows. */
    EpochPlan plan_epoch();

    /** RNG stream seed of batch @p index in epoch @p epoch. */
    uint64_t batch_seed(int64_t epoch, int64_t index) const;

    /**
     * Sample batch @p index of epoch @p epoch. Each batch draws from its
     * own derived RNG stream (not shared-generator order), so the result
     * is independent of sampling order and thread placement.
     */
    sample::SampledSubgraph sample_batch(int64_t epoch, int64_t index);

    /** True when the preset ships batches through Match. */
    bool runs_match() const;

    /**
     * Start sampling @p batches of the current epoch, with their Match
     * sets, into @p window on the window pool, as tasks of @p group:
     * shard s of S fills slots s, s + S, ... with its own
     * ThreadSampler. @p window is ready once @p group has been waited
     * for. Call only while @p group holds no task, since the shards'
     * samplers are reused.
     */
    void submit_window(std::span<const int64_t> batches,
                       SampledWindow &window, util::TaskGroup &group);

    /**
     * Reorder decision for one window against the resident batch,
     * chained on the window's own Match sets. A window of at least 8
     * batches row-shards its pairwise counts over @p pool.
     */
    std::vector<size_t> window_order(const match::Matcher &matcher,
                                     const SampledWindow &window,
                                     util::ThreadPool &pool) const;

    /**
     * Modelled sample, id-map, io and compute accounting for one batch.
     * @p set is @p sg's Match set (unused unless the preset runs
     * Match). Mutates only @p matcher.
     */
    BatchRecord process_batch(const sample::SampledSubgraph &sg,
                              const match::NodeSet &set,
                              match::Matcher &matcher) const;

    /** Aggregate per-GPU records into the epoch result (work + wall). */
    EpochResult finalize_epoch(
        const std::vector<std::vector<BatchRecord>> &records,
        int64_t num_batches);

    void build_cache();

    /**
     * Worker pool for the windows' sampling and their O(n²) Reorder
     * set algebra, created by the first epoch with min(hardware
     * threads, 8) workers. Sampled batches and the row-sharded matrix
     * are bit-identical for any worker count, so the pool never
     * changes results.
     */
    util::ThreadPool &window_pool();

    const graph::Dataset &dataset_;
    PipelineOptions opts_;
    sim::GpuSpec spec_;
    sim::KernelModel kernels_;
    compute::ComputeCostModel cost_model_;
    sample::BatchSplitter splitter_;
    /**
     * sample_batch's sampler and window shard 0's; built from opts_
     * and dataset_ above.
     */
    ThreadSampler sampler_;
    /** Samplers of window shards 1, 2, ..., built on first use. */
    std::vector<std::unique_ptr<ThreadSampler>> shard_samplers_;
    std::optional<match::StaticFeatureCache> cache_;
    int64_t cache_rows_ = 0;
    int trainers_ = 1;
    int samplers_ = 0;
    uint64_t param_bytes_ = 0;
    int epoch_ = 0;
    std::vector<BatchStageTimes> last_stages_;
    std::unique_ptr<util::ThreadPool> window_pool_;
};

/** Analytic parameter byte count for @p config (no model instantiation). */
uint64_t model_param_bytes(const compute::ModelConfig &config);

} // namespace core
} // namespace fastgl
