/**
 * @file
 * The epoch pipeline: orchestrates sample → (reorder) → match/cache →
 * transfer → compute across data-parallel GPUs, under any FrameworkConfig
 * preset, and produces modelled phase times from measured counts.
 *
 * This is the engine behind every end-to-end figure in the paper (Figs. 3,
 * 9, 10, 13, 14, 15): the sampling, hashing, matching and caching all
 * really execute; the seconds come from sim::KernelModel / sim::PcieLink.
 */
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
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

class AsyncPipeline;

/** Everything configurable about one pipeline run. */
struct PipelineOptions
{
    FrameworkConfig fw = framework_preset(Framework::kFastGL);
    int num_gpus = 2;            ///< Paper's default evaluation setup.
    std::vector<int> fanouts = {5, 10, 15};
    compute::ModelConfig model;  ///< in_dim/num_classes 0 = from dataset.
    /**
     * Batches sampled per Reorder window (the paper's n). Windows also
     * bound how much host memory holds presampled subgraphs.
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
    /** Per-hop network latency for the inter-machine ring. */
    double network_latency = 20e-6;
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
    /**
     * The overlapped executor reuses the private per-batch machinery so
     * its modelled numbers are produced by exactly the code path the
     * sequential executor runs (the bit-identical guarantee).
     */
    friend class AsyncPipeline;

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

    /** One epoch's work assignment, shared by both executors. */
    struct EpochPlan
    {
        int64_t num_batches = 0;
        /** Batches per Reorder window (>= 1). */
        int64_t window = 1;
        /** Round-robin batch indices per trainer GPU. */
        std::vector<std::vector<int64_t>> per_gpu;
    };

    /**
     * The pipeline's k-hop or random-walk sampler. The pipeline holds
     * one for sample_batch and each concurrent producer builds its
     * own: instances are not shareable across threads, but any
     * instance yields identical output for the same (epoch, index)
     * because sampling draws from a per-batch derived RNG stream.
     */
    struct ThreadSampler
    {
        explicit ThreadSampler(const Pipeline &pipe);

        /** Identical output to pipe.sample_batch(epoch, index). */
        sample::SampledSubgraph sample(const Pipeline &pipe,
                                       int64_t epoch, int64_t index);

        std::unique_ptr<sample::NeighborSampler> khop;
        std::unique_ptr<sample::RandomWalkSampler> walk;
    };

    /** Shuffle, advance the epoch counter, assign batches to GPUs. */
    EpochPlan plan_epoch();

    /** RNG stream seed of batch @p index in epoch @p epoch. */
    uint64_t batch_seed(int64_t epoch, int64_t index) const;

    /**
     * Sample batch @p index of epoch @p epoch. Each batch draws from its
     * own derived RNG stream (not shared-generator order), so the result
     * is independent of sampling order and thread placement.
     */
    sample::SampledSubgraph sample_batch(int64_t epoch, int64_t index);

    /** Reorder decision for one window against the resident batch. */
    std::vector<size_t> window_order(
        const match::Matcher &matcher,
        const std::vector<sample::SampledSubgraph> &subgraphs) const;

    /**
     * Sample/id-map/io accounting for one batch — everything except the
     * compute phase. Mutates only @p matcher (caller-owned, per GPU) and
     * the cache's atomic statistics; safe to run concurrently across
     * GPUs.
     */
    BatchRecord plan_transfer(const sample::SampledSubgraph &sg,
                              match::Matcher &matcher) const;

    /** Modelled compute seconds of one batch (pure). */
    double compute_time(const sample::SampledSubgraph &sg) const;

    /** plan_transfer + compute_time in one step (sequential path). */
    BatchRecord process_batch(const sample::SampledSubgraph &sg,
                              match::Matcher &matcher) const;

    /** Aggregate per-GPU records into the epoch result (work + wall). */
    EpochResult finalize_epoch(
        const std::vector<std::vector<BatchRecord>> &records,
        int64_t num_batches);

    void build_cache();

    /**
     * Shared worker pool for the O(n²) Reorder set algebra, created
     * lazily the first time a window is big enough to benefit (small
     * windows stay sequential — the fork/join overhead would dominate).
     * Thread safe: gather threads of the overlapped executor call
     * window_order concurrently, and both the lazy construction
     * (call_once) and ThreadPool::submit are safe under contention. The
     * row-sharded matrix is bit-identical for any worker count, so the
     * pool never changes results.
     */
    util::ThreadPool *reorder_pool(size_t num_sets) const;

    const graph::Dataset &dataset_;
    PipelineOptions opts_;
    sim::GpuSpec spec_;
    sim::KernelModel kernels_;
    compute::ComputeCostModel cost_model_;
    sample::BatchSplitter splitter_;
    /** sample_batch's sampler; built from opts_ and dataset_ above. */
    ThreadSampler sampler_;
    std::optional<match::StaticFeatureCache> cache_;
    int64_t cache_rows_ = 0;
    int trainers_ = 1;
    int samplers_ = 0;
    uint64_t param_bytes_ = 0;
    int epoch_ = 0;
    std::vector<BatchStageTimes> last_stages_;
    mutable std::once_flag match_pool_once_;
    mutable std::unique_ptr<util::ThreadPool> match_pool_;
};

/** Analytic parameter byte count for @p config (no model instantiation). */
uint64_t model_param_bytes(const compute::ModelConfig &config);

} // namespace core
} // namespace fastgl
