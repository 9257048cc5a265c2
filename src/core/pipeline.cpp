#include "core/pipeline.h"

#include <algorithm>

#include "match/reorder.h"
#include "sample/frequency_hashmap.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fastgl {
namespace core {

uint64_t
model_param_bytes(const compute::ModelConfig &config)
{
    uint64_t params = 0;
    for (int l = 0; l < config.num_layers; ++l) {
        const bool is_output = (l == config.num_layers - 1);
        const int64_t gat_hidden =
            int64_t(config.gat_heads) * config.gat_head_dim;
        const int64_t in =
            (l == 0) ? config.in_dim
                     : (config.type == compute::ModelType::kGat
                            ? gat_hidden
                            : config.hidden_dim);
        switch (config.type) {
          case compute::ModelType::kGcn: {
            const int64_t out =
                is_output ? config.num_classes : config.hidden_dim;
            params += uint64_t(in * out + out);
            break;
          }
          case compute::ModelType::kGin: {
            const int64_t out =
                is_output ? config.num_classes : config.hidden_dim;
            params += uint64_t(in * out + out + out * out + out);
            break;
          }
          case compute::ModelType::kGat: {
            const int64_t out =
                is_output ? config.num_classes : gat_hidden;
            params += uint64_t(in * out + 2 * out);
            break;
          }
        }
    }
    return params * sizeof(float);
}

Pipeline::Pipeline(const graph::Dataset &dataset, PipelineOptions opts,
                   sim::GpuSpec spec)
    : dataset_(dataset),
      opts_(std::move(opts)),
      spec_(std::move(spec)),
      kernels_(spec_),
      cost_model_(spec_, opts_.fw.compute_plan, opts_.l1_hit,
                  opts_.l2_hit),
      splitter_(dataset.train_nodes,
                opts_.batch_size > 0 ? opts_.batch_size
                                     : dataset.batch_size,
                opts_.seed),
      sampler_(*this)
{
    // Resolve model shape from the dataset when unset.
    if (opts_.model.in_dim == 0)
        opts_.model.in_dim = dataset.features.dim();
    if (opts_.model.num_classes == 0)
        opts_.model.num_classes = dataset.features.num_classes();
    opts_.model.num_layers =
        opts_.use_random_walk ? 1
                              : static_cast<int>(opts_.fanouts.size());
    param_bytes_ = model_param_bytes(opts_.model);

    // GNNLab's factored design: one dedicated sampler GPU up to 4 GPUs,
    // two beyond (paper Section 6.4).
    if (opts_.fw.pipelined_sampling && opts_.num_gpus >= 2) {
        samplers_ = opts_.num_gpus <= 4 ? 1 : 2;
        trainers_ = opts_.num_gpus - samplers_;
    } else {
        samplers_ = 0;
        trainers_ = std::max(1, opts_.num_gpus);
    }

    if (opts_.fw.io == IoStrategy::kStaticCache ||
        opts_.fw.cache_on_top_of_match) {
        build_cache();
    }
}

void
Pipeline::build_cache()
{
    const graph::NodeId n = dataset_.graph.num_nodes();
    const uint64_t row_bytes = dataset_.features.row_bytes();

    if (opts_.cache_ratio >= 0.0) {
        cache_rows_ = std::min<int64_t>(
            n, static_cast<int64_t>(opts_.cache_ratio * double(n)));
    } else {
        // Derive from free device memory. The replica graphs are scaled
        // down ~1/50-1/500, so the modelled device capacity is scaled by
        // the same factor to preserve the paper's memory pressure
        // (Section 3.1, Table 1).
        const double capacity =
            double(spec_.global_bytes) * dataset_.scale;
        // Baseline residents: parameters (+grads, +Adam moments), double-
        // buffered batch features and activations, topology, workspace.
        sample::SampledSubgraph probe = sample_batch(0, 0);
        const double features =
            double(probe.num_nodes()) * double(row_bytes);
        double activations = 0.0;
        for (const auto &block : probe.blocks) {
            activations += double(block.num_targets()) *
                           double(std::max<int64_t>(
                               opts_.model.hidden_dim,
                               opts_.model.in_dim)) *
                           sizeof(float);
        }
        const double base = double(param_bytes_) * 4.0 +
                            2.0 * (features + activations) +
                            double(probe.topology_bytes()) * 2.0;
        const double remaining = capacity - base * 1.2;
        cache_rows_ = std::clamp<int64_t>(
            static_cast<int64_t>(remaining / double(row_bytes)), 0,
            int64_t(n));
    }

    if (cache_rows_ <= 0) {
        cache_rows_ = 0;
        return;
    }

    std::vector<graph::NodeId> ranking;
    if (opts_.fw.cache_policy == match::CachePolicy::kDegree) {
        ranking = match::degree_ranking(dataset_.graph);
    } else {
        // GNNLab presample: run a few batches and rank by frequency.
        // One pass over the sampled nodes counts while deduping
        // (sample::FrequencyHashmap) — the dense num_nodes-sized count
        // array and its full-graph sort are gone, and the sparse
        // ranking overload is bit-identical to the old two-pass.
        const int64_t presample =
            std::min<int64_t>(4, splitter_.num_batches());
        sample::FrequencyHashmap freq(
            static_cast<size_t>(presample * splitter_.batch_size()));
        for (int64_t b = 0; b < presample; ++b) {
            // Presampling uses epoch 0; training epochs start at 1, so
            // the cache build never shares an RNG stream with them.
            sample::SampledSubgraph sg = sample_batch(0, b);
            freq.add_stream(sg.nodes);
        }
        ranking =
            match::presample_ranking(freq.uniques(), freq.counts(), n);
    }
    cache_.emplace(n, ranking, cache_rows_);
}

uint64_t
Pipeline::batch_seed(int64_t epoch, int64_t index) const
{
    return util::derive_seed(opts_.seed, static_cast<uint64_t>(epoch),
                             static_cast<uint64_t>(index));
}

sample::SampledSubgraph
Pipeline::sample_batch(int64_t epoch, int64_t index)
{
    return sampler_.sample(*this, epoch, index);
}

Pipeline::ThreadSampler::ThreadSampler(const Pipeline &pipe)
{
    if (pipe.opts_.use_random_walk) {
        sample::RandomWalkOptions wopts = pipe.opts_.walk;
        wopts.seed = pipe.opts_.seed + 101;
        walk = std::make_unique<sample::RandomWalkSampler>(
            pipe.dataset_.graph, wopts);
    } else {
        sample::NeighborSamplerOptions nopts;
        nopts.fanouts = pipe.opts_.fanouts;
        nopts.seed = pipe.opts_.seed + 101;
        khop = std::make_unique<sample::NeighborSampler>(
            pipe.dataset_.graph, nopts);
    }
}

sample::SampledSubgraph
Pipeline::ThreadSampler::sample(const Pipeline &pipe, int64_t epoch,
                                int64_t index)
{
    const std::span<const graph::NodeId> seeds =
        pipe.splitter_.batch(index);
    const uint64_t seed = pipe.batch_seed(epoch, index);
    return khop ? khop->sample(seeds, seed) : walk->sample(seeds, seed);
}

Pipeline::BatchRecord
Pipeline::plan_transfer(const sample::SampledSubgraph &sg,
                        match::Matcher &matcher) const
{
    BatchRecord rec;
    rec.instances = sg.instances;
    rec.uniques = sg.num_nodes();

    // --- Sample phase ---
    if (opts_.fw.sample_device == SampleDevice::kCpu)
        rec.sample = kernels_.sample_cpu(sg.edges_examined);
    else
        rec.sample = kernels_.sample_gpu(sg.edges_examined);

    switch (opts_.fw.id_map) {
      case IdMapEngine::kCpuMap:
        rec.id_map = kernels_.id_map_cpu(sg.id_map);
        break;
      case IdMapEngine::kGpuSync:
        rec.id_map = kernels_.id_map_sync(sg.id_map);
        break;
      case IdMapEngine::kGpuFused:
        rec.id_map = kernels_.id_map_fused(sg.id_map);
        break;
    }

    // --- Memory IO phase ---
    const uint64_t row_bytes = dataset_.features.row_bytes();
    switch (opts_.fw.io) {
      case IoStrategy::kFullLoad:
        rec.loaded = sg.num_nodes();
        break;
      case IoStrategy::kStaticCache: {
        if (cache_) {
            const int64_t misses = cache_->lookup_batch(sg.nodes);
            rec.loaded = misses;
            rec.cache_hits = sg.num_nodes() - misses;
        } else {
            rec.loaded = sg.num_nodes();
        }
        break;
      }
      case IoStrategy::kMatch:
      case IoStrategy::kMatchReorder: {
        match::NodeSet set(sg.nodes);
        match::TransferPlan plan = matcher.plan(set);
        rec.reused = plan.overlap_nodes;
        if (cache_ && opts_.fw.cache_on_top_of_match) {
            int64_t cached = 0;
            for (graph::NodeId u : plan.load_nodes) {
                if (cache_->contains(u))
                    ++cached;
            }
            rec.cache_hits = cached;
            rec.loaded = plan.load_count() - cached;
        } else {
            rec.loaded = plan.load_count();
        }
        break;
      }
    }
    // Memory IO = host-side gather of the loaded feature rows into a
    // contiguous pinned buffer (stage 1) + the DMA transfer (stage 2).
    // Concurrent trainer GPUs contend for the shared host bandwidth,
    // stretching both stages (the paper's Fig. 14a scaling limiter).
    const double contention =
        std::max(1.0, double(trainers_) * spec_.pcie_bw /
                          spec_.host_total_bw);
    const uint64_t feature_bytes = uint64_t(rec.loaded) * row_bytes;
    rec.bytes = feature_bytes + sg.topology_bytes();
    rec.io = spec_.pcie_latency +
             contention * (double(rec.bytes) / spec_.pcie_bw +
                           double(feature_bytes) / spec_.host_gather_bw);
    if (opts_.fw.io == IoStrategy::kMatch ||
        opts_.fw.io == IoStrategy::kMatchReorder) {
        // FastGL prefetches the next subgraph's topology during the
        // current batch's computation (paper Section 6.5); that part of
        // the transfer vanishes from the critical path.
        rec.io_overlapped = contention *
                            double(sg.topology_bytes()) / spec_.pcie_bw;
    }

    return rec;
}

double
Pipeline::compute_time(const sample::SampledSubgraph &sg) const
{
    return cost_model_.training_step(opts_.model, sg).total();
}

Pipeline::BatchRecord
Pipeline::process_batch(const sample::SampledSubgraph &sg,
                        match::Matcher &matcher) const
{
    BatchRecord rec = plan_transfer(sg, matcher);
    rec.compute = compute_time(sg);
    return rec;
}

Pipeline::EpochPlan
Pipeline::plan_epoch()
{
    splitter_.shuffle_epoch();
    ++epoch_;

    EpochPlan plan;
    plan.num_batches = splitter_.num_batches();
    if (opts_.max_batches > 0)
        plan.num_batches = std::min(plan.num_batches, opts_.max_batches);
    plan.window = std::max(1, opts_.reorder_window);

    // Round-robin assignment of batches to trainer GPUs across every
    // machine (Section 7.1 extension: machines add data parallelism).
    const int total = total_trainers();
    plan.per_gpu.assign(static_cast<size_t>(total), {});
    for (int64_t b = 0; b < plan.num_batches; ++b)
        plan.per_gpu[static_cast<size_t>(b % total)].push_back(b);
    return plan;
}

util::ThreadPool *
Pipeline::reorder_pool(size_t num_sets) const
{
    // Below this window size the O(n²) intersection work is too small
    // to amortise handing chunks to workers.
    constexpr size_t kParallelWindowThreshold = 8;
    if (num_sets < kParallelWindowThreshold)
        return nullptr;
    std::call_once(match_pool_once_, [this] {
        const unsigned hw = std::thread::hardware_concurrency();
        match_pool_ = std::make_unique<util::ThreadPool>(
            std::min<size_t>(hw == 0 ? 2 : hw, 8));
    });
    return match_pool_.get();
}

std::vector<size_t>
Pipeline::window_order(
    const match::Matcher &matcher,
    const std::vector<sample::SampledSubgraph> &subgraphs) const
{
    std::vector<size_t> order(subgraphs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const bool reorder = opts_.fw.io == IoStrategy::kMatchReorder &&
                         opts_.reorder_window > 1;
    if (reorder && subgraphs.size() > 1) {
        std::vector<match::NodeSet> sets;
        sets.reserve(subgraphs.size());
        for (const auto &sg : subgraphs)
            sets.emplace_back(sg.nodes);
        // Chain on raw overlap counts (= the rows Match saves),
        // anchored at the batch resident on the GPU from the
        // previous window so the hand-over also reuses. The pairwise
        // counts row-shard over the match pool for big windows; the
        // result is bit-identical to the sequential computation.
        const match::NodeSet *anchor =
            matcher.resident().size() > 0 ? &matcher.resident()
                                          : nullptr;
        match::ReorderResult rr = match::greedy_reorder_max_overlap(
            anchor, sets, reorder_pool(sets.size()));
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<size_t>(rr.order[i]);
    }
    return order;
}

EpochResult
Pipeline::run_epoch()
{
    const EpochPlan plan = plan_epoch();
    const int total = static_cast<int>(plan.per_gpu.size());
    const int64_t window = plan.window;

    std::vector<std::vector<BatchRecord>> records(
        static_cast<size_t>(total));

    for (int g = 0; g < total; ++g) {
        match::Matcher matcher;
        const auto &batches = plan.per_gpu[static_cast<size_t>(g)];
        for (size_t w = 0; w < batches.size();
             w += static_cast<size_t>(window)) {
            const size_t end = std::min(
                batches.size(), w + static_cast<size_t>(window));

            // Sample the window up front (paper Fig. 5: the Map-Fused
            // Sampler produces n mini-batches before Reorder runs).
            std::vector<sample::SampledSubgraph> subgraphs;
            subgraphs.reserve(end - w);
            for (size_t i = w; i < end; ++i)
                subgraphs.push_back(sample_batch(epoch_, batches[i]));

            for (size_t i : window_order(matcher, subgraphs)) {
                records[static_cast<size_t>(g)].push_back(
                    process_batch(subgraphs[i], matcher));
            }
        }
    }
    return finalize_epoch(records, plan.num_batches);
}

EpochResult
Pipeline::finalize_epoch(
    const std::vector<std::vector<BatchRecord>> &records,
    int64_t num_batches)
{
    // Export trainer 0's per-batch stage times for the event-driven
    // timeline validation.
    last_stages_.clear();
    for (const BatchRecord &rec : records[0]) {
        last_stages_.push_back(
            {rec.sample + rec.id_map, rec.io - rec.io_overlapped,
             rec.compute});
    }

    // Aggregate: work view (phase sums) + overlap-aware wall clock.
    const int total = static_cast<int>(records.size());
    EpochResult result;
    result.batches = num_batches;
    size_t max_iters = 0;
    for (const auto &list : records)
        max_iters = std::max(max_iters, list.size());

    // Hierarchical gradient sync: intra-machine ring over PCIe, then an
    // inter-machine ring over the network (Section 7.1).
    double allreduce_time =
        trainers_ > 1 ? kernels_.allreduce(param_bytes_, trainers_)
                      : 0.0;
    const int machines = std::max(1, opts_.num_machines);
    if (machines > 1) {
        allreduce_time +=
            2.0 * double(param_bytes_) * double(machines - 1) /
                double(machines) / opts_.network_bw +
            2.0 * double(machines - 1) * opts_.network_latency;
    }

    for (size_t it = 0; it < max_iters; ++it) {
        double iter_wall = 0.0;
        for (int g = 0; g < total; ++g) {
            const auto &list = records[static_cast<size_t>(g)];
            if (it >= list.size())
                continue;
            const BatchRecord &rec = list[it];

            result.phases.sample += rec.sample;
            result.phases.id_map += rec.id_map;
            result.phases.io += rec.io;
            result.phases.compute += rec.compute;
            result.nodes_loaded += rec.loaded;
            result.nodes_reused += rec.reused;
            result.cache_hits += rec.cache_hits;
            result.bytes_loaded += rec.bytes;
            result.sampled_instances += rec.instances;
            result.unique_nodes += rec.uniques;

            double batch_wall;
            if (opts_.fw.pipelined_sampling && samplers_ > 0) {
                // GNNLab's factored design: dedicated sampler GPUs hide
                // sampling, and double buffering overlaps the feature
                // transfer with training; the slowest stage paces the
                // pipeline.
                const double sample_rate =
                    (rec.sample + rec.id_map) *
                    double(trainers_) / double(samplers_);
                batch_wall = std::max(
                    {rec.compute, rec.io, sample_rate});
            } else {
                const double hidden =
                    std::min(rec.io_overlapped, rec.compute);
                batch_wall = rec.sample + rec.id_map +
                             (rec.io - hidden) + rec.compute;
            }
            iter_wall = std::max(iter_wall, batch_wall);
        }
        result.epoch_seconds += iter_wall + allreduce_time;
        result.phases.allreduce += allreduce_time;
    }
    return result;
}

} // namespace core
} // namespace fastgl
