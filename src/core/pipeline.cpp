#include "core/pipeline.h"

#include <algorithm>
#include <numeric>

#include "match/reorder.h"
#include "sample/frequency_hashmap.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fastgl {
namespace core {

namespace {

/** Per-hop network latency of the inter-machine ring. */
constexpr double kNetworkLatency = 20e-6;

} // namespace

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

void
Pipeline::ThreadSampler::fill(const Pipeline &pipe, int64_t epoch,
                              int64_t index, SampledWindow &window,
                              size_t slot)
{
    window.subgraphs[slot] = sample(pipe, epoch, index);
    if (pipe.runs_match())
        window.sets[slot] = match::NodeSet(window.subgraphs[slot].nodes);
}

bool
Pipeline::runs_match() const
{
    return opts_.fw.io == IoStrategy::kMatch ||
           opts_.fw.io == IoStrategy::kMatchReorder;
}

Pipeline::BatchRecord
Pipeline::process_batch(const sample::SampledSubgraph &sg,
                        const match::NodeSet &set,
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
    if (runs_match()) {
        // FastGL prefetches the next subgraph's topology during the
        // current batch's computation (paper Section 6.5); that part of
        // the transfer vanishes from the critical path.
        rec.io_overlapped = contention *
                            double(sg.topology_bytes()) / spec_.pcie_bw;
    }

    // --- Compute phase ---
    rec.compute = cost_model_.training_step(opts_.model, sg).total();
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

    // Round-robin assignment of batches to trainer GPUs across every
    // machine (Section 7.1 extension: machines add data parallelism),
    // each GPU's batches cut into Reorder windows.
    const int64_t total = total_trainers();
    const int64_t stride = std::max(1, opts_.reorder_window) * total;
    for (int64_t g = 0; g < total; ++g) {
        for (int64_t first = g; first < plan.num_batches; first += stride) {
            PlannedWindow &window = plan.windows.emplace_back();
            window.gpu = static_cast<size_t>(g);
            const int64_t end = std::min(plan.num_batches, first + stride);
            for (int64_t b = first; b < end; b += total)
                window.batches.push_back(b);
        }
    }
    return plan;
}

util::ThreadPool &
Pipeline::window_pool()
{
    if (!window_pool_) {
        const unsigned hw = std::thread::hardware_concurrency();
        window_pool_ = std::make_unique<util::ThreadPool>(
            std::min<size_t>(hw == 0 ? 2 : hw, 8));
    }
    return *window_pool_;
}

void
Pipeline::submit_window(std::span<const int64_t> batches,
                        SampledWindow &window, util::TaskGroup &group)
{
    window = SampledWindow(batches.size());
    const size_t shards = std::min(batches.size(), window_pool().size());
    while (shard_samplers_.size() + 1 < shards)
        shard_samplers_.push_back(std::make_unique<ThreadSampler>(*this));
    for (size_t s = 0; s < shards; ++s) {
        ThreadSampler &sampler =
            s == 0 ? sampler_ : *shard_samplers_[s - 1];
        group.run([this, epoch = epoch_, batches, &window, &sampler, s,
                   shards] {
            for (size_t i = s; i < batches.size(); i += shards)
                sampler.fill(*this, epoch, batches[i], window, i);
        });
    }
}

std::vector<size_t>
Pipeline::window_order(const match::Matcher &matcher,
                       const SampledWindow &window,
                       util::ThreadPool &pool) const
{
    const std::vector<match::NodeSet> &sets = window.sets;
    std::vector<size_t> order(sets.size());
    std::iota(order.begin(), order.end(), size_t(0));
    const bool reorder = opts_.fw.io == IoStrategy::kMatchReorder &&
                         opts_.reorder_window > 1;
    if (reorder && sets.size() > 1) {
        // Chain on raw overlap counts (= the rows Match saves),
        // anchored at the batch resident on the GPU from the
        // previous window so the hand-over also reuses. The pairwise
        // counts row-shard over the pool for windows big enough to
        // amortise the hand-off; the result is bit-identical to the
        // sequential computation.
        constexpr size_t kParallelWindowThreshold = 8;
        const match::NodeSet *anchor =
            matcher.resident().size() > 0 ? &matcher.resident()
                                          : nullptr;
        match::ReorderResult rr = match::greedy_reorder_max_overlap(
            anchor, sets,
            sets.size() >= kParallelWindowThreshold ? &pool : nullptr);
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<size_t>(rr.order[i]);
    }
    return order;
}

EpochResult
Pipeline::run_epoch()
{
    const EpochPlan plan = plan_epoch();
    const std::vector<PlannedWindow> &windows = plan.windows;
    std::vector<std::vector<BatchRecord>> records(
        static_cast<size_t>(total_trainers()));

    // The Map-Fused Sampler produces a window's n mini-batches before
    // Reorder runs (paper Fig. 5), and samples window w + 1 while
    // window w is reordered and matched here. `ahead` is declared
    // before `sampling`, whose destructor waits for the shards filling
    // it on every exit.
    util::ThreadPool &pool = window_pool();
    SampledWindow ahead;
    util::TaskGroup sampling(pool);
    if (!windows.empty())
        submit_window(windows[0].batches, ahead, sampling);
    match::Matcher matcher;
    for (size_t w = 0; w < windows.size(); ++w) {
        sampling.wait();
        const SampledWindow sampled = std::move(ahead);
        if (w > 0 && windows[w].gpu != windows[w - 1].gpu)
            matcher.reset();
        const std::vector<size_t> order =
            window_order(matcher, sampled, pool);
        // Submitted only now: the pool runs tasks first in, first out,
        // so Reorder's pairwise counts would queue behind them.
        if (w + 1 < windows.size())
            submit_window(windows[w + 1].batches, ahead, sampling);
        for (size_t i : order) {
            records[windows[w].gpu].push_back(
                process_batch(sampled.subgraphs[i], sampled.sets[i],
                              matcher));
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
            2.0 * double(machines - 1) * kNetworkLatency;
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
