#include "core/trainer.h"

#include <deque>
#include <exception>
#include <optional>
#include <semaphore>
#include <stop_token>
#include <thread>

#include "sample/frequency_hashmap.h"
#include "sim/gpu_spec.h"
#include "sim/kernel_model.h"
#include "util/bounded_queue.h"
#include "util/logging.h"

namespace fastgl {
namespace core {

namespace {

/** One batch the producer prepared: its subgraph and gathered rows. */
struct PreparedBatch
{
    sample::SampledSubgraph sg;
    match::FeaturePanel panel;
};

/** Zero-copy input view over a gathered panel. */
compute::Tensor
panel_view(match::FeaturePanel &panel)
{
    return compute::Tensor::view(panel.data(), panel.rows(), panel.dim());
}

} // namespace

Trainer::Trainer(const graph::Dataset &dataset, TrainerOptions opts)
    : dataset_(dataset),
      opts_(std::move(opts)),
      engine_(std::make_unique<compute::KernelEngine>(
          opts_.compute_threads)),
      cost_model_(sim::rtx3090(), compute::ComputePlan::kMemoryAware),
      splitter_(dataset.train_nodes,
                opts_.batch_size > 0 ? opts_.batch_size
                                     : dataset.batch_size,
                opts_.seed)
{
    if (opts_.model.in_dim == 0)
        opts_.model.in_dim = dataset.features.dim();
    if (opts_.model.num_classes == 0)
        opts_.model.num_classes = dataset.features.num_classes();
    opts_.model.num_layers = static_cast<int>(opts_.fanouts.size());
    opts_.model.seed = opts_.seed;

    model_ = std::make_unique<compute::GnnModel>(opts_.model);
    model_->set_engine(engine_.get());
    if (opts_.use_adam) {
        optimizer_ = std::make_unique<compute::Adam>(opts_.learning_rate);
    } else {
        optimizer_ =
            std::make_unique<compute::Sgd>(opts_.learning_rate, 0.9f);
    }

    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = opts_.fanouts;
    nopts.seed = opts_.seed + 1;
    sampler_ = std::make_unique<sample::NeighborSampler>(dataset.graph,
                                                         nopts);

    gather_engine_ =
        std::make_unique<match::GatherEngine>(opts_.gather_threads);

    std::vector<graph::NodeId> hot_ranking;
    store::ResidencyOptions residency;
    if (opts_.feature_cache_ratio > 0.0) {
        // Presample with dedicated sampler/splitter instances on
        // derived seeds so the training RNG streams stay untouched —
        // the cache is accounting only and must not move a single bit
        // of the training trajectory.
        constexpr int64_t kPresampleBatches = 8;
        sample::BatchSplitter presplit(
            dataset.train_nodes, splitter_.batch_size(),
            opts_.seed ^ 0xFEA7CACE5EEDULL);
        presplit.shuffle_epoch();
        sample::NeighborSamplerOptions popts = nopts;
        popts.seed = opts_.seed + 17;
        sample::NeighborSampler presampler(dataset.graph, popts);
        sample::FrequencyHashmap freq(static_cast<size_t>(
            splitter_.batch_size() * kPresampleBatches));
        const int64_t pre_batches =
            std::min<int64_t>(kPresampleBatches, presplit.num_batches());
        for (int64_t b = 0; b < pre_batches; ++b)
            freq.add_stream(presampler.sample(presplit.batch(b)).nodes);
        hot_ranking = match::presample_ranking(
            freq.uniques(), freq.counts(), dataset.graph.num_nodes());
        residency.cache_rows = static_cast<int64_t>(
            double(dataset.graph.num_nodes()) * opts_.feature_cache_ratio);

        // Multi-GPU accounting exists only with a cache budget: the
        // same aggregate row budget split into per-device shards.
        if (opts_.num_gpus > 1) {
            residency.num_devices = opts_.num_gpus;
            residency.shard_rows = std::max<int64_t>(
                1, residency.cache_rows / opts_.num_gpus);
        }
    }
    residency.partitioner = opts_.partitioner;
    residency.storage = opts_.storage;
    // Host-DRAM residency follows the cache's hotness ranking, or
    // degree order when no presample ran.
    if (hot_ranking.empty() &&
        opts_.storage.storage != store::StorageKind::kNone)
        hot_ranking = match::degree_ranking(dataset_.graph);
    residency_ = std::make_unique<store::FeatureResidency>(
        dataset_.features, dataset_.graph, hot_ranking, sim::rtx3090(),
        residency);
}

std::vector<int>
Trainer::seed_labels(const sample::SampledSubgraph &sg)
{
    std::vector<int> labels(static_cast<size_t>(sg.num_seeds));
    for (int64_t i = 0; i < sg.num_seeds; ++i)
        labels[static_cast<size_t>(i)] =
            dataset_.features.label(sg.nodes[static_cast<size_t>(i)]);
    return labels;
}

TrainEpochStats
Trainer::train_epoch()
{
    splitter_.shuffle_epoch();
    int64_t num_batches = splitter_.num_batches();
    if (opts_.max_batches > 0)
        num_batches = std::min(num_batches, opts_.max_batches);

    TrainEpochStats stats;
    engine_->reset_stats();
    gather_engine_->reset_stats();
    residency_->begin_run();
    if (opts_.record_node_frequencies)
        stats.node_frequencies.assign(
            static_cast<size_t>(dataset_.graph.num_nodes()), 0);
    double loss_sum = 0.0, acc_sum = 0.0;
    // Per-stage profiling: replay each batch through a virtual
    // three-stage pipeline (sampler -> gather -> compute) clocked with
    // the same modelled quantities the cost model produces. Each stage
    // starts no earlier than its input is ready and no earlier than
    // its previous batch finished, so the recorded queue waits are the
    // pipeline's genuine inter-stage stalls. Observation only — the
    // profiler never feeds anything back into the epoch loop.
    prof::Profiler profiler(opts_.profile);
    const sim::KernelModel prof_kernels(sim::rtx3090());
    double prof_sampler_free = 0.0;
    double prof_gather_free = 0.0;
    double prof_compute_free = 0.0;
    const int64_t depth = residency_->storage_active()
                              ? std::max(0, opts_.storage.prefetch_depth)
                              : 0;

    // Batch preparation runs on one producer thread while this thread
    // computes. The producer samples batches 0, 1, 2, ... strictly in
    // order with the trainer's own sampler, so the sampler's RNG stream
    // is consumed exactly as a sequential loop consumes it, and gathers
    // each batch into a leased panel. Everything that carries state or
    // depends on order stays here, in batch order. A panel slot is
    // taken before each batch and returned once its panel is released:
    // at most depth + 2 panels are alive (the one being computed, the
    // storage lookahead and the one being prepared).
    util::BoundedQueue<PreparedBatch> handoff(1);
    std::counting_semaphore<> panel_slots(std::min(depth, num_batches) +
                                          2);
    // An early exit of this thread (an exception) destroys the
    // producer, which requests a stop and joins: the callback then
    // unblocks it wherever it waits. The normal path joins it after the
    // loop.
    std::jthread producer([&](std::stop_token stop) {
        std::stop_callback unblock(stop, [&] {
            handoff.close();
            panel_slots.release();
        });
        try {
            for (int64_t i = 0; i < num_batches; ++i) {
                panel_slots.acquire();
                if (stop.stop_requested())
                    return;
                PreparedBatch item;
                item.sg = sampler_->sample(splitter_.batch(i));
                item.panel =
                    gather_engine_->gather(dataset_.features, item.sg.nodes);
                if (!handoff.push(std::move(item)))
                    return;
            }
        } catch (...) {
            handoff.fail(std::current_exception());
        }
    });

    // Storage lookahead: batch b is computed once batches up to
    // b + depth have arrived, so their node sets prefetch storage
    // blocks while b computes.
    std::deque<PreparedBatch> lookahead;
    int64_t next_to_pop = 0;
    for (int64_t b = 0; b < num_batches; ++b) {
        const int64_t horizon = std::min(b + depth, num_batches - 1);
        while (next_to_pop <= horizon) {
            std::optional<PreparedBatch> item = handoff.pop();
            FASTGL_CHECK(item, "batch producer stopped early");
            lookahead.push_back(std::move(*item));
            if (next_to_pop > b)
                residency_->stage_future_batch(
                    next_to_pop, lookahead.back().sg.nodes);
            ++next_to_pop;
        }
        PreparedBatch batch = std::move(lookahead.front());
        lookahead.pop_front();
        const sample::SampledSubgraph &sg = batch.sg;
        if (opts_.record_node_frequencies) {
            for (graph::NodeId u : sg.nodes)
                ++stats.node_frequencies[static_cast<size_t>(u)];
        }
        const double batch_compute_s =
            cost_model_.training_step(opts_.model, sg).total();
        stats.modelled_compute_seconds += batch_compute_s;
        // Batch affinity: the device owning the first seed's
        // partition runs the batch. Accounting only — the charge never
        // feeds back into sampling, gathering or the trajectory.
        const store::ResidencyCharge charge =
            residency_->charge(residency_->home_device(sg.nodes), sg.nodes);
        residency_->complete_batch(b);
        if (opts_.profile) {
            const int64_t rows =
                static_cast<int64_t>(sg.nodes.size());
            const double sample_s =
                prof_kernels.sample_gpu(sg.edges_examined);
            const double gather_s = residency_->io_seconds(charge);
            const double sample_end = prof_sampler_free + sample_s;
            prof_sampler_free = sample_end;
            const double gather_start =
                std::max(sample_end, prof_gather_free);
            const double gather_end = gather_start + gather_s;
            prof_gather_free = gather_end;
            const double compute_start =
                std::max(gather_end, prof_compute_free);
            const double device_free_before = prof_compute_free;
            prof_compute_free = compute_start + batch_compute_s;
            profiler.record(prof::Stage::kSampler, 0.0, sample_s,
                            rows);
            profiler.record(prof::Stage::kGather,
                            gather_start - sample_end, gather_s,
                            rows);
            profiler.record(prof::Stage::kCompute,
                            compute_start - gather_end,
                            batch_compute_s, sg.num_seeds);
            if (residency_->storage_active())
                profiler.record(prof::Stage::kStorage, 0.0,
                                charge.storage_seconds, 1);
            profiler.record_device(
                0, compute_start - device_free_before,
                batch_compute_s, prof_compute_free);
        }
        // The forward reads (and input dropout writes) the panel
        // bytes in place.
        compute::Tensor x = panel_view(batch.panel);
        if (opts_.input_dropout > 0.0f)
            apply_input_dropout(x);
        compute::Tensor logits = model_->forward(sg, x);

        const std::vector<int> labels = seed_labels(sg);
        compute::LossResult loss =
            compute::softmax_cross_entropy(logits, labels);

        model_->zero_grad();
        model_->backward(sg, loss.grad_logits);
        optimizer_->step(model_->parameters());

        stats.iteration_losses.push_back(loss.loss);
        loss_sum += loss.loss;
        acc_sum += loss.accuracy;
        batch.panel.release();
        panel_slots.release();
    }
    producer.join();
    stats.mean_loss = loss_sum / double(num_batches);
    stats.mean_accuracy = acc_sum / double(num_batches);

    // Measured host-kernel counters for this epoch, reported next to
    // the modelled GPU seconds so drift between the two is visible.
    stats.measured_compute = engine_->stats();
    stats.gather = gather_engine_->stats();
    stats.handoff_queue = handoff.stats();
    stats.num_gpus = std::max(1, opts_.num_gpus);
    stats.residency = residency_->stats();
    stats.modelled_epoch_seconds = stats.modelled_compute_seconds +
                                   stats.residency.store.stall_seconds;
    profiler.set_makespan(prof_compute_free);
    stats.profile = profiler.report();
    return stats;
}

void
Trainer::apply_input_dropout(compute::Tensor &features)
{
    // Inverted dropout: surviving entries are scaled by 1/(1-p) so the
    // expected activation is unchanged; gradients flow through the
    // surviving entries only because the zeroed inputs contribute zero.
    const float p = opts_.input_dropout;
    const float scale = 1.0f / (1.0f - p);
    float *data = features.data();
    for (int64_t i = 0; i < features.numel(); ++i)
        data[i] = dropout_rng_.next_double() < p ? 0.0f
                                                 : data[i] * scale;
}

double
Trainer::batch_accuracy(const sample::SampledSubgraph &sg)
{
    match::FeaturePanel panel =
        gather_engine_->gather(dataset_.features, sg.nodes);
    const compute::Tensor logits = model_->forward(sg, panel_view(panel));
    return compute::softmax_cross_entropy(logits, seed_labels(sg))
        .accuracy;
}

double
Trainer::evaluate_nodes(std::span<const graph::NodeId> nodes,
                        int64_t max_batches)
{
    FASTGL_CHECK(!nodes.empty(), "empty evaluation node list");
    const int64_t batch =
        opts_.batch_size > 0 ? opts_.batch_size : dataset_.batch_size;
    int64_t num_batches =
        (int64_t(nodes.size()) + batch - 1) / batch;
    if (max_batches > 0)
        num_batches = std::min(num_batches, max_batches);
    double acc_sum = 0.0;
    for (int64_t b = 0; b < num_batches; ++b) {
        const size_t begin = size_t(b * batch);
        const size_t end =
            std::min(nodes.size(), begin + size_t(batch));
        acc_sum += batch_accuracy(
            sampler_->sample(nodes.subspan(begin, end - begin)));
    }
    return acc_sum / double(num_batches);
}

double
Trainer::evaluate(int64_t max_batches)
{
    int64_t num_batches = splitter_.num_batches();
    if (max_batches > 0)
        num_batches = std::min(num_batches, max_batches);
    double acc_sum = 0.0;
    for (int64_t b = 0; b < num_batches; ++b)
        acc_sum += batch_accuracy(sampler_->sample(splitter_.batch(b)));
    return acc_sum / double(num_batches);
}

} // namespace core
} // namespace fastgl
