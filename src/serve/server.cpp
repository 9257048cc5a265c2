#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <utility>

#include "sample/neighbor_sampler.h"
#include "util/fnv.h"
#include "util/in_order_ring.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fastgl {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Stream tags for derive_seed (arbitrary, fixed forever). */
constexpr uint64_t kSampleStream = 0x5E31;

constexpr double kInf = std::numeric_limits<double>::infinity();

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

using util::double_bits;
using util::fnv;

} // namespace

struct Server::Sampled
{
    size_t index = 0; ///< Request id (= index into the request list).
    sample::SampledSubgraph sg;
};

struct Server::BatchCost
{
    double service = 0.0;  ///< Modelled seconds the device is busy.
    int64_t uniques = 0;   ///< Distinct nodes after batch dedup.
    /** Where the unique rows were found; misses() crossed PCIe. */
    store::ResidencyCharge residency;
    // --- Component decomposition of `service` (profiler feed). The
    // --- sum sample_s + id_map_s + io_s + compute_s reproduces
    // --- `service` bit-exactly (same addition order).
    double sample_s = 0.0; ///< Sampling term (0 with a sampler pool).
    double id_map_s = 0.0; ///< Fused-Map batch dedup term.
    double io_s = 0.0;     ///< PCIe + gather + peer + storage term.
    double compute_s = 0.0;///< Dedup-credited forward term.
};

Server::Server(const graph::Dataset &dataset, ServerOptions opts,
               sim::GpuSpec spec)
    : dataset_(dataset),
      opts_(std::move(opts)),
      spec_(std::move(spec)),
      kernels_(spec_),
      cost_model_(spec_, compute::ComputePlan::kMemoryAware),
      table_(1024)
{
    FASTGL_CHECK(!opts_.fanouts.empty(), "Server needs >= 1 fanout");
    FASTGL_CHECK(opts_.worker_threads >= 1,
                 "Server needs >= 1 sampler worker thread");
    FASTGL_CHECK(opts_.queue_depth >= 1, "Server needs a queue depth >= 1");
    FASTGL_CHECK(std::isfinite(opts_.drr_quantum) && opts_.drr_quantum > 0.0,
                 "Server needs a finite DRR quantum > 0");
    // Autoscaling implies a modelled sampler pool: it needs a pool to
    // scale. Resolve the implied size here so options() reports it.
    if (opts_.autoscale.enabled && opts_.modelled_samplers == 0)
        opts_.modelled_samplers = opts_.autoscale.min_workers;

    // Resolve the hosted tiers: either the explicit multi-model list
    // or one tier synthesized from the legacy single-model fields.
    const auto n = static_cast<int64_t>(dataset_.graph.num_nodes());
    std::vector<ModelTier> configs = opts_.models;
    if (configs.empty()) {
        ModelTier tier;
        tier.name = compute::model_type_name(opts_.model.type);
        tier.model = opts_.model;
        tier.batcher = opts_.batcher;
        tier.embedding = opts_.embedding;
        configs.push_back(std::move(tier));
    }
    tiers_.reserve(configs.size());
    for (ModelTier &config : configs) {
        Tier tier;
        if (config.fanouts.empty())
            config.fanouts = opts_.fanouts;
        if (config.model.in_dim == 0)
            config.model.in_dim = dataset.features.dim();
        if (config.model.num_classes == 0)
            config.model.num_classes = dataset.features.num_classes();
        config.model.num_layers =
            static_cast<int>(config.fanouts.size());
        tier.embedding = config.embedding;
        if (tier.embedding.capacity_rows < 0)
            tier.embedding.capacity_rows = std::max<int64_t>(1, n / 10);
        tier.config = std::move(config);
        tiers_.push_back(std::move(tier));
    }

    // Hotness ranking: shared by the feature cache and (through
    // popularity()) the load generator, so hot traffic and hot cache
    // rows describe the same nodes — as they do in a deployed system
    // whose cache is refilled from live access frequencies. A warmup
    // trace, being exactly such a record of live frequencies, takes
    // precedence over degree order.
    if (!opts_.warmup.empty()) {
        FASTGL_CHECK(opts_.warmup.frequencies.size() ==
                         static_cast<size_t>(n),
                     "warmup trace size != graph node count");
        ranking_ = match::presample_ranking(opts_.warmup.frequencies);
    } else {
        ranking_ = match::degree_ranking(dataset_.graph);
    }

    if (opts_.feature_cache_ratio > 0.0)
        feature_rows_ = std::clamp<int64_t>(
            static_cast<int64_t>(opts_.feature_cache_ratio *
                                 static_cast<double>(n)),
            0, n);

    // Every device's shard gets the full single-device row budget, so
    // sharded vs replicated compare at identical per-device memory and
    // sharding's win is pure coverage (the shards hold ~N x the rows).
    num_gpus_ = std::max(1, opts_.num_gpus);
    store::ResidencyOptions residency;
    residency.cache_rows = feature_rows_;
    residency.num_devices = num_gpus_;
    residency.shard_rows = feature_rows_;
    residency.partitioner = opts_.partitioner;
    residency.shard_mode = opts_.shard_mode;
    residency.storage = opts_.storage;
    residency_ = std::make_unique<store::FeatureResidency>(
        dataset_.features, dataset_.graph, ranking_, spec_, residency);

    if (opts_.compute_logits) {
        engine_ = std::make_unique<compute::KernelEngine>(
            opts_.compute_threads);
        // Sequential width: the sequencer thread must not contend with
        // the sampler workers for cores. Width never affects bits.
        gather_engine_ = std::make_unique<match::GatherEngine>(1);
        for (Tier &tier : tiers_) {
            tier.model =
                std::make_unique<compute::GnnModel>(tier.config.model);
            tier.model->set_engine(engine_.get());
        }
    }
}

Server::BatchCost
Server::cost_batch(size_t tier, int device,
                   const std::vector<PendingRequest> &batch)
{
    size_t hint = 0;
    for (const PendingRequest &pr : batch)
        hint += pr.subgraph.nodes.size();
    table_.reset(hint);
    const uint64_t probes_before = table_.probes();

    // Batch dedup: the union of all member ego-nets gets one dense
    // local-ID space (the Fused-Map pass of the batch), so a node two
    // requests share is gathered and shipped once.
    const compute::ModelConfig &model = tiers_[tier].config.model;
    int64_t instances = 0;
    int64_t uniq_sum = 0;
    int64_t edges = 0;
    uint64_t topo_bytes = 0;
    double compute_sum = 0.0;
    for (const PendingRequest &pr : batch) {
        for (graph::NodeId node : pr.subgraph.nodes)
            table_.insert(node);
        instances += pr.subgraph.num_nodes();
        uniq_sum += pr.subgraph.num_nodes();
        edges += pr.subgraph.edges_examined;
        topo_bytes += pr.subgraph.topology_bytes();
        const compute::ComputeCost cc =
            cost_model_.training_step(model, pr.subgraph);
        compute_sum += cc.forward + cc.preprocess;
    }
    BatchCost cost;
    cost.uniques = table_.size();

    // --- Modelled phases, all from measured counts ---
    const double sample_s = kernels_.sample_gpu(edges);
    sim::IdMapWorkload idw;
    idw.instances = instances;
    idw.uniques = cost.uniques;
    idw.probes =
        static_cast<int64_t>(table_.probes() - probes_before);
    const double id_map_s = kernels_.id_map_fused(idw);

    const std::vector<graph::NodeId> unique_nodes =
        table_.local_to_global();
    cost.residency = residency_->charge(device, unique_nodes);

    // Inference is the forward pass only; the dedup factor credits the
    // aggregation work the shared local-ID space avoids recomputing.
    const double dedup =
        uniq_sum > 0 ? static_cast<double>(cost.uniques) /
                           static_cast<double>(uniq_sum)
                     : 1.0;
    // With a modelled sampler pool the sampling time was charged
    // per-request at the pool, so the batch excludes it; without one
    // the decomposition sums bit-exactly to the legacy expression.
    cost.sample_s = opts_.modelled_samplers > 0 ? 0.0 : sample_s;
    cost.id_map_s = id_map_s;
    cost.io_s = residency_->io_seconds(cost.residency, topo_bytes);
    cost.compute_s = compute_sum * dedup;
    cost.service =
        cost.sample_s + cost.id_map_s + cost.io_s + cost.compute_s;
    return cost;
}

/**
 * The shared virtual event machine behind serve() and serve_closed():
 * every batcher, cache, admission decision, profiler record, and
 * fingerprint fold lives here, driven strictly by one sequencer
 * thread. serve() replays a fixed arrival-ordered trace through it;
 * serve_closed() runs a client event loop that decides arrivals as it
 * goes. Both observe the identical per-request machinery, so the
 * open-loop fingerprints of earlier PRs are preserved bit-exactly.
 */
struct Server::Engine
{
    Server &s;
    std::vector<InferenceResponse> &responses;
    const size_t num_tiers;

    // ---- Virtual-clock state, owned by the sequencer thread and ----
    // ---- read by the main thread only after the join.           ----
    struct VirtualState
    {
        /** Per-modelled-device busy-until time; [0] is the whole
         *  timeline in single-GPU runs. */
        std::vector<double> gpu_free_at;
        double last_event = 0.0;
        double busy = 0.0;
        double compute_wall = 0.0;   ///< Measured real-forward seconds.
        int64_t compute_batches = 0; ///< Batches with a real forward.
        int64_t rows_regenerated = 0; ///< ServingStats::rows_regenerated.
        int64_t rows_copied = 0;      ///< ServingStats::rows_copied.
        int64_t batch_members = 0;
        size_t processed = 0;
        std::deque<double> inflight; ///< Completion times, monotone.
        uint64_t fingerprint = util::kFnvOffset;
        ServingStats tallies; ///< Counter/latency fields only.
    } vs;

    // Per-tier virtual machinery: each hosted model has its own
    // batcher and one embedding cache per modelled device (a device's
    // cache holds the embeddings its batches computed); the feature
    // cache and the dedup table stay shared. Single-GPU runs build
    // exactly the legacy one-cache-per-tier layout.
    std::vector<DynamicBatcher> batchers;
    std::vector<EmbeddingCache> embeddings;
    std::vector<double> pending_cost; ///< DRR estimate, per tier.
    DrrScheduler drr;
    /** Per-stage recorder; a no-op unless ServerOptions::profile. */
    prof::Profiler profiler;
    /** Modelled sampler pool: per-worker busy-until times. Empty when
     *  modelled_samplers == 0 (legacy inline sampling model). */
    std::vector<double> sampler_free;
    /** Elastic pool control; engaged iff opts.autoscale.enabled. */
    std::optional<Autoscaler> scaler;
    /** Configured embedding capacity per tier (cache elasticity). */
    std::vector<int64_t> base_cache_rows;
    /** Closed-loop hook: called once per request with the virtual
     *  time its fate was decided (completion when served, arrival
     *  when refused) — the client's think timer starts there. */
    std::function<void(int64_t id, double at)> decided;
    int closed_clients = 0; ///< ServingStats::closed_loop_clients.

    // Real-forward gather scratch (gather_shared_rows), reused across
    // dispatches.
    std::vector<int64_t> slot_of;       ///< Per batch-union local ID.
    std::vector<int64_t> shared_row_of; ///< Per member row, in order.
    std::vector<graph::NodeId> shared_nodes; ///< Shared panel's rows.

    Engine(Server &server, std::vector<InferenceResponse> &resp)
        : s(server),
          responses(resp),
          num_tiers(server.tiers_.size()),
          drr(server.tiers_.size(), server.opts_.drr_quantum),
          profiler(server.opts_.profile)
    {
        vs.tallies.per_model.resize(num_tiers);
        vs.gpu_free_at.assign(static_cast<size_t>(s.num_gpus_), 0.0);
        pending_cost.assign(num_tiers, 0.0);
        batchers.reserve(num_tiers);
        embeddings.reserve(num_tiers *
                           static_cast<size_t>(s.num_gpus_));
        base_cache_rows.reserve(num_tiers);
        for (const Tier &tier : s.tiers_) {
            batchers.emplace_back(tier.config.batcher);
            for (int d = 0; d < s.num_gpus_; ++d)
                embeddings.emplace_back(tier.embedding);
            base_cache_rows.push_back(tier.embedding.capacity_rows);
        }
        for (size_t m = 0; m < num_tiers; ++m)
            profiler.set_tier_name(m, s.tiers_[m].config.name);
        if (s.opts_.modelled_samplers > 0)
            sampler_free.assign(
                static_cast<size_t>(s.opts_.modelled_samplers), 0.0);
        if (s.opts_.autoscale.enabled)
            scaler.emplace(s.opts_.autoscale,
                           s.opts_.modelled_samplers);
        s.residency_->begin_run();

        // Cache warmup: seed each tier's embedding cache with the
        // hottest nodes of the recorded ranking at virtual time 0,
        // coldest first so the hottest rows end up most-recently-used.
        // Seeding is part of the virtual world (same trace -> same
        // seeded state -> same responses), not a side effect of
        // previous runs.
        if (!s.opts_.warmup.empty()) {
            for (size_t m = 0; m < num_tiers; ++m) {
                for (int d = 0; d < s.num_gpus_; ++d) {
                    // The hottest rows this device owns (all rows when
                    // single-GPU), seeded coldest first so the hottest
                    // end up most-recently-used.
                    const int64_t cap = std::min<int64_t>(
                        s.tiers_[m].embedding.capacity_rows,
                        static_cast<int64_t>(s.ranking_.size()));
                    std::vector<graph::NodeId> owned;
                    for (graph::NodeId node : s.ranking_) {
                        if (static_cast<int64_t>(owned.size()) >= cap)
                            break;
                        if (s.residency_->home_device(node) == d)
                            owned.push_back(node);
                    }
                    for (size_t i = owned.size(); i-- > 0;)
                        emb(m, d).update(owned[i], 0.0);
                    vs.tallies.per_model[m].warmed_rows +=
                        emb(m, d).size();
                    vs.tallies.warmed_rows += emb(m, d).size();
                }
            }
            vs.tallies.warmed = true;
        }
    }

    EmbeddingCache &
    emb(size_t m, int d)
    {
        return embeddings[m * static_cast<size_t>(s.num_gpus_) +
                          static_cast<size_t>(d)];
    }

    double
    min_free() const
    {
        return *std::min_element(vs.gpu_free_at.begin(),
                                 vs.gpu_free_at.end());
    }

    void
    respond(const InferenceRequest &req, Outcome outcome,
            double completion, int64_t batch_id)
    {
        InferenceResponse &resp =
            responses[static_cast<size_t>(req.id)];
        resp.outcome = outcome;
        resp.batch_id = batch_id;
        PriorityClassStats &cls =
            vs.tallies.per_class[static_cast<size_t>(req.priority)];
        ModelTierStats &tier =
            vs.tallies.per_model[static_cast<size_t>(req.model)];
        if (is_served(outcome)) {
            resp.completion = completion;
            resp.latency = completion - req.arrival;
            vs.tallies.latencies.add(resp.latency);
            cls.latencies.add(resp.latency);
            ++vs.tallies.served;
            ++cls.served;
            ++tier.served;
            if (outcome == Outcome::kServedLate) {
                ++vs.tallies.served_late;
                ++cls.served_late;
            }
            if (outcome == Outcome::kEmbeddingHit) {
                ++vs.tallies.embedding_hits;
                ++cls.embedding_hits;
                ++tier.embedding_hits;
            }
            vs.last_event = std::max(vs.last_event, completion);
        } else if (outcome == Outcome::kShedQueue) {
            ++vs.tallies.shed_queue;
            ++cls.shed_queue;
        } else if (outcome == Outcome::kDroppedDeadline) {
            ++vs.tallies.dropped_deadline;
            ++cls.dropped_deadline;
        }
        vs.fingerprint = fnv(vs.fingerprint,
                             static_cast<uint64_t>(req.id));
        vs.fingerprint =
            fnv(vs.fingerprint, static_cast<uint64_t>(outcome));
        vs.fingerprint =
            fnv(vs.fingerprint, static_cast<uint64_t>(req.priority));
        vs.fingerprint =
            fnv(vs.fingerprint, static_cast<uint64_t>(req.model));
        vs.fingerprint = fnv(vs.fingerprint, double_bits(resp.latency));
        // Closed loop: the client's think timer starts the moment its
        // request's fate is known — completion when served, right at
        // the refusal otherwise.
        if (decided)
            decided(req.id,
                    is_served(outcome) ? completion : req.arrival);
    }

    void
    dispatch(size_t m, double at)
    {
        const std::vector<PendingRequest> batch = batchers[m].take();
        pending_cost[m] = 0.0;
        drr.reset(m); // queue emptied: no banked credit while idle
        const int64_t batch_id = vs.tallies.batches++;
        // Partition-affinity routing: the batch executes on the device
        // owning its oldest request's first target, where that
        // partition's hot rows are cached; 0 when single-GPU.
        const int dev =
            s.residency_->home_device(batch.front().request.targets);
        const double free_before =
            vs.gpu_free_at[static_cast<size_t>(dev)];
        const double start = std::max(free_before, at);
        const BatchCost cost = s.cost_batch(m, dev, batch);
        // Dispatched requests leave the prefetch window; their staged
        // blocks (hit or not) stop pinning window references.
        for (const PendingRequest &pr : batch)
            s.residency_->complete_batch(pr.request.id);
        const double completion = start + cost.service;
        vs.gpu_free_at[static_cast<size_t>(dev)] = completion;
        vs.busy += cost.service;
        vs.batch_members += static_cast<int64_t>(batch.size());
        ModelTierStats &tier = vs.tallies.per_model[m];
        ++tier.batches;
        tier.mean_batch_size += static_cast<double>(batch.size());
        tier.gpu_busy_seconds += cost.service;
        // Per-stage accounting (pure observation; no feedback). The
        // sampler stage holds sampling + Fused-Map service (Fused-Map
        // only when a sampler pool charges sampling per-request), the
        // sequencer stage holds each member's arrival-to-dispatch
        // delay, and the device row conserves busy + idle gaps.
        profiler.record(prof::Stage::kSampler, 0.0,
                        cost.sample_s + cost.id_map_s,
                        static_cast<int64_t>(batch.size()));
        profiler.record(prof::Stage::kGather, 0.0, cost.io_s,
                        cost.uniques);
        profiler.record(prof::Stage::kCompute, start - at,
                        cost.compute_s,
                        static_cast<int64_t>(batch.size()));
        if (s.residency_->storage_active())
            profiler.record(prof::Stage::kStorage, 0.0,
                            cost.residency.storage_seconds,
                            cost.residency.misses());
        for (const PendingRequest &pr : batch)
            profiler.record(prof::Stage::kSequencer,
                            at - pr.request.arrival, 0.0, 1);
        profiler.record_tier(m, start - at, cost.service,
                             static_cast<int64_t>(batch.size()));
        profiler.record_device(dev, start - free_before, cost.service,
                               completion);
        vs.fingerprint = fnv(vs.fingerprint,
                             static_cast<uint64_t>(batch_id));
        vs.fingerprint = fnv(vs.fingerprint, static_cast<uint64_t>(m));
        vs.fingerprint = fnv(vs.fingerprint, batch.size());
        vs.fingerprint = fnv(vs.fingerprint,
                             static_cast<uint64_t>(cost.uniques));
        vs.fingerprint = fnv(vs.fingerprint,
                             static_cast<uint64_t>(
                                 cost.residency.misses()));
        vs.fingerprint = fnv(vs.fingerprint, double_bits(completion));
        // Routed device joins the digest only in multi-GPU runs, so
        // single-GPU fingerprints stay byte-identical to earlier PRs.
        if (s.num_gpus_ > 1)
            vs.fingerprint =
                fnv(vs.fingerprint, static_cast<uint64_t>(dev));
        for (const PendingRequest &pr : batch) {
            respond(pr.request,
                    completion > pr.request.deadline
                        ? Outcome::kServedLate
                        : Outcome::kServed,
                    completion, batch_id);
            vs.inflight.push_back(completion);
            for (graph::NodeId node : pr.request.targets)
                emb(m, dev).update(node, completion);
        }

        // Real numeric forward (opt-in): runs on the sequencer thread,
        // after the virtual accounting, so the modelled world is
        // untouched. Batch composition is deterministic, the engine is
        // deterministic at any width, and requests are replayed in
        // arrival order — so predictions (and the fingerprint words
        // they add) are bit-identical across runs and thread counts.
        if (s.tiers_[m].model) {
            const Clock::time_point c0 = Clock::now();
            const match::FeaturePanel shared = gather_shared_rows(batch);
            std::span<const int64_t> shared_rows(shared_row_of);
            for (const PendingRequest &pr : batch) {
                const sample::SampledSubgraph &sg = pr.subgraph;
                // Batched gather into a leased panel, forwarded as a
                // zero-copy view — no per-request tensor allocation.
                match::FeaturePanel panel = s.gather_engine_->gather(
                    s.dataset_.features, sg.nodes, shared,
                    shared_rows.first(sg.nodes.size()));
                shared_rows = shared_rows.subspan(sg.nodes.size());
                const compute::Tensor x = compute::Tensor::view(
                    panel.data(), panel.rows(), panel.dim());
                const compute::Tensor logits =
                    s.tiers_[m].model->forward(sg, x);
                std::vector<int> &pred =
                    responses[static_cast<size_t>(pr.request.id)]
                        .predicted;
                pred.resize(static_cast<size_t>(sg.num_seeds));
                for (int64_t seed = 0; seed < sg.num_seeds; ++seed) {
                    int best = 0;
                    for (int64_t c = 1; c < logits.cols(); ++c) {
                        if (logits.at(seed, c) > logits.at(seed, best))
                            best = static_cast<int>(c);
                    }
                    pred[static_cast<size_t>(seed)] = best;
                    vs.fingerprint =
                        fnv(vs.fingerprint,
                            static_cast<uint64_t>(best));
                }
            }
            vs.compute_wall += seconds_since(c0);
            ++vs.compute_batches;
        }
    }

    /**
     * Gather, once, every feature row two or more members of @p batch
     * use, and leave in shared_row_of, member after member, each
     * member row's row in the returned panel (-1 when that member
     * alone uses it). table_ still maps the batch union to local IDs:
     * cost_batch filled it and has read its probe count, so these
     * lookups move no modelled number.
     */
    match::FeaturePanel
    gather_shared_rows(const std::vector<PendingRequest> &batch)
    {
        // Per local ID: kUnseen, kOnce, then its shared-panel row.
        constexpr int64_t kUnseen = -2, kOnce = -1;
        slot_of.assign(static_cast<size_t>(s.table_.size()), kUnseen);
        shared_row_of.clear();
        shared_nodes.clear();
        for (const PendingRequest &pr : batch) {
            for (graph::NodeId node : pr.subgraph.nodes) {
                const graph::NodeId local = s.table_.lookup(node);
                shared_row_of.push_back(local);
                int64_t &slot = slot_of[static_cast<size_t>(local)];
                if (slot == kUnseen) {
                    slot = kOnce;
                } else if (slot == kOnce) {
                    slot = static_cast<int64_t>(shared_nodes.size());
                    shared_nodes.push_back(node);
                }
            }
        }
        int64_t own = 0;
        for (int64_t &row : shared_row_of) {
            row = slot_of[static_cast<size_t>(row)];
            own += row < 0;
        }
        // Every row of the union is regenerated once: a shared row
        // into the shared panel, any other into its member's panel.
        // Each further use of a shared row is a copy instead.
        const int64_t regenerated =
            own + static_cast<int64_t>(shared_nodes.size());
        vs.rows_regenerated += regenerated;
        vs.rows_copied +=
            static_cast<int64_t>(shared_row_of.size()) - regenerated;
        if (shared_nodes.empty())
            return {};
        return s.gather_engine_->gather(s.dataset_.features, shared_nodes);
    }

    // Wait-triggered batch closes up to virtual time @p now. When
    // several tiers have a closed batch contending for the device,
    // deficit round robin (costed with the admitted requests' modelled
    // compute seconds) picks the dispatch order — a cheap tier is not
    // starved behind an expensive one.
    void
    flush_closed(double now)
    {
        for (;;) {
            std::vector<char> ready(num_tiers, 0);
            size_t num_ready = 0;
            size_t only = 0;
            for (size_t m = 0; m < num_tiers; ++m) {
                if (!batchers[m].empty() &&
                    batchers[m].close_time() <= now) {
                    ready[m] = 1;
                    only = m;
                    ++num_ready;
                }
            }
            if (num_ready == 0)
                return;
            const size_t m = num_ready == 1
                                 ? only
                                 : drr.pick(ready, pending_cost);
            dispatch(m, batchers[m].close_time());
        }
    }

    /** Resize the sampler pool (and the elastic cache budgets) to
     *  @p target workers at virtual time @p now. */
    void
    apply_scale(double now, int target)
    {
        const int current = static_cast<int>(sampler_free.size());
        if (target > current) {
            // New workers come up free at the decision time; existing
            // workers keep their committed backlog.
            sampler_free.resize(static_cast<size_t>(target), now);
        } else if (target < current) {
            // Retire the highest-index workers; work they already
            // accepted was charged to its requests at admission.
            sampler_free.resize(static_cast<size_t>(target));
        }
        const AutoscalerOptions &ao = s.opts_.autoscale;
        if (ao.cache_grow != 1.0) {
            const int span =
                std::max(1, ao.max_workers - ao.min_workers);
            const double factor =
                1.0 + (ao.cache_grow - 1.0) *
                          static_cast<double>(target -
                                              ao.min_workers) /
                          static_cast<double>(span);
            for (size_t m = 0; m < num_tiers; ++m) {
                const int64_t rows = std::max<int64_t>(
                    1, static_cast<int64_t>(
                           static_cast<double>(base_cache_rows[m]) *
                           factor));
                for (int d = 0; d < s.num_gpus_; ++d)
                    emb(m, d).set_capacity(rows);
            }
        }
    }

    void
    on_request(const InferenceRequest &req,
               sample::SampledSubgraph sg)
    {
        const size_t m = static_cast<size_t>(req.model);
        const size_t cls = static_cast<size_t>(req.priority);
        const double now = req.arrival;
        vs.last_event = std::max(vs.last_event, now);
        ++vs.tallies.per_class[cls].offered;
        ++vs.tallies.per_model[m].offered;
        profiler.record(prof::Stage::kFeeder, 0.0, 0.0, 1);

        // Wait-triggered batch closes that fall before this arrival.
        flush_closed(now);
        // Retire requests whose batches completed by now.
        while (!vs.inflight.empty() && vs.inflight.front() <= now)
            vs.inflight.pop_front();

        // Elastic capacity: arrivals crossing the check interval are
        // the deterministic decision points of the autoscaler.
        if (scaler && !sampler_free.empty()) {
            const int target = scaler->maybe_scale(
                now, static_cast<int>(sampler_free.size()));
            if (target > 0)
                apply_scale(now, target);
        }

        // Embedding cache: a request whose every target has a fresh
        // embedding (from this tier's model) skips sampling, PCIe,
        // and compute entirely. The home device's cache is checked
        // first (free hit); in multi-GPU runs a peer device whose
        // batches computed all the targets serves the hit across the
        // interconnect instead of re-running the model.
        const int home = s.residency_->home_device(req.targets);
        bool all_fresh =
            emb(m, home).enabled() && !req.targets.empty();
        for (graph::NodeId node : req.targets)
            all_fresh = emb(m, home).lookup(node, now) && all_fresh;
        if (all_fresh) {
            respond(req, Outcome::kEmbeddingHit,
                    now + s.spec_.kernel_launch_latency, -1);
            return;
        }
        if (s.num_gpus_ > 1 && emb(m, home).enabled() &&
            !req.targets.empty()) {
            const uint64_t row_bytes =
                static_cast<uint64_t>(
                    s.tiers_[m].config.model.hidden_dim) *
                sizeof(float);
            for (int d = 0; d < s.num_gpus_; ++d) {
                if (d == home)
                    continue;
                bool fresh = true;
                for (graph::NodeId node : req.targets)
                    fresh = emb(m, d).lookup(node, now) && fresh;
                if (!fresh)
                    continue;
                const double hop = s.residency_->peer_transfer(
                    d, home,
                    static_cast<uint64_t>(req.targets.size()) *
                        row_bytes);
                ++vs.tallies.embedding_remote_hits;
                respond(req, Outcome::kEmbeddingHit,
                        now + s.spec_.kernel_launch_latency + hop,
                        -1);
                return;
            }
        }

        // Admission control. The pending bound is weighted per class:
        // best-effort traffic is refused while the queue still has
        // room for standard and paid traffic, so overload sheds in
        // strict class order.
        int64_t pending = static_cast<int64_t>(vs.inflight.size());
        for (const DynamicBatcher &b : batchers)
            pending += static_cast<int64_t>(b.size());
        if (s.opts_.admission.max_pending > 0) {
            const int64_t bound = std::max<int64_t>(
                1, static_cast<int64_t>(
                       static_cast<double>(
                           s.opts_.admission.max_pending) *
                       s.opts_.admission.class_weight[cls]));
            if (pending >= bound) {
                profiler.count_shed(prof::Stage::kFeeder);
                respond(req, Outcome::kShedQueue, 0.0, -1);
                return;
            }
        }
        if (s.opts_.admission.early_drop &&
            std::max(min_free(), now) >=
                req.deadline -
                    s.opts_.admission.deadline_headroom[cls]) {
            profiler.count_drop(prof::Stage::kFeeder);
            respond(req, Outcome::kDroppedDeadline, 0.0, -1);
            return;
        }

        // Admit: the request's modelled compute cost feeds the DRR
        // arbiter's estimate of what this tier's open batch will
        // charge the shared device.
        const compute::ComputeCost cc = s.cost_model_.training_step(
            s.tiers_[m].config.model, sg);
        pending_cost[m] += cc.forward + cc.preprocess;
        // Admission-time prefetch: the request waits in the batcher
        // anyway, so its storage blocks can stage now — overlapped
        // with the batching delay, not stalled at dispatch.
        s.residency_->stage_future_batch(req.id, sg.nodes);
        // Modelled sampler pool: the request occupies the earliest-
        // free virtual worker for its modelled sampling time before it
        // may join the batch (the wait here is what the autoscaler
        // watches). Batch service then excludes the sampling term.
        double join_at = now;
        if (!sampler_free.empty()) {
            size_t w = 0;
            for (size_t i = 1; i < sampler_free.size(); ++i) {
                if (sampler_free[i] < sampler_free[w])
                    w = i;
            }
            const double start = std::max(now, sampler_free[w]);
            const double service =
                s.kernels_.sample_gpu(sg.edges_examined);
            sampler_free[w] = start + service;
            const double wait = start - now;
            profiler.record(prof::Stage::kSampler, wait, service, 1);
            if (scaler)
                scaler->observe(now, wait, service);
            join_at = sampler_free[w];
            vs.last_event = std::max(vs.last_event, join_at);
            // The pool may deliver past pending batch closes; replay
            // them before this request joins its batcher.
            if (join_at > now)
                flush_closed(join_at);
        }
        batchers[m].admit({req, std::move(sg)}, join_at);
        if (batchers[m].full())
            dispatch(m, join_at);
    }

    // ---- Fold the virtual world into the report (post-join; the ----
    // ---- sequencer thread is gone, so plain reads are safe).    ----
    void
    finalize()
    {
        ServingStats &st = s.stats_;
        const ServingStats &tl = vs.tallies;
        st.offered = static_cast<int64_t>(vs.processed);
        st.served = tl.served;
        st.served_late = tl.served_late;
        st.embedding_hits = tl.embedding_hits;
        st.shed_queue = tl.shed_queue;
        st.dropped_deadline = tl.dropped_deadline;
        st.batches = tl.batches;
        st.mean_batch_size =
            st.batches ? static_cast<double>(vs.batch_members) /
                             static_cast<double>(st.batches)
                       : 0.0;
        st.makespan = vs.last_event;
        st.throughput_rps =
            st.makespan > 0.0
                ? static_cast<double>(st.served) / st.makespan
                : 0.0;
        st.goodput_rps =
            st.makespan > 0.0
                ? static_cast<double>(st.served - st.served_late) /
                      st.makespan
                : 0.0;
        st.latencies = tl.latencies;
        st.mean_latency = st.latencies.mean();
        const double ps[] = {50.0, 95.0, 99.0};
        const std::vector<double> pct = st.latencies.percentiles(ps);
        st.p50_latency = pct[0];
        st.p95_latency = pct[1];
        st.p99_latency = pct[2];
        st.shed_rate =
            st.offered
                ? static_cast<double>(st.shed_queue +
                                      st.dropped_deadline) /
                      static_cast<double>(st.offered)
                : 0.0;
        st.per_class = tl.per_class;
        const double class_ps[] = {50.0, 99.0};
        for (PriorityClassStats &cls : st.per_class) {
            const std::vector<double> cpct =
                cls.latencies.percentiles(class_ps);
            cls.p50_latency = cpct[0];
            cls.p99_latency = cpct[1];
            cls.shed_rate =
                cls.offered
                    ? static_cast<double>(cls.shed_queue +
                                          cls.dropped_deadline) /
                          static_cast<double>(cls.offered)
                    : 0.0;
        }
        st.per_model = tl.per_model;
        int64_t embed_hits = 0, embed_misses = 0;
        for (size_t m = 0; m < num_tiers; ++m) {
            ModelTierStats &tier = st.per_model[m];
            tier.name = s.tiers_[m].config.name;
            tier.mean_batch_size =
                tier.batches ? tier.mean_batch_size /
                                   static_cast<double>(tier.batches)
                             : 0.0;
            int64_t th = 0, tm = 0;
            for (int d = 0; d < s.num_gpus_; ++d) {
                th += emb(m, d).hits();
                tm += emb(m, d).misses();
            }
            tier.embedding_hit_rate =
                s.num_gpus_ == 1 ? emb(m, 0).hit_rate()
                : th + tm        ? static_cast<double>(th) /
                                  static_cast<double>(th + tm)
                                 : 0.0;
            embed_hits += th;
            embed_misses += tm;
        }
        st.warmed = tl.warmed;
        st.warmed_rows = tl.warmed_rows;
        st.num_gpus = s.num_gpus_;
        st.embedding_remote_hits = tl.embedding_remote_hits;
        st.residency = s.residency_->stats();
        st.embedding_hit_rate =
            embed_hits + embed_misses
                ? static_cast<double>(embed_hits) /
                      static_cast<double>(embed_hits + embed_misses)
                : 0.0;
        st.gpu_busy_seconds = vs.busy;
        st.gpu_utilization =
            st.makespan > 0.0
                ? vs.busy / (st.makespan * s.num_gpus_)
                : 0.0;
        st.fingerprint = vs.fingerprint;
        st.compute_seconds = vs.compute_wall;
        st.compute_batches = vs.compute_batches;
        st.rows_regenerated = vs.rows_regenerated;
        st.rows_copied = vs.rows_copied;
        if (s.engine_)
            st.compute_gflops = s.engine_->stats().gemm_gflops();
        st.modelled_samplers = s.opts_.modelled_samplers;
        st.closed_loop_clients = closed_clients;
        if (scaler)
            st.autoscale = scaler->report(
                static_cast<int>(sampler_free.size()));
        profiler.set_makespan(st.makespan);
        st.profile = profiler.report();
    }
};

std::vector<InferenceResponse>
Server::run(std::span<const InferenceRequest> requests,
            int closed_clients, const Driver &drive)
{
    stats_ = ServingStats{};
    if (engine_)
        engine_->reset_stats();
    const Clock::time_point wall_start = Clock::now();
    const size_t total = requests.size();

    std::vector<InferenceResponse> responses(total);
    for (size_t i = 0; i < total; ++i) {
        FASTGL_CHECK(requests[i].id == static_cast<int64_t>(i),
                     "requests need dense ids 0..n-1 in order");
        FASTGL_CHECK(requests[i].model >= 0 &&
                         static_cast<size_t>(requests[i].model) <
                             tiers_.size(),
                     "request routed to a model tier the server "
                     "does not host");
        responses[i].request_id = requests[i].id;
    }

    util::BoundedQueue<size_t> work_queue(opts_.queue_depth);
    DoneQueue done_queue(opts_.queue_depth);
    shutdown_.begin_run([&work_queue, &done_queue] {
        work_queue.close();
        done_queue.close();
    });

    std::mutex error_mu;
    std::exception_ptr first_error;
    auto fail = [&](std::exception_ptr error) {
        {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error)
                first_error = error;
        }
        work_queue.fail(error);
        done_queue.fail(error);
    };

    Engine machine(*this, responses);
    machine.closed_clients = closed_clients;

    std::mutex merge_mu; ///< Guards stats_.worker_sample_seconds.

    auto worker = [&] {
        util::SampleStat local;
        try {
            // One sampler per tier: tiers may sample with different
            // fanouts. A request's subgraph is a pure function of
            // (seed, request id, tier fanouts), never of the worker.
            std::vector<std::unique_ptr<sample::NeighborSampler>>
                samplers;
            samplers.reserve(tiers_.size());
            for (const Tier &tier : tiers_) {
                sample::NeighborSamplerOptions nopts;
                nopts.fanouts = tier.config.fanouts;
                nopts.seed = opts_.seed + 101;
                samplers.push_back(
                    std::make_unique<sample::NeighborSampler>(
                        dataset_.graph, nopts));
            }
            for (;;) {
                const std::optional<size_t> index = work_queue.pop();
                if (!index)
                    break; // closed and drained
                const InferenceRequest &req = requests[*index];
                if (opts_.sample_hook)
                    opts_.sample_hook(req.id);
                const Clock::time_point t0 = Clock::now();
                Sampled sampled;
                sampled.index = *index;
                sampled.sg =
                    samplers[static_cast<size_t>(req.model)]->sample(
                        req.targets,
                        util::derive_seed(
                            opts_.seed, kSampleStream,
                            static_cast<uint64_t>(req.id)));
                local.add(seconds_since(t0));
                if (!done_queue.push(std::move(sampled)))
                    break; // closed (stop) or failed
            }
        } catch (...) {
            fail(std::current_exception());
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        stats_.worker_sample_seconds.merge(local);
    };

    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(opts_.worker_threads));
    for (int i = 0; i < opts_.worker_threads; ++i)
        workers.emplace_back(worker);
    std::thread sequencer([&] {
        try {
            machine.vs.processed = drive(machine, done_queue);
        } catch (...) {
            fail(std::current_exception());
        }
    });

    // The caller is the feeder stage: speculative pre-sampling in id
    // order, whatever order the driver later consumes the ids in.
    for (size_t i = 0; i < total; ++i) {
        if (!work_queue.push(i))
            break; // closed (stop) or failed
    }
    work_queue.close();
    for (std::thread &t : workers)
        t.join();
    done_queue.close();
    sequencer.join();

    stats_.wall_seconds = seconds_since(wall_start);
    stats_.stopped_early = shutdown_.stop_requested();
    shutdown_.end_run();
    {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error)
            std::rethrow_exception(first_error);
    }

    machine.finalize();
    stats_.work_queue = work_queue.stats();
    stats_.done_queue = done_queue.stats();
    return responses;
}

std::vector<InferenceResponse>
Server::serve(const std::vector<InferenceRequest> &trace)
{
    return run(trace, 0, [&](Engine &machine, DoneQueue &done) {
        // Workers finish out of order; the event machine replays
        // strictly in arrival order. The ring is seeded with the usual
        // number of requests in flight, so memory stays bounded by the
        // queue depths, not by the trace length.
        util::InOrderRing<Sampled> ring(
            opts_.queue_depth * 2 +
            static_cast<size_t>(opts_.worker_threads) + 1);
        while (ring.next() < trace.size()) {
            std::optional<Sampled> item = done.pop();
            if (!item)
                break; // closed (stop) and drained
            const size_t index = item->index;
            ring.put(index, std::move(*item));
            while (ring.ready()) {
                Sampled sampled = ring.pop();
                machine.on_request(trace[sampled.index],
                                   std::move(sampled.sg));
            }
        }
        // Trace exhausted: dispatch the final partial batches.
        if (ring.next() == trace.size())
            machine.flush_closed(kInf);
        return ring.next();
    });
}

std::vector<InferenceResponse>
Server::serve_closed(const ClosedLoopScript &script)
{
    const size_t total = script.requests.size();
    const int num_clients = script.num_clients;
    FASTGL_CHECK(num_clients > 0,
                 "closed-loop script needs >= 1 client");
    FASTGL_CHECK(script.think.size() == total,
                 "closed-loop script think times != request count");
    FASTGL_CHECK(total % static_cast<size_t>(num_clients) == 0,
                 "closed-loop script requests must divide evenly "
                 "across clients");

    // Client state, touched only by the sequencer thread: request k of
    // client c carries the script id k * num_clients + c; a client's
    // next arrival is decided by the event machine (decision time +
    // think).
    const int64_t per_client = static_cast<int64_t>(total) / num_clients;
    std::vector<int64_t> next_k(static_cast<size_t>(num_clients), 0);
    using Event = std::pair<double, int>; ///< (arrival, client).
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        arrivals;

    return run(script.requests, num_clients, [&](Engine &machine,
                                                 DoneQueue &done) {
        machine.decided = [&](int64_t id, double at) {
            const int c = static_cast<int>(id % num_clients);
            const int64_t k = id / num_clients;
            if (k + 1 < per_client) {
                const int64_t next_id = (k + 1) * num_clients + c;
                arrivals.push(
                    {at + script.think[static_cast<size_t>(next_id)],
                     c});
            }
        };
        // Parked pre-sampled subgraphs, by script id. Unlike the open
        // loop, the event loop needs ids in *its* order (the clients'
        // order), so everything the workers deliver is parked until
        // the loop asks for it.
        std::vector<sample::SampledSubgraph> parked(total);
        std::vector<char> have(total, 0);
        auto obtain = [&](size_t id) -> bool {
            while (!have[id]) {
                std::optional<Sampled> item = done.pop();
                if (!item)
                    return false; // closed (stop) and drained
                parked[item->index] = std::move(item->sg);
                have[item->index] = 1;
            }
            return true;
        };
        // Every client thinks once before its first request.
        for (int c = 0; c < num_clients; ++c)
            arrivals.push({script.think[static_cast<size_t>(c)], c});
        size_t processed = 0;
        for (;;) {
            // Next event: the earliest batch close or the earliest
            // client arrival, whichever is first (closes win ties —
            // they were scheduled earlier).
            double t_close = kInf;
            for (const DynamicBatcher &batcher : machine.batchers)
                t_close = std::min(t_close, batcher.close_time());
            const double t_arrival =
                arrivals.empty() ? kInf : arrivals.top().first;
            if (t_close == kInf && t_arrival == kInf)
                break; // no batches open, no client waiting
            if (t_close <= t_arrival) {
                machine.flush_closed(t_close);
                continue;
            }
            const Event ev = arrivals.top();
            arrivals.pop();
            const int c = ev.second;
            const int64_t k = next_k[static_cast<size_t>(c)]++;
            const size_t id = static_cast<size_t>(k * num_clients + c);
            if (!obtain(id))
                break; // stop requested
            // The script carries the *relative* SLO budget; the event
            // loop stamps the absolute times it decided.
            InferenceRequest req = script.requests[id];
            req.arrival = ev.first;
            req.deadline += ev.first;
            ++processed;
            machine.on_request(req, std::move(parked[id]));
            parked[id] = sample::SampledSubgraph{};
        }
        return processed;
    });
}

} // namespace serve
} // namespace fastgl
