/**
 * @file
 * The online GNN inference server (fastgl::serve) — the trained-model
 * substrate (samplers, Fused-Map, feature cache, device model) turned
 * into a request/response service with dynamic micro-batching, an
 * embedding cache, and SLO-aware admission control.
 *
 * Two clocks coexist, exactly as in core::AsyncPipeline:
 *
 *  - the *virtual* clock: request arrivals, batch close times, queue
 *    depths, admission decisions, and every latency a client observes
 *    are modelled seconds produced by sim::KernelModel and the PCIe
 *    constants from *measured* counts (edges examined, hash probes,
 *    cache misses). This world is bit-identical across runs and worker
 *    thread counts;
 *  - the *measured* host wall clock: worker threads really sample
 *    ego-nets concurrently over util::BoundedQueue, and ServingStats
 *    reports how long that took. These numbers vary run to run and
 *    never feed back into the virtual world.
 *
 * Stage graph (arrows are BoundedQueues):
 *
 *   feeder ──ids──> sampler workers ──ego-nets──> sequencer
 *   (caller thread)  (per-thread sampler,          (arrival driver +
 *                     per-request RNG stream)       virtual-time event
 *                                                   machine)
 *
 * serve() and serve_closed() are two drivers of one harness (run()):
 * the harness owns the stage graph, shutdown, error propagation and
 * statistics, and the driver is the sequencer body. The open-loop
 * driver replays requests in arrival order through a
 * util::InOrderRing, the reassembly ring core::AsyncPipeline uses per
 * GPU; the closed-loop driver runs the client event loop and parks
 * ego-nets by request id until their client issues them. Either way
 * the sequencer runs the entire virtual-time state machine — batchers,
 * caches, admission — alone, the same single-writer discipline that
 * keeps the training pipeline's Match/Reorder chain deterministic.
 * Workers sample every request's ego-net speculatively, before
 * admission is decided: the per-request RNG streams make that safe (a
 * shed request's subgraph is simply discarded) and it keeps the
 * expensive host work off the sequencer.
 *
 * One Server can host several model tiers (ServerOptions::models, e.g.
 * a cheap GCN tier next to an expensive GAT tier) behind one front
 * door: each tier owns a DynamicBatcher and an EmbeddingCache, while
 * the device timeline (`gpu_free_at`), the layer-0 feature cache, and
 * admission control are shared. Closed batches from different tiers
 * are interleaved by deficit round robin (DrrScheduler) costed in
 * modelled seconds, requests carry a Priority class that admission
 * control sheds in class order under overload, and a recorded warmup
 * trace (ServerOptions::warmup) can seed both caches so the server
 * does not start cold. All of it stays on the virtual clock:
 * bit-identical at any worker count, per class and per tier.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compute/compute_cost.h"
#include "compute/gnn_model.h"
#include "compute/kernel_engine.h"
#include "graph/datasets.h"
#include "match/feature_cache.h"
#include "match/gather_engine.h"
#include "prof/profiler.h"
#include "sample/fused_hash_table.h"
#include "serve/autoscaler.h"
#include "serve/batcher.h"
#include "serve/embedding_cache.h"
#include "serve/load_generator.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "sim/gpu_spec.h"
#include "sim/kernel_model.h"
#include "store/residency.h"
#include "util/bounded_queue.h"
#include "util/shutdown.h"
#include "util/stats.h"

namespace fastgl {
namespace serve {

/** SLO protection: refuse work the server cannot serve in time. */
struct AdmissionPolicy
{
    /**
     * Queue-depth shedding: refuse a request when this many admitted
     * requests are still pending (batching or dispatched, not yet
     * complete in virtual time). <= 0 disables shedding — the pending
     * queue then grows without bound under overload.
     */
    int64_t max_pending = 64;
    /**
     * Deadline-based early drop: refuse a request whose deadline
     * would already have passed before the device backlog lets it
     * start executing (serving it late helps nobody).
     */
    bool early_drop = true;
    /**
     * Per-class share of max_pending, indexed by Priority: class c is
     * shed once pending >= max_pending * class_weight[c]. Descending
     * weights make lower classes shed at shallower queues, so under
     * overload best-effort traffic is refused while the queue still
     * has room for paid traffic — the paid tail survives a spike that
     * drowns best-effort. All-equal weights restore the classless
     * behaviour of earlier PRs.
     */
    std::array<double, kNumPriorityClasses> class_weight = {1.0, 0.75,
                                                            0.5};
    /**
     * Per-class early-drop headroom (virtual seconds): class c is
     * dropped when its batch could not start before deadline -
     * headroom[c]. Positive headroom for lower classes drops them
     * while the backlog is still survivable for paid requests.
     */
    std::array<double, kNumPriorityClasses> deadline_headroom = {
        0.0, 0.0, 0.0};
};

/**
 * One hosted model behind the shared front door — e.g. a cheap GCN
 * tier next to an expensive GAT tier. Each tier owns its own batcher
 * and embedding cache (embeddings are per-model outputs); the device
 * timeline, the layer-0 feature cache, and admission control are
 * shared across tiers.
 */
struct ModelTier
{
    /** Display name used in statistics and CLI output. */
    std::string name = "default";
    /** Architecture served by this tier; 0 dims resolve from the
     *  dataset, num_layers from the tier's fanouts. */
    compute::ModelConfig model;
    /** Per-tier micro-batching policy. */
    BatcherPolicy batcher;
    /** Per-tier output-embedding cache. */
    EmbeddingCacheOptions embedding;
    /** Per-layer sampling fanouts; empty = ServerOptions::fanouts. */
    std::vector<int> fanouts;
};

/** Everything configurable about one serving run. */
struct ServerOptions
{
    /** Host sampler worker threads (no effect on modelled results). */
    int worker_threads = 2;
    /** Capacity of the two hand-over queues (backpressure bound). */
    size_t queue_depth = 8;
    /** Per-layer sampling fanouts, input layer first (as training). */
    std::vector<int> fanouts = {5, 10, 15};
    /** Served model; in_dim/num_classes 0 = resolve from the dataset.
     *  Ignored when `models` is non-empty. */
    compute::ModelConfig model;
    /** Batcher policy of the single-model configuration; ignored when
     *  `models` is non-empty (each tier brings its own). */
    BatcherPolicy batcher;
    /**
     * Hosted model tiers. Empty (the default) serves the single model
     * described by the legacy `model`/`batcher`/`embedding` fields —
     * exactly the pre-multi-model behaviour. Each InferenceRequest
     * routes to tiers[request.model].
     */
    std::vector<ModelTier> models;
    AdmissionPolicy admission;
    /**
     * DRR quantum (modelled seconds) for interleaving per-tier batches
     * on the shared device timeline; see DrrScheduler.
     */
    double drr_quantum = 1e-3;
    /**
     * Warmup trace recorded from a training epoch (or any presample
     * sweep). When non-empty: the feature-cache hotness ranking is
     * presample_ranking(warmup.frequencies) — overriding cache_policy —
     * and every serve() call starts with each tier's embedding cache
     * seeded with the hottest nodes at virtual time 0 instead of cold.
     */
    match::WarmupTrace warmup;
    /**
     * Layer-0 feature cache capacity as a fraction of all nodes;
     * 0 disables the feature cache.
     */
    double feature_cache_ratio = 0.2;
    /** Hotness ranking that fills the feature cache (overridden by a
     *  non-empty warmup trace). */
    match::CachePolicy cache_policy = match::CachePolicy::kDegree;
    /** Embedding cache of the single-model configuration; ignored when
     *  `models` is non-empty (each tier brings its own). */
    EmbeddingCacheOptions embedding;
    /**
     * Run the real numeric forward pass for every dispatched batch and
     * fill InferenceResponse::predicted. Off by default: the virtual
     * world (latencies, fingerprint) is identical either way except
     * that predictions are folded into the fingerprint when on.
     */
    bool compute_logits = false;
    /** KernelEngine width for compute_logits forwards: 1 = sequential,
     *  0 = hardware concurrency. Predictions are bit-identical at any
     *  width and worker_threads count. */
    int compute_threads = 1;
    /**
     * Modelled devices. With N > 1 the graph is partitioned into N
     * parts (`partitioner`), every device holds a full-budget shard of
     * the feature cache (match::PartitionedFeatureCache) and one
     * embedding cache per tier, batches route to the device owning
     * their oldest request's first target, and peer-shard rows cross
     * the interconnect instead of PCIe. Virtual clock only:
     * bit-identical at any worker count.
     */
    int num_gpus = 1;
    /** Partitioner that shards the caches when num_gpus > 1. */
    graph::PartitionerKind partitioner = graph::PartitionerKind::kLdg;
    /** Shard the cache budget or replicate the hottest rows. */
    match::ShardMode shard_mode = match::ShardMode::kSharded;
    /**
     * Out-of-core tier (store::TieredFeatureStore): rows beyond the
     * host-DRAM budget live on a modelled drive, and a batch's IO time
     * adds its demand-read stall. Admitted requests stage their blocks
     * while they wait in the batcher, so the stall shrinks to the
     * uncovered tail; storage=none runs are unchanged.
     */
    store::TieredStoreOptions storage;
    /**
     * Per-stage profiling (fastgl::prof). Recording only observes the
     * virtual world, so responses and fingerprints are bit-identical
     * with profiling on or off — the profiler determinism contract.
     * The report lands in ServingStats::profile.
     */
    bool profile = false;
    /**
     * Modelled sampler-worker pool. 0 (the default) keeps the legacy
     * model where sampling time is charged inside batch service —
     * byte-identical to earlier PRs. With W > 0, each admitted request
     * first occupies the earliest-free of W virtual sampler workers
     * for its modelled sampling time and only then joins its tier's
     * batcher; batch service then excludes the sampling term. Queue
     * waits at this pool are what the autoscaler reacts to.
     */
    int modelled_samplers = 0;
    /**
     * Profiler-driven elastic scaling of the sampler pool (and,
     * optionally, the embedding-cache budgets); see AutoscalerOptions.
     * Enabling it implies a modelled sampler pool: modelled_samplers
     * defaults to autoscale.min_workers when left 0.
     */
    AutoscalerOptions autoscale;
    uint64_t seed = 1;

    // --- Test hooks (no-ops when unset; not for production use) ---
    /** Called in a worker thread before sampling request @p id. */
    std::function<void(int64_t id)> sample_hook;
};

/** Per-priority-class slice of a serving run (virtual clock). */
struct PriorityClassStats
{
    int64_t offered = 0;          ///< Requests of this class processed.
    int64_t served = 0;           ///< Any served outcome, incl. late.
    int64_t served_late = 0;      ///< Served after the deadline.
    int64_t embedding_hits = 0;   ///< Answered from an embedding cache.
    int64_t shed_queue = 0;       ///< Refused: weighted queue bound hit.
    int64_t dropped_deadline = 0; ///< Refused: could not start in time.
    double shed_rate = 0.0;       ///< Refused fraction of this class.
    double p50_latency = 0.0;     ///< Over served requests of the class.
    double p99_latency = 0.0;
    /** Virtual latencies of this class's served requests. */
    util::SampleStat latencies;
};

/** Per-model-tier slice of a serving run (virtual clock). */
struct ModelTierStats
{
    std::string name;             ///< ModelTier::name.
    int64_t offered = 0;          ///< Requests routed to this tier.
    int64_t served = 0;           ///< Any served outcome, incl. late.
    int64_t embedding_hits = 0;   ///< Served from this tier's cache.
    int64_t batches = 0;          ///< Micro-batches dispatched.
    double mean_batch_size = 0.0; ///< Requests per dispatched batch.
    double gpu_busy_seconds = 0.0;///< Device seconds this tier used.
    double embedding_hit_rate = 0.0;
    /** Rows pre-seeded into this tier's embedding cache at start. */
    int64_t warmed_rows = 0;
};

/** Statistics of one serving run (one trace through Server::serve). */
struct ServingStats
{
    // --- Virtual-clock / modelled (bit-identical across runs) ---
    int64_t offered = 0;          ///< Requests in the trace (processed).
    int64_t served = 0;           ///< Any served outcome, incl. late.
    int64_t served_late = 0;      ///< Served after the deadline.
    int64_t embedding_hits = 0;   ///< Answered from the embedding cache.
    int64_t shed_queue = 0;       ///< Refused: pending queue too deep.
    int64_t dropped_deadline = 0; ///< Refused: could not start in time.
    int64_t batches = 0;          ///< Micro-batches dispatched.
    double mean_batch_size = 0.0; ///< Requests per dispatched batch.
    /** Virtual time of the last event (completion or arrival). */
    double makespan = 0.0;
    double throughput_rps = 0.0;  ///< served / makespan.
    /** Served within deadline, per virtual second. */
    double goodput_rps = 0.0;
    double mean_latency = 0.0;    ///< Over served requests.
    double p50_latency = 0.0;
    double p95_latency = 0.0;
    double p99_latency = 0.0;
    /** Refused fraction of offered load (shed + dropped). */
    double shed_rate = 0.0;
    double embedding_hit_rate = 0.0;
    /** Modelled device busy seconds and busy fraction of makespan. */
    double gpu_busy_seconds = 0.0;
    double gpu_utilization = 0.0;
    /**
     * Order-sensitive digest of every admission decision, batch
     * composition, and modelled latency bit pattern — two runs agree
     * iff this agrees (the determinism tests' one-number witness).
     */
    uint64_t fingerprint = 0;
    bool stopped_early = false;   ///< request_stop() cut the run short.
    /** Virtual latencies of served requests (for custom percentiles). */
    util::SampleStat latencies;
    /** Per-priority-class breakdown, indexed by Priority. */
    std::array<PriorityClassStats, kNumPriorityClasses> per_class;
    /** Per-model-tier breakdown, one entry per hosted tier. */
    std::vector<ModelTierStats> per_model;
    /** True when the run started from a warmup trace (seeded caches). */
    bool warmed = false;
    /** Embedding rows pre-seeded across all tiers (0 on cold starts). */
    int64_t warmed_rows = 0;
    /** Modelled devices this run executed on (ServerOptions::num_gpus). */
    int num_gpus = 1;
    /** Requests answered from a peer device's embedding cache. */
    int64_t embedding_remote_hits = 0;
    /** The run's feature-residency counters: layer-0 cache (or shard)
     *  hits and misses, per-partition and peer-link traffic, and the
     *  out-of-core tier with the demand stall charged into batch IO. */
    store::ResidencyStats residency;
    /** Per-stage profile (enabled iff ServerOptions::profile). */
    prof::ProfileReport profile;
    /** Autoscaler decisions (enabled iff ServerOptions::autoscale). */
    AutoscaleReport autoscale;
    /** Sampler pool size the run started with (0 = legacy model). */
    int modelled_samplers = 0;
    /** Clients of a closed-loop run (0 = open loop). */
    int closed_loop_clients = 0;

    // --- Measured host-side (vary run to run; never fed back) ---
    double wall_seconds = 0.0;
    /** Host seconds spent in real forward passes (compute_logits on). */
    double compute_seconds = 0.0;
    /** Measured host GEMM throughput of those forwards (GFLOP/s). */
    double compute_gflops = 0.0;
    /** Batches that ran a real forward pass. */
    int64_t compute_batches = 0;
    /** Host seconds per ego-net sample, merged from per-thread stats. */
    util::SampleStat worker_sample_seconds;
    util::QueueStats work_queue;
    util::QueueStats done_queue;
};

/** Online inference server over one dataset replica. */
class Server
{
  public:
    Server(const graph::Dataset &dataset, ServerOptions opts,
           sim::GpuSpec spec = sim::rtx3090());

    /**
     * Serve @p trace (arrival-ordered, dense ids from 0 — what
     * LoadGenerator::generate produces; request.model must index a
     * hosted tier). Blocks until the trace is processed or
     * request_stop() aborts it; returns one response per request,
     * trace order. Each call starts from the same cache state — cold,
     * or warm-seeded when a warmup trace is configured — so the same
     * trace always produces the same responses.
     */
    std::vector<InferenceResponse>
    serve(const std::vector<InferenceRequest> &trace);

    /**
     * Serve a closed-loop client pool (LoadGenerator::generate_closed):
     * each of script.num_clients keeps at most one request in flight
     * and thinks between responses, so offered load self-throttles
     * when the server slows down. Arrival times are decided by the
     * virtual event loop (issue = previous decision + think), the
     * sampling workers still pre-sample speculatively by request id,
     * and the whole run stays bit-identical at any worker count.
     * Returns one response per script request, indexed by id.
     */
    std::vector<InferenceResponse>
    serve_closed(const ClosedLoopScript &script);

    /**
     * Ask a running serve() to wind down cleanly: queues close, stages
     * finish their current item and exit, serve() returns responses
     * for the prefix it finished (the rest stay kUnprocessed). Safe
     * from any thread; idempotent.
     */
    void request_stop() { shutdown_.request_stop(); }

    /** True once request_stop() was called for the current run. */
    bool stop_requested() const { return shutdown_.stop_requested(); }

    /** Statistics of the most recent serve() call. */
    const ServingStats &last_stats() const { return stats_; }

    /**
     * Node popularity order (hottest first) backing the feature cache;
     * hand this to LoadGenerator so traffic skew and cache contents
     * align the way real serving workloads do.
     */
    const std::vector<graph::NodeId> &popularity() const
    {
        return ranking_;
    }

    int worker_threads() const { return worker_threads_; }
    int64_t feature_cache_rows() const { return feature_rows_; }
    /** Modelled devices (>= 1); see ServerOptions::num_gpus. */
    int num_gpus() const { return num_gpus_; }
    /** Resolved embedding-cache capacity of tier @p model. */
    int64_t
    embedding_cache_rows(size_t model = 0) const
    {
        return tiers_[model].embedding.capacity_rows;
    }
    /** Number of hosted model tiers (>= 1). */
    size_t num_models() const { return tiers_.size(); }
    /** Resolved configuration of tier @p model. */
    const ModelTier &tier(size_t model) const
    {
        return tiers_[model].config;
    }
    /** True when a warmup trace seeds the caches (see ServerOptions). */
    bool warmed() const { return !opts_.warmup.empty(); }
    /** Feature cache, shards, partitioning, peer links and storage
     *  tier built from the cache, num_gpus and storage options. */
    const store::FeatureResidency &residency() const
    {
        return *residency_;
    }
    const ServerOptions &options() const { return opts_; }

  private:
    struct BatchCost;
    /** The shared virtual event machine behind serve()/serve_closed()
     *  (batchers, caches, admission, dispatch, profiler); defined in
     *  server.cpp, driven only by the sequencer thread. */
    struct Engine;
    /** One pre-sampled request, handed from a worker to the sequencer. */
    struct Sampled;
    using DoneQueue = util::BoundedQueue<Sampled>;
    /**
     * Arrival driver of one run, executed on the sequencer thread:
     * pulls sampled requests off the done queue in whatever order the
     * workers finish them, feeds them to the event machine in the
     * order its arrival process decides, and returns how many
     * requests it processed.
     */
    using Driver = std::function<size_t(Engine &, DoneQueue &)>;

    /**
     * The serving harness behind serve() and serve_closed(): validates
     * @p requests (dense ids, hosted tiers), runs the feeder, the
     * sampler workers and a sequencer thread executing @p drive, joins
     * them, rethrows the first stage error, and folds the run into
     * last_stats(). @p closed_clients is reported as
     * ServingStats::closed_loop_clients (0 = open loop).
     */
    std::vector<InferenceResponse>
    run(std::span<const InferenceRequest> requests, int closed_clients,
        const Driver &drive);

    /** One hosted tier's resolved runtime state. */
    struct Tier
    {
        ModelTier config;               ///< Dims/fanouts resolved.
        EmbeddingCacheOptions embedding;///< Capacity resolved.
        /** Real-forward model; non-null iff opts_.compute_logits.
         *  Touched only by the sequencer thread during serve(). */
        std::unique_ptr<compute::GnnModel> model;
    };

    /** Modelled service seconds of one closed micro-batch of @p tier,
     *  executing on modelled device @p device. */
    BatchCost cost_batch(size_t tier, int device,
                         const std::vector<PendingRequest> &batch);

    const graph::Dataset &dataset_;
    ServerOptions opts_;
    sim::GpuSpec spec_;
    sim::KernelModel kernels_;
    compute::ComputeCostModel cost_model_;
    std::vector<graph::NodeId> ranking_;
    int64_t feature_rows_ = 0;
    int num_gpus_ = 1;
    /** Feature cache, shards, peer links and storage tier. Sequencer
     *  only during serve(). */
    std::unique_ptr<store::FeatureResidency> residency_;
    std::vector<Tier> tiers_; ///< >= 1; [0] is the legacy single model.
    int worker_threads_ = 1;
    /**
     * Batch-level ID dedup table, reused across dispatches (sequencer
     * only — touched-slot reset keeps per-batch cost proportional to
     * batch uniques, as in the samplers).
     */
    sample::FusedHashTable table_;
    /** Kernel engine for compute_logits forwards; shared by all tiers
     *  (deterministic at any width). Non-null iff compute_logits. */
    std::unique_ptr<compute::KernelEngine> engine_;
    /** Batched feature gather for compute_logits forwards; driven only
     *  by the sequencer thread. Bit-identical to the per-row loop it
     *  replaced, so prediction fingerprints are unchanged. Non-null
     *  iff compute_logits. */
    std::unique_ptr<match::GatherEngine> gather_engine_;
    util::StageShutdown shutdown_;
    ServingStats stats_;
};

} // namespace serve
} // namespace fastgl
