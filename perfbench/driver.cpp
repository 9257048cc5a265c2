/**
 * @file
 * Host-clock benchmark driver. Runs one workload through the library's
 * public entry points and writes what it measured as raw JSON; run.py
 * turns that into metrics.
 *
 *   fastgl_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    --out FILE
 *
 * Untraced (--trace 0): set the workload up several times, then call its
 * entry point (Trainer::train_epoch, Server::serve, Pipeline::run_epoch)
 * until S seconds have passed, timing each call. Traced (--trace 1): the
 * same set-ups inside spans, a shorter untraced baseline, then a traced
 * run that times calls into each layer's public functions from here.
 * train and model replay their single-call entry points from public
 * parts; each replay carries a witness that it ran the same program.
 *
 * Only host seconds are measured. Modelled outputs (losses, serve
 * fingerprints, modelled epoch seconds) are correctness witnesses: they
 * are printed and checked, never reported as metrics.
 */
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "compute/gcn_layer.h"
#include "compute/gnn_model.h"
#include "compute/kernel_engine.h"
#include "compute/loss.h"
#include "compute/optimizer.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "graph/datasets.h"
#include "match/gather_engine.h"
#include "match/match.h"
#include "match/reorder.h"
#include "sample/batch_splitter.h"
#include "sample/neighbor_sampler.h"
#include "serve/load_generator.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fastgl;
using Clock = std::chrono::steady_clock;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;
/** Share of --seconds a traced run spends alternating untraced and
 *  traced calls (the rest goes to set-ups and request replays). */
constexpr double kTracedShare = 0.7;
/** Leading requests of a serve trace replayed through the layers. */
constexpr size_t kReplayRequests = 256;
/** serve::Server's per-request sampling stream tag. The serve-logits
 *  prediction witness fails if this drifts from the server's. */
constexpr uint64_t kServeSampleStream = 0x5E31;

/** Stream tags that split the one --seed into per-consumer seeds. */
enum SeedTag : uint64_t
{
    kTrainerSeed = 1,
    kServerSeed = 2,
    kTraceSeed = 3,
    kServeModelSeed = 4,
    kPipelineSeed = 5,
};

uint64_t
seed_for(uint64_t seed, SeedTag tag)
{
    return util::derive_seed(seed, tag, 0);
}

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

Clock::duration
to_duration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

template <typename Fn>
double
timed(Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return seconds_between(t0, Clock::now());
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llX",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * In-memory span recorder. A span's parent is the innermost span open
 * when it starts. Spans are kept until the run ends and written once.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        double start_us;
        double end_us;
        int parent;
    };

    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Opens a span on construction and closes it on destruction; a
     *  null log records nothing. */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *name) : log_(log)
        {
            if (log_)
                index_ = log_->open(name);
        }
        ~Scope()
        {
            if (log_)
                log_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        size_t index_ = 0;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    now_us() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    size_t
    open(const char *name)
    {
        spans_.push_back({name, now_us(), 0.0, open_});
        open_ = static_cast<int>(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(size_t index)
    {
        spans_[index].end_us = now_us();
        open_ = spans_[index].parent;
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    int open_ = -1;
};

using Scope = SpanLog::Scope;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

/** Everything one run measured, written as JSON for run.py. */
struct Result
{
    std::vector<double> setup_s;
    /** (work, host seconds) per untraced entry-point call. */
    std::vector<std::pair<double, double>> units;
    /** (work, host seconds) per traced call or replayed epoch. */
    std::vector<std::pair<double, double>> traced_units;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<std::pair<std::string, std::string>> witness;
    /** Wall seconds of the traced part: set-ups, traced calls or
     *  replayed epochs, and request replays. */
    double traced_wall_s = 0.0;
    /** Ratio counters: name -> (numerator, denominator), summed. */
    std::map<std::string, std::pair<double, double>> ratios;
    /** Raw samples behind percentile counters. */
    std::map<std::string, std::vector<double>> samples;

    void
    add_ratio(const std::string &name, double num, double den)
    {
        auto &r = ratios[name];
        r.first += num;
        r.second += den;
    }
};

/** Runs kSetups set-ups, recording each one's seconds; keeps the last.
 *  The previous set-up is destroyed before the next one is built. */
template <typename Setup, typename Fn>
Setup
repeated_setup(Result &r, Fn &&make)
{
    Setup s;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSetups; ++i) {
        s = Setup{};
        r.setup_s.push_back(timed([&] { s = make(); }));
    }
    r.traced_wall_s += seconds_between(t0, Clock::now());
    return s;
}

/**
 * Calls @p step until --seconds (a traced run: kTracedShare of it) have
 * passed. @p step returns its wall seconds; the next step starts only
 * if one as long still ends in time, and the first always runs.
 */
template <typename Fn>
void
repeat_for(const Args &a, Fn &&step)
{
    const Clock::time_point deadline =
        Clock::now() +
        to_duration(a.trace ? a.seconds * kTracedShare : a.seconds);
    double last = 0.0;
    do {
        last = step();
    } while (Clock::now() + to_duration(last) <= deadline);
}

void
count_sample(Result &r, const sample::SampledSubgraph &sg, double span_s)
{
    r.add_ratio("sample.edges_per_us",
                static_cast<double>(sg.edges_examined), span_s * 1e6);
    r.add_ratio("sample.probes_per_instance",
                static_cast<double>(sg.id_map.probes),
                static_cast<double>(sg.id_map.instances));
    r.add_ratio("sample.unique_share",
                static_cast<double>(sg.id_map.uniques),
                static_cast<double>(sg.id_map.instances));
}

void
count_engine(Result &r, const compute::KernelEngineStats &ks)
{
    r.add_ratio("compute.gemm_gflops", ks.gemm_flops / 1e9,
                ks.gemm_seconds);
    r.add_ratio("compute.gemm_share", ks.gemm_seconds,
                ks.gemm_seconds + ks.agg_seconds);
    r.add_ratio("compute.agg_bytes_per_edge",
                static_cast<double>(ks.agg_bytes),
                static_cast<double>(ks.agg_edges));
}

// ------------------------------------------------------------------
// train: Trainer::train_epoch, GCN on the half-size Products replica.
// ------------------------------------------------------------------

core::TrainerOptions
train_options(uint64_t seed)
{
    core::TrainerOptions opts;
    opts.fanouts = {5, 10, 15};
    opts.model.type = compute::ModelType::kGcn;
    opts.learning_rate = 3e-3f;
    opts.use_adam = true;
    opts.compute_threads = 2;
    opts.gather_threads = 1;
    opts.seed = seed_for(seed, kTrainerSeed);
    return opts;
}

struct TrainSetup
{
    std::unique_ptr<graph::Dataset> ds;
    std::unique_ptr<core::Trainer> trainer;
};

TrainSetup
setup_train(uint64_t seed, SpanLog *log)
{
    TrainSetup s;
    {
        Scope span(log, "graph.replica");
        graph::ReplicaOptions ropts;
        ropts.size_factor = 0.5;
        ropts.materialize_features = true;
        s.ds = std::make_unique<graph::Dataset>(
            graph::load_replica(graph::DatasetId::kProducts, ropts));
    }
    {
        Scope span(log, "core.construct");
        s.trainer =
            std::make_unique<core::Trainer>(*s.ds, train_options(seed));
    }
    return s;
}

/**
 * Trainer::train_epoch rebuilt from public parts: BatchSplitter,
 * NeighborSampler, GatherEngine, three GcnLayers built in GnnModel's
 * order from the same Rng, softmax_cross_entropy and Adam. Same calls,
 * same order, same seeds — so every loss is bit-identical to the
 * Trainer's.
 */
class TrainReplay
{
  public:
    TrainReplay(const graph::Dataset &ds, const core::TrainerOptions &opts)
        : ds_(ds),
          engine_(opts.compute_threads),
          gather_(opts.gather_threads),
          adam_(opts.learning_rate),
          splitter_(ds.train_nodes,
                    opts.batch_size > 0 ? opts.batch_size : ds.batch_size,
                    opts.seed)
    {
        sample::NeighborSamplerOptions nopts;
        nopts.fanouts = opts.fanouts;
        nopts.seed = opts.seed + 1;
        sampler_ =
            std::make_unique<sample::NeighborSampler>(ds.graph, nopts);

        model_ = opts.model;
        model_.in_dim = ds.features.dim();
        model_.num_classes = ds.features.num_classes();
        model_.num_layers = static_cast<int>(opts.fanouts.size());
        model_.seed = opts.seed;
        util::Rng rng(model_.seed);
        for (int l = 0; l < model_.num_layers; ++l) {
            const bool is_output = l == model_.num_layers - 1;
            layers_.push_back(std::make_unique<compute::GcnLayer>(
                l == 0 ? model_.in_dim : model_.hidden_dim,
                is_output ? model_.num_classes : model_.hidden_dim,
                !is_output, rng));
            layers_.back()->set_engine(&engine_);
            for (compute::Parameter *p : layers_.back()->parameters())
                params_.push_back(p);
        }
    }

    /** One traced epoch; returns its per-step losses. */
    std::vector<double>
    epoch(SpanLog &log, Result &r)
    {
        static const char *const kFwd[] = {
            "compute.fwd.l0", "compute.fwd.l1", "compute.fwd.l2"};
        static const char *const kBwd[] = {
            "compute.bwd.l0", "compute.bwd.l1", "compute.bwd.l2"};
        const size_t num_layers = layers_.size();
        engine_.reset_stats();
        splitter_.shuffle_epoch();
        std::vector<double> losses;
        for (int64_t b = 0; b < splitter_.num_batches(); ++b) {
            Scope step(&log, "core.step");
            sample::SampledSubgraph sg;
            const double sample_s = timed([&] {
                Scope span(&log, "sample.batch");
                sg = sampler_->sample(splitter_.batch(b));
            });
            count_sample(r, sg, sample_s);
            {
                // train_epoch charges each batch's modelled seconds.
                Scope span(&log, "compute.cost");
                cost_.training_step(model_, sg);
            }
            const double gather_s = timed([&] {
                Scope span(&log, "match.gather");
                panel_.release();
                panel_ = gather_.gather(ds_.features, sg.nodes);
            });
            r.add_ratio("match.gather_gbps",
                        static_cast<double>(panel_.bytes()) / 1e9,
                        gather_s);
            const compute::Tensor x = compute::Tensor::view(
                panel_.data(), panel_.rows(), panel_.dim());
            // GnnModel::forward starts from a deep copy of its input.
            compute::Tensor h = x;
            for (size_t l = 0; l < num_layers; ++l) {
                Scope span(&log, kFwd[l]);
                h = layers_[l]->forward(sg.blocks[num_layers - 1 - l], h);
            }
            std::vector<int> labels(static_cast<size_t>(sg.num_seeds));
            for (int64_t i = 0; i < sg.num_seeds; ++i)
                labels[static_cast<size_t>(i)] = ds_.features.label(
                    sg.nodes[static_cast<size_t>(i)]);
            compute::LossResult loss;
            {
                Scope span(&log, "compute.loss");
                loss = compute::softmax_cross_entropy(h, labels);
            }
            for (compute::Parameter *p : params_)
                p->zero_grad();
            compute::Tensor grad = loss.grad_logits;
            for (size_t l = num_layers; l-- > 0;) {
                Scope span(&log, kBwd[l]);
                grad = layers_[l]->backward(sg.blocks[num_layers - 1 - l],
                                            grad);
            }
            {
                Scope span(&log, "compute.optim");
                adam_.step(params_);
            }
            losses.push_back(loss.loss);
        }
        count_engine(r, engine_.stats());
        return losses;
    }

  private:
    const graph::Dataset &ds_;
    compute::ModelConfig model_;
    compute::KernelEngine engine_;
    match::GatherEngine gather_;
    match::FeaturePanel panel_;
    compute::Adam adam_;
    sample::BatchSplitter splitter_;
    std::unique_ptr<sample::NeighborSampler> sampler_;
    compute::ComputeCostModel cost_{sim::rtx3090(),
                                    compute::ComputePlan::kMemoryAware};
    std::vector<std::unique_ptr<compute::GcnLayer>> layers_;
    std::vector<compute::Parameter *> params_;
};

void
run_train(const Args &a, Result &r, SpanLog *log)
{
    TrainSetup s = repeated_setup<TrainSetup>(
        r, [&] { return setup_train(a.seed, log); });
    const double seeds = static_cast<double>(s.ds->train_nodes.size());

    // A traced run alternates train_epoch with a traced replay of the
    // same epoch from the same seeds, so drift and warm-up fall on both
    // sides alike; the replay's losses must equal train_epoch's bit for
    // bit.
    std::unique_ptr<TrainReplay> replay;
    if (log)
        replay = std::make_unique<TrainReplay>(*s.ds, s.trainer->options());
    size_t epochs = 0, replay_matching = 0;
    uint64_t loss_fnv = kFnvBasis;
    double modelled_s = 0.0;
    repeat_for(a, [&] {
        core::TrainEpochStats st;
        const double sec = timed([&] { st = s.trainer->train_epoch(); });
        r.units.emplace_back(seeds, sec);
        for (double loss : st.iteration_losses) {
            ++r.attempted;
            if (!std::isfinite(loss))
                ++r.failed;
            if (epochs == 0)
                loss_fnv = fnv(loss_fnv, std::bit_cast<uint64_t>(loss));
        }
        if (epochs++ == 0)
            modelled_s = st.modelled_epoch_seconds;
        if (!replay)
            return sec;
        std::vector<double> losses;
        const double traced =
            timed([&] { losses = replay->epoch(*log, r); });
        r.traced_units.emplace_back(seeds, traced);
        r.traced_wall_s += traced;
        if (losses.size() == st.iteration_losses.size() &&
            std::memcmp(losses.data(), st.iteration_losses.data(),
                        losses.size() * sizeof(double)) == 0)
            ++replay_matching;
        return sec + traced;
    });
    r.witness.emplace_back("epochs", std::to_string(epochs));
    r.witness.emplace_back("epoch1_loss_fnv", hex(loss_fnv));
    r.witness.emplace_back("epoch1_modelled_s", exact(modelled_s));
    if (r.failed)
        r.errors.push_back(std::to_string(r.failed) +
                           " training step(s) had a non-finite loss");
    if (!replay)
        return;
    r.witness.emplace_back("replay_epochs_bit_identical",
                           std::to_string(replay_matching) + "/" +
                               std::to_string(epochs));
    if (replay_matching != epochs)
        r.errors.push_back("train replay losses differ from "
                           "train_epoch's");
}

// ------------------------------------------------------------------
// serve / serve-logits: Server::serve over an open-loop Poisson trace,
// full-size Products replica with on-demand features.
// ------------------------------------------------------------------

struct ServeSetup
{
    std::unique_ptr<graph::Dataset> ds;
    std::unique_ptr<serve::Server> server;
    std::vector<serve::InferenceRequest> trace;
};

ServeSetup
setup_serve(uint64_t seed, bool logits, SpanLog *log)
{
    ServeSetup s;
    {
        Scope span(log, "graph.replica");
        graph::ReplicaOptions ropts;
        ropts.materialize_features = false;
        s.ds = std::make_unique<graph::Dataset>(
            graph::load_replica(graph::DatasetId::kProducts, ropts));
    }
    {
        // fastgl_cli serve's defaults, with two sampler workers.
        Scope span(log, "core.construct");
        serve::ServerOptions sopts;
        sopts.worker_threads = 2;
        sopts.model.type = compute::ModelType::kGcn;
        sopts.model.seed = seed_for(seed, kServeModelSeed);
        sopts.batcher.max_batch = 32;
        sopts.batcher.max_wait = 2e-3;
        sopts.admission.max_pending = 64;
        sopts.drr_quantum = 1e-3;
        sopts.feature_cache_ratio = 0.2;
        sopts.embedding.capacity_rows = -1;
        sopts.compute_logits = logits;
        sopts.compute_threads = 1;
        sopts.seed = seed_for(seed, kServerSeed);
        s.server = std::make_unique<serve::Server>(*s.ds, sopts);
    }
    {
        Scope span(log, "serve.tracegen");
        serve::LoadGeneratorOptions lopts;
        lopts.rate_rps = 20000.0;
        // Forwards regenerate on-demand feature rows, about 4 ms per
        // request, so serve-logits replays a much shorter trace.
        lopts.num_requests = logits ? 500 : 16000;
        lopts.targets_per_request = 1;
        lopts.slo_deadline = 20e-3;
        lopts.seed = seed_for(seed, kTraceSeed);
        s.trace = serve::LoadGenerator(s.server->popularity(), lopts)
                      .generate();
    }
    return s;
}

/** Correctness of one serve() call; returns its failed requests. */
int64_t
check_responses(const ServeSetup &s,
                const std::vector<serve::InferenceResponse> &responses,
                bool logits)
{
    int64_t failed = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
        const serve::InferenceResponse &resp = responses[i];
        if (resp.outcome == serve::Outcome::kUnprocessed) {
            ++failed;
        } else if (logits && resp.batch_id >= 0 &&
                   resp.predicted.size() != s.trace[i].targets.size()) {
            ++failed;
        }
    }
    return failed;
}

void
count_serve_stats(Result &r, const serve::ServingStats &st, int workers)
{
    double sample_s = 0.0;
    auto &us = r.samples["serve.sample_us"];
    for (double x : st.worker_sample_seconds.samples()) {
        sample_s += x;
        us.push_back(x * 1e6);
    }
    r.add_ratio("serve.sampler_busy_share", sample_s,
                st.wall_seconds * workers);
    r.add_ratio("serve.forward_share", st.compute_seconds, st.wall_seconds);
    r.add_ratio("serve.feeder_blocked",
                static_cast<double>(st.work_queue.push_blocked),
                static_cast<double>(st.work_queue.pushed));
    r.add_ratio("serve.sequencer_starved",
                static_cast<double>(st.done_queue.pop_blocked),
                static_cast<double>(st.done_queue.popped));
    r.add_ratio("serve.sampler_blocked",
                static_cast<double>(st.done_queue.push_blocked),
                static_cast<double>(st.done_queue.pushed));
}

/**
 * Replays the trace's first requests through the layers the server
 * runs for them: the per-request NeighborSampler stream, and with
 * logits the batched gather and the model forward. With logits, the
 * replay's predictions must equal the server's.
 */
void
replay_requests(const ServeSetup &s, bool logits,
                const std::vector<serve::InferenceResponse> &served,
                SpanLog &log, Result &r)
{
    const serve::ServerOptions &sopts = s.server->options();
    const serve::ModelTier &tier = s.server->tier(0);
    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = tier.fanouts;
    nopts.seed = sopts.seed + 101;
    sample::NeighborSampler sampler(s.ds->graph, nopts);
    compute::KernelEngine engine(sopts.compute_threads);
    match::GatherEngine gather(1);
    compute::GnnModel model(tier.model);
    model.set_engine(&engine);

    const size_t n = std::min(kReplayRequests, s.trace.size());
    int64_t compared = 0, differing = 0;
    for (size_t i = 0; i < n; ++i) {
        const serve::InferenceRequest &req = s.trace[i];
        sample::SampledSubgraph sg;
        const double sample_s = timed([&] {
            Scope span(&log, "sample.request");
            sg = sampler.sample(
                req.targets,
                util::derive_seed(sopts.seed, kServeSampleStream,
                                  static_cast<uint64_t>(req.id)));
        });
        count_sample(r, sg, sample_s);
        if (!logits)
            continue;
        match::FeaturePanel panel;
        const double gather_s = timed([&] {
            Scope span(&log, "match.gather");
            panel = gather.gather(s.ds->features, sg.nodes);
        });
        r.add_ratio("match.gather_gbps",
                    static_cast<double>(panel.bytes()) / 1e9, gather_s);
        r.add_ratio("graph.row_us", gather_s * 1e6,
                    static_cast<double>(panel.rows()));
        compute::Tensor out;
        {
            Scope span(&log, "compute.forward");
            out = model.forward(sg, compute::Tensor::view(
                                        panel.data(), panel.rows(),
                                        panel.dim()));
        }
        const std::vector<int> &expected = served[i].predicted;
        if (served[i].batch_id < 0)
            continue;
        ++compared;
        bool same = expected.size() == static_cast<size_t>(sg.num_seeds);
        for (int64_t t = 0; same && t < sg.num_seeds; ++t) {
            int best = 0;
            for (int64_t c = 1; c < out.cols(); ++c) {
                if (out.at(t, c) > out.at(t, best))
                    best = static_cast<int>(c);
            }
            same = best == expected[static_cast<size_t>(t)];
        }
        if (!same)
            ++differing;
    }
    if (logits) {
        count_engine(r, engine.stats());
        r.witness.emplace_back("replay_predictions_matching",
                               std::to_string(compared - differing) +
                                   "/" + std::to_string(compared));
        if (differing)
            r.errors.push_back("serve-logits replay predictions differ "
                               "from the server's");
    }
}

void
run_serve(const Args &a, Result &r, SpanLog *log, bool logits)
{
    ServeSetup s = repeated_setup<ServeSetup>(
        r, [&] { return setup_serve(a.seed, logits, log); });
    const double requests = static_cast<double>(s.trace.size());

    std::vector<serve::InferenceResponse> first;
    uint64_t fingerprint = 0;
    size_t calls = 0;
    int64_t mismatched = 0;
    // One serve() call, timed from here; every call must reproduce the
    // first call's fingerprint. Returns its wall seconds.
    auto call = [&](SpanLog *span_log,
                    std::vector<std::pair<double, double>> &units) {
        std::vector<serve::InferenceResponse> responses;
        const double sec = timed([&] {
            Scope span(span_log, "serve.call");
            responses = s.server->serve(s.trace);
        });
        units.emplace_back(requests, sec);
        const serve::ServingStats &st = s.server->last_stats();
        r.attempted += static_cast<int64_t>(responses.size());
        r.failed += check_responses(s, responses, logits);
        if (calls++ == 0) {
            fingerprint = st.fingerprint;
            first = std::move(responses);
        } else if (st.fingerprint != fingerprint) {
            ++mismatched;
        }
        return sec;
    };

    // A traced run alternates untraced and traced calls, then replays
    // the trace's first requests through the layers.
    repeat_for(a, [&] {
        const double sec = call(nullptr, r.units);
        if (!log)
            return sec;
        const double traced = call(log, r.traced_units);
        r.traced_wall_s += traced;
        count_serve_stats(r, s.server->last_stats(),
                          s.server->worker_threads());
        return sec + traced;
    });
    if (log) {
        const Clock::time_point replay0 = Clock::now();
        replay_requests(s, logits, first, *log, r);
        r.traced_wall_s += seconds_between(replay0, Clock::now());
    }

    const serve::ServingStats &st = s.server->last_stats();
    r.witness.emplace_back("calls", std::to_string(calls));
    r.witness.emplace_back("fingerprint", hex(fingerprint));
    r.witness.emplace_back(
        "served", std::to_string(st.served) + "/" +
                      std::to_string(st.offered));
    r.witness.emplace_back("shed", std::to_string(st.shed_queue +
                                                  st.dropped_deadline));
    r.witness.emplace_back("p99_latency_s", exact(st.p99_latency));
    if (mismatched)
        r.errors.push_back("serve fingerprint differs between repeated "
                           "serve() calls");
    if (r.failed)
        r.errors.push_back(std::to_string(r.failed) +
                           " request(s) unprocessed or missing "
                           "predictions");
}

// ------------------------------------------------------------------
// model: Pipeline::run_epoch, FastGL preset on the MAG replica.
// ------------------------------------------------------------------

struct ModelSetup
{
    std::unique_ptr<graph::Dataset> ds;
    std::unique_ptr<core::Pipeline> pipe;
};

ModelSetup
setup_model(uint64_t seed, SpanLog *log)
{
    ModelSetup s;
    {
        Scope span(log, "graph.replica");
        graph::ReplicaOptions ropts;
        ropts.materialize_features = false;
        s.ds = std::make_unique<graph::Dataset>(
            graph::load_replica(graph::DatasetId::kMag, ropts));
    }
    {
        Scope span(log, "core.construct");
        core::PipelineOptions opts;
        opts.fw = core::framework_preset(core::Framework::kFastGL);
        opts.num_gpus = 2;
        opts.model.type = compute::ModelType::kGcn;
        opts.seed = seed_for(seed, kPipelineSeed);
        s.pipe = std::make_unique<core::Pipeline>(*s.ds, opts);
    }
    return s;
}

/** Pipeline::reorder_pool's width. */
size_t
reorder_pool_width()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::min<size_t>(hw == 0 ? 2 : hw, 8);
}

/**
 * Pipeline::run_epoch rebuilt from public parts: per trainer GPU and
 * Reorder window, NeighborSampler::sample on the batch's derived
 * stream, match::NodeSet, greedy_reorder_max_overlap, Matcher::plan
 * and ComputeCostModel::training_step. Its reused-node total must equal
 * the EpochResult's.
 */
class ModelReplay
{
  public:
    ModelReplay(const graph::Dataset &ds, const core::Pipeline &pipe)
        : opts_(pipe.options()),
          trainers_(pipe.total_trainers()),
          splitter_(ds.train_nodes,
                    opts_.batch_size > 0 ? opts_.batch_size
                                         : ds.batch_size,
                    opts_.seed),
          cost_(pipe.gpu(), opts_.fw.compute_plan, opts_.l1_hit,
                opts_.l2_hit),
          pool_(reorder_pool_width())
    {
        sample::NeighborSamplerOptions nopts;
        nopts.fanouts = opts_.fanouts;
        nopts.seed = opts_.seed + 101;
        sampler_ =
            std::make_unique<sample::NeighborSampler>(ds.graph, nopts);
    }

    /** One traced epoch; returns its reused-node total. */
    int64_t
    epoch(SpanLog &log, Result &r)
    {
        splitter_.shuffle_epoch();
        ++epoch_;
        const int64_t num_batches = splitter_.num_batches();
        const size_t window =
            static_cast<size_t>(std::max(1, opts_.reorder_window));
        const bool reorder =
            opts_.fw.io == core::IoStrategy::kMatchReorder && window > 1;
        std::vector<std::vector<int64_t>> per_gpu(
            static_cast<size_t>(trainers_));
        for (int64_t b = 0; b < num_batches; ++b)
            per_gpu[static_cast<size_t>(b % trainers_)].push_back(b);

        int64_t reused = 0;
        for (const std::vector<int64_t> &batches : per_gpu) {
            match::Matcher matcher;
            for (size_t w = 0; w < batches.size(); w += window) {
                Scope win(&log, "core.window");
                const size_t end = std::min(batches.size(), w + window);
                std::vector<sample::SampledSubgraph> subgraphs;
                for (size_t i = w; i < end; ++i) {
                    const int64_t b = batches[i];
                    const double sample_s = timed([&] {
                        Scope span(&log, "sample.batch");
                        subgraphs.push_back(sampler_->sample(
                            splitter_.batch(b),
                            util::derive_seed(
                                opts_.seed, static_cast<uint64_t>(epoch_),
                                static_cast<uint64_t>(b))));
                    });
                    count_sample(r, subgraphs.back(), sample_s);
                }
                std::vector<size_t> order(subgraphs.size());
                for (size_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                if (reorder && subgraphs.size() > 1) {
                    std::vector<match::NodeSet> sets;
                    for (const sample::SampledSubgraph &sg : subgraphs) {
                        Scope span(&log, "match.nodeset");
                        sets.emplace_back(sg.nodes);
                    }
                    const match::NodeSet *anchor =
                        matcher.resident().size() > 0 ? &matcher.resident()
                                                      : nullptr;
                    // Pipeline::reorder_pool's threshold.
                    util::ThreadPool *pool =
                        sets.size() >= 8 ? &pool_ : nullptr;
                    match::ReorderResult rr;
                    {
                        Scope span(&log, "match.reorder");
                        rr = match::greedy_reorder_max_overlap(anchor,
                                                               sets, pool);
                    }
                    for (size_t i = 0; i < order.size(); ++i)
                        order[i] = static_cast<size_t>(rr.order[i]);
                }
                for (size_t i : order) {
                    const sample::SampledSubgraph &sg = subgraphs[i];
                    std::optional<match::NodeSet> set;
                    {
                        Scope span(&log, "match.nodeset");
                        set.emplace(sg.nodes);
                    }
                    match::TransferPlan plan;
                    {
                        Scope span(&log, "match.plan");
                        plan = matcher.plan(*set);
                    }
                    reused += plan.overlap_nodes;
                    r.add_ratio("match.reuse_share",
                                static_cast<double>(plan.overlap_nodes),
                                static_cast<double>(plan.overlap_nodes +
                                                    plan.load_count()));
                    Scope span(&log, "compute.cost");
                    cost_.training_step(opts_.model, sg);
                }
            }
        }
        return reused;
    }

  private:
    core::PipelineOptions opts_;
    int trainers_;
    sample::BatchSplitter splitter_;
    compute::ComputeCostModel cost_;
    std::unique_ptr<sample::NeighborSampler> sampler_;
    util::ThreadPool pool_;
    int64_t epoch_ = 0;
};

void
run_model(const Args &a, Result &r, SpanLog *log)
{
    ModelSetup s = repeated_setup<ModelSetup>(
        r, [&] { return setup_model(a.seed, log); });
    const int64_t batch = s.ds->batch_size;
    const int64_t batches =
        (static_cast<int64_t>(s.ds->train_nodes.size()) + batch - 1) /
        batch;

    // A traced run alternates run_epoch with a traced replay of the same
    // epoch; the replay's reused-node total must equal run_epoch's.
    std::unique_ptr<ModelReplay> replay;
    if (log)
        replay = std::make_unique<ModelReplay>(*s.ds, *s.pipe);
    size_t epochs = 0, replay_matching = 0;
    std::string modelled = "-", reused = "-";
    repeat_for(a, [&] {
        int64_t nodes_reused = -1;
        ++epochs;
        r.attempted += batches;
        const double sec = timed([&] {
            try {
                const core::EpochResult res = s.pipe->run_epoch();
                nodes_reused = res.nodes_reused;
                if (epochs == 1)
                    modelled = exact(res.epoch_seconds);
            } catch (const std::exception &e) {
                r.failed += batches;
                r.errors.push_back(std::string("run_epoch threw: ") +
                                   e.what());
            }
        });
        r.units.emplace_back(static_cast<double>(batches), sec);
        if (epochs == 1)
            reused = std::to_string(nodes_reused);
        if (!replay)
            return sec;
        int64_t replay_reused = 0;
        const double traced =
            timed([&] { replay_reused = replay->epoch(*log, r); });
        r.traced_units.emplace_back(static_cast<double>(batches), traced);
        r.traced_wall_s += traced;
        if (replay_reused == nodes_reused)
            ++replay_matching;
        return sec + traced;
    });
    r.witness.emplace_back("epochs", std::to_string(epochs));
    r.witness.emplace_back("epoch1_modelled_s", modelled);
    r.witness.emplace_back("epoch1_nodes_reused", reused);
    if (!replay)
        return;
    r.witness.emplace_back("replay_epochs_reuse_matching",
                           std::to_string(replay_matching) + "/" +
                               std::to_string(epochs));
    if (replay_matching != epochs)
        r.errors.push_back("model replay reused-node total differs from "
                           "run_epoch's");
}

// ------------------------------------------------------------------
// Output.
// ------------------------------------------------------------------

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
write_json(std::FILE *f, const Args &a, const Result &r,
           const SpanLog *log)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto pairs = [&](const std::vector<std::pair<double, double>> &v) {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); ++i)
            s += (i ? ",[" : "[") + exact(v[i].first) + "," +
                 exact(v[i].second) + "]";
        return s + "]";
    };
    std::fprintf(f, "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,",
                 quoted(a.workload).c_str(),
                 static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
    std::fprintf(f, "\"setup_s\":[");
    for (size_t i = 0; i < r.setup_s.size(); ++i)
        std::fprintf(f, "%s%s", i ? "," : "", exact(r.setup_s[i]).c_str());
    std::fprintf(f, "],\"units\":%s,\"traced_units\":%s,",
                 pairs(r.units).c_str(), pairs(r.traced_units).c_str());
    std::fprintf(f, "\"peak_rss_kib\":%ld,\"attempted\":%lld,"
                    "\"failed\":%lld,\"traced_wall_s\":%s,",
                 usage.ru_maxrss, static_cast<long long>(r.attempted),
                 static_cast<long long>(r.failed),
                 exact(r.traced_wall_s).c_str());
    std::fprintf(f, "\"errors\":[");
    for (size_t i = 0; i < r.errors.size(); ++i)
        std::fprintf(f, "%s%s", i ? "," : "", quoted(r.errors[i]).c_str());
    std::fprintf(f, "],\"witness\":{");
    for (size_t i = 0; i < r.witness.size(); ++i)
        std::fprintf(f, "%s%s:%s", i ? "," : "",
                     quoted(r.witness[i].first).c_str(),
                     quoted(r.witness[i].second).c_str());
    std::fprintf(f, "},\"ratios\":{");
    size_t i = 0;
    for (const auto &[name, v] : r.ratios)
        std::fprintf(f, "%s%s:[%s,%s]", i++ ? "," : "",
                     quoted(name).c_str(), exact(v.first).c_str(),
                     exact(v.second).c_str());
    std::fprintf(f, "},\"samples\":{");
    i = 0;
    for (const auto &[name, v] : r.samples) {
        std::fprintf(f, "%s%s:[", i++ ? "," : "", quoted(name).c_str());
        for (size_t k = 0; k < v.size(); ++k)
            std::fprintf(f, "%s%s", k ? "," : "", exact(v[k]).c_str());
        std::fprintf(f, "]");
    }
    std::fprintf(f, "},\"spans\":[");
    if (log) {
        const auto &spans = log->spans();
        for (size_t k = 0; k < spans.size(); ++k)
            std::fprintf(f, "%s[%s,%s,%s,%d]", k ? "," : "",
                         quoted(spans[k].name).c_str(),
                         exact(spans[k].start_us).c_str(),
                         exact(spans[k].end_us).c_str(), spans[k].parent);
    }
    std::fprintf(f, "]}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: fastgl_perfbench --workload "
                 "train|serve|serve-logits|model --seed N --seconds S "
                 "--trace 0|1 --out FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = val != "0";
        else if (key == "--out")
            a.out = val;
        else
            return usage();
    }
    if (argc % 2 == 0 || a.out.empty() || !(a.seconds > 0.0))
        return usage();

    Result r;
    SpanLog log(Clock::now());
    SpanLog *slog = a.trace ? &log : nullptr;
    if (a.workload == "train")
        run_train(a, r, slog);
    else if (a.workload == "serve")
        run_serve(a, r, slog, false);
    else if (a.workload == "serve-logits")
        run_serve(a, r, slog, true);
    else if (a.workload == "model")
        run_model(a, r, slog);
    else
        return usage();

    std::FILE *f = std::fopen(a.out.c_str(), "w");
    if (!f) {
        std::perror(a.out.c_str());
        return 1;
    }
    write_json(f, a, r, slog);
    if (std::fclose(f) != 0) {
        std::perror(a.out.c_str());
        return 1;
    }
    return 0;
}
