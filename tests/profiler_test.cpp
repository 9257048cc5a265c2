/**
 * @file
 * Tests for the deterministic per-stage profiler (fastgl::prof), the
 * closed-loop serving path (Server::serve_closed), and the
 * profiler-driven sampler-pool autoscaler. The standing contract under
 * test: profiling on/off and any autoscale decision sequence leave
 * losses and serving fingerprints bit-identical at any worker count.
 */
#include <gtest/gtest.h>

#include <vector>

#include "core/trainer.h"
#include "graph/datasets.h"
#include "prof/profiler.h"
#include "serve/load_generator.h"
#include "serve/server.h"
#include "sim/gpu_spec.h"

namespace fastgl {
namespace {

/** Golden digest of the profiled fixed training epoch below; change it
 *  only when the cost model or profiler schema intentionally moves. */
constexpr uint64_t kGoldenTrainProfile = 0xE60B138C8B4B1002ULL;

const graph::Dataset &
serve_products()
{
    static graph::Dataset ds = [] {
        graph::ReplicaOptions opts;
        opts.size_factor = 0.15;
        opts.materialize_features = false;
        return graph::load_replica(graph::DatasetId::kProducts, opts);
    }();
    return ds;
}

const graph::Dataset &
train_reddit()
{
    static graph::Dataset ds = [] {
        graph::ReplicaOptions opts;
        opts.size_factor = 0.05;
        opts.materialize_features = true;
        return graph::load_replica(graph::DatasetId::kReddit, opts);
    }();
    return ds;
}

serve::ServerOptions
base_server_options()
{
    serve::ServerOptions opts;
    opts.worker_threads = 2;
    opts.fanouts = {5, 10, 15};
    opts.seed = 11;
    return opts;
}

std::vector<serve::InferenceRequest>
make_trace(const serve::Server &server, double rate_rps,
           int64_t num_requests, double slo = 50e-3)
{
    serve::LoadGeneratorOptions lopts;
    lopts.rate_rps = rate_rps;
    lopts.num_requests = num_requests;
    lopts.slo_deadline = slo;
    lopts.seed = 13;
    serve::LoadGenerator gen(server.popularity(), lopts);
    return gen.generate();
}

serve::ClosedLoopScript
make_closed_script(const serve::Server &server, int clients,
                   int64_t per_client, double think = 1e-3)
{
    serve::LoadGeneratorOptions lopts;
    lopts.num_requests = clients * per_client;
    lopts.slo_deadline = 50e-3;
    lopts.seed = 13;
    serve::LoadGenerator gen(server.popularity(), lopts);
    serve::ClosedLoopOptions copts;
    copts.num_clients = clients;
    copts.requests_per_client = per_client;
    copts.think_time = think;
    return gen.generate_closed(copts);
}

// ---------------------------------------------------------------------
// ProfilerTest — recording is observation only
// ---------------------------------------------------------------------

TEST(ProfilerTest, DisabledProfilerIsANoOp)
{
    prof::Profiler off(false);
    off.record(prof::Stage::kSampler, 1e-3, 2e-3, 4);
    off.count_shed(prof::Stage::kFeeder);
    off.record_device(0, 0.0, 1e-3, 1e-3);
    const prof::ProfileReport report = off.report();
    EXPECT_FALSE(report.enabled);
    EXPECT_TRUE(report.stages.empty());
    EXPECT_EQ(off.stage(prof::Stage::kSampler).items, 0);
}

TEST(ProfilerTest, ServeFingerprintIdenticalProfileOnOffAtAnyWidth)
{
    const graph::Dataset &ds = serve_products();
    uint64_t reference = 0;
    for (int workers : {1, 4, 8}) {
        serve::ServerOptions off = base_server_options();
        off.worker_threads = workers;
        serve::ServerOptions on = off;
        on.profile = true;

        serve::Server server_off(ds, off);
        serve::Server server_on(ds, on);
        const auto trace = make_trace(server_off, 4000.0, 384);
        const auto ra = server_off.serve(trace);
        const auto rb = server_on.serve(trace);

        const uint64_t fp_off = server_off.last_stats().fingerprint;
        const uint64_t fp_on = server_on.last_stats().fingerprint;
        EXPECT_EQ(fp_off, fp_on) << "workers=" << workers;
        ASSERT_EQ(ra.size(), rb.size());
        for (size_t i = 0; i < ra.size(); ++i) {
            EXPECT_EQ(ra[i].outcome, rb[i].outcome);
            EXPECT_EQ(ra[i].latency, rb[i].latency);
        }
        if (reference == 0)
            reference = fp_off;
        else
            EXPECT_EQ(fp_off, reference) << "workers=" << workers;
        EXPECT_TRUE(server_on.last_stats().profile.enabled);
        EXPECT_FALSE(server_off.last_stats().profile.enabled);
    }
}

TEST(ProfilerTest, ServeProfileReportIsDeterministic)
{
    const graph::Dataset &ds = serve_products();
    uint64_t profile_fp = 0;
    for (int workers : {1, 4}) {
        serve::ServerOptions opts = base_server_options();
        opts.worker_threads = workers;
        opts.profile = true;
        serve::Server server(ds, opts);
        server.serve(make_trace(server, 4000.0, 384));
        const uint64_t fp =
            server.last_stats().profile.fingerprint();
        if (profile_fp == 0)
            profile_fp = fp;
        else
            EXPECT_EQ(fp, profile_fp) << "workers=" << workers;
    }
}

TEST(ProfilerTest, ServeStageAccountingIsConserved)
{
    const graph::Dataset &ds = serve_products();
    serve::ServerOptions opts = base_server_options();
    opts.profile = true;
    serve::Server server(ds, opts);
    server.serve(make_trace(server, 4000.0, 384));
    const serve::ServingStats &st = server.last_stats();
    const prof::ProfileReport &report = st.profile;

    // Device busy seconds are summed in global dispatch order on both
    // sides, so the profiler's copy is bit-equal to the serving stat.
    EXPECT_EQ(report.device_busy_seconds, st.gpu_busy_seconds);
    ASSERT_EQ(report.stages.size(), prof::kNumStages);
    // Every processed request passes the feeder exactly once; sheds
    // and drops are attributed there too.
    const prof::StageSummary &feeder =
        report.stages[size_t(prof::Stage::kFeeder)];
    EXPECT_EQ(feeder.items, st.offered);
    EXPECT_EQ(feeder.shed, st.shed_queue);
    EXPECT_EQ(feeder.dropped, st.dropped_deadline);
    // One compute record per dispatched batch, occupancy = requests.
    const prof::StageSummary &compute =
        report.stages[size_t(prof::Stage::kCompute)];
    EXPECT_EQ(compute.items, st.batches);
    EXPECT_EQ(report.makespan, st.makespan);
}

TEST(ProfilerTest, TrainerLossesIdenticalProfileOnOff)
{
    const graph::Dataset ds = train_reddit();
    core::TrainerOptions base;
    base.fanouts = {4, 4};
    base.max_batches = 4;
    base.batch_size = 32;

    core::TrainerOptions profiled = base;
    profiled.profile = true;
    core::Trainer off(ds, base);
    core::Trainer on(ds, profiled);
    const auto a = off.train_epoch();
    const auto b = on.train_epoch();

    ASSERT_EQ(a.iteration_losses.size(), b.iteration_losses.size());
    for (size_t i = 0; i < a.iteration_losses.size(); ++i)
        EXPECT_EQ(a.iteration_losses[i], b.iteration_losses[i]);
    EXPECT_EQ(a.mean_loss, b.mean_loss);
    EXPECT_FALSE(a.profile.enabled);
    ASSERT_TRUE(b.profile.enabled);
}

TEST(ProfilerTest, TrainerComputeStageConservesModelledSeconds)
{
    const graph::Dataset ds = train_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    opts.profile = true;
    core::Trainer trainer(ds, opts);
    const auto stats = trainer.train_epoch();

    ASSERT_TRUE(stats.profile.enabled);
    ASSERT_EQ(stats.profile.stages.size(), prof::kNumStages);
    // The compute stage replays the exact doubles the cost model
    // accumulated, in the same order — bit-equal, not just close.
    const prof::StageSummary &compute =
        stats.profile.stages[size_t(prof::Stage::kCompute)];
    EXPECT_EQ(compute.busy_seconds, stats.modelled_compute_seconds);
    EXPECT_EQ(compute.items, 4);
    // The virtual pipeline's makespan covers at least the pure compute
    // time (sampling and gather can only push completion later).
    EXPECT_GE(stats.profile.makespan, stats.modelled_compute_seconds);
}

TEST(ProfilerTest, GoldenProfileFingerprint)
{
    // One-number witness that the profiled virtual replay of a fixed
    // training epoch never drifts: dataset replica, cost model, and
    // profiler accumulation all feed this digest.
    const graph::Dataset ds = train_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    opts.profile = true;
    core::Trainer a(ds, opts);
    core::Trainer b(ds, opts);
    const uint64_t fp_a = a.train_epoch().profile.fingerprint();
    const uint64_t fp_b = b.train_epoch().profile.fingerprint();
    EXPECT_EQ(fp_a, fp_b);
    EXPECT_EQ(fp_a, kGoldenTrainProfile);
}

TEST(ProfilerTest, TrainerGatherStageChargesTheFeatureResidency)
{
    // Training's gather stage charges what serving's does: one PCIe
    // launch per batch, the rows that miss every device cache over
    // PCIe and through the host gather, plus the peer-link seconds.
    const graph::Dataset &ds = train_reddit();
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    opts.profile = true;
    const sim::GpuSpec spec = sim::rtx3090();
    const double row_bytes = double(ds.features.row_bytes());
    const auto gather_busy = [](const core::TrainEpochStats &s) {
        return s.profile.stages[size_t(prof::Stage::kGather)]
            .busy_seconds;
    };
    const auto expected = [&](int64_t misses, double peer_seconds) {
        const double bytes = double(misses) * row_bytes;
        return 4 * spec.pcie_latency + bytes / spec.pcie_bw +
               bytes / spec.host_gather_bw + peer_seconds;
    };

    // Cache 0 on one GPU is the golden configuration: it must not move.
    core::Trainer cold(ds, opts);
    const auto uncached = cold.train_epoch();
    EXPECT_EQ(uncached.profile.fingerprint(), kGoldenTrainProfile);

    // Cached rows skip PCIe, so a warm cache shortens the stage.
    opts.feature_cache_ratio = 0.5;
    core::Trainer warm(ds, opts);
    const auto cached = warm.train_epoch();
    ASSERT_GT(cached.residency.features.local_hits, 0);
    EXPECT_LT(gather_busy(cached), gather_busy(uncached));
    EXPECT_NEAR(gather_busy(cached),
                expected(cached.residency.features.misses, 0.0),
                1e-9 * gather_busy(cached));

    // Two sharded GPUs: shard misses cross PCIe, peer hits the links.
    opts.num_gpus = 2;
    core::Trainer sharded(ds, opts);
    const auto multi = sharded.train_epoch();
    double peer_seconds = 0.0;
    for (const sim::PeerLinkStats &link : multi.residency.peer_links)
        peer_seconds += link.seconds;
    ASSERT_GT(peer_seconds, 0.0);
    EXPECT_NEAR(gather_busy(multi),
                expected(multi.residency.features.misses, peer_seconds),
                1e-9 * gather_busy(multi));
}

// ---------------------------------------------------------------------
// ClosedLoopTest — finite clients with think time
// ---------------------------------------------------------------------

TEST(ClosedLoopTest, DeterministicAcrossWorkerCounts)
{
    const graph::Dataset &ds = serve_products();
    uint64_t reference = 0;
    std::vector<serve::InferenceResponse> first;
    for (int workers : {1, 4, 8}) {
        serve::ServerOptions opts = base_server_options();
        opts.worker_threads = workers;
        serve::Server server(ds, opts);
        const auto script = make_closed_script(server, 8, 24);
        const auto responses = server.serve_closed(script);
        const serve::ServingStats &st = server.last_stats();
        EXPECT_EQ(st.closed_loop_clients, 8);
        EXPECT_EQ(st.offered, 8 * 24);
        if (reference == 0) {
            reference = st.fingerprint;
            first = responses;
        } else {
            EXPECT_EQ(st.fingerprint, reference)
                << "workers=" << workers;
            ASSERT_EQ(responses.size(), first.size());
            for (size_t i = 0; i < responses.size(); ++i) {
                EXPECT_EQ(responses[i].outcome, first[i].outcome);
                EXPECT_EQ(responses[i].completion,
                          first[i].completion);
            }
        }
    }
}

TEST(ClosedLoopTest, EveryScriptRequestGetsADecision)
{
    const graph::Dataset &ds = serve_products();
    serve::Server server(ds, base_server_options());
    const auto script = make_closed_script(server, 4, 16);
    const auto responses = server.serve_closed(script);
    ASSERT_EQ(responses.size(), script.requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].request_id,
                  static_cast<int64_t>(i));
        EXPECT_NE(responses[i].outcome,
                  serve::Outcome::kUnprocessed);
    }
}

TEST(ClosedLoopTest, PopulationBoundsPendingSoNothingIsShed)
{
    // A closed loop can never have more than num_clients requests in
    // flight, so an admission bound above the population never sheds.
    const graph::Dataset &ds = serve_products();
    serve::ServerOptions opts = base_server_options();
    opts.admission.max_pending = 64;
    serve::Server server(ds, opts);
    const auto script = make_closed_script(server, 8, 16, 0.2e-3);
    server.serve_closed(script);
    const serve::ServingStats &st = server.last_stats();
    EXPECT_EQ(st.shed_queue, 0);
    EXPECT_EQ(st.served + st.dropped_deadline, st.offered);
}

TEST(ClosedLoopTest, ProfileOnOffLeavesClosedLoopBitIdentical)
{
    const graph::Dataset &ds = serve_products();
    serve::ServerOptions off = base_server_options();
    serve::ServerOptions on = off;
    on.profile = true;
    serve::Server server_off(ds, off);
    serve::Server server_on(ds, on);
    const auto script = make_closed_script(server_off, 8, 24);
    server_off.serve_closed(script);
    server_on.serve_closed(script);
    EXPECT_EQ(server_off.last_stats().fingerprint,
              server_on.last_stats().fingerprint);
}

// ---------------------------------------------------------------------
// AutoscaleTest — deterministic elastic sampler pool
// ---------------------------------------------------------------------

serve::LoadGeneratorOptions
flash_options(int64_t num_requests)
{
    // A crowd harsh enough that one modelled sampler worker (service
    // a few microseconds per request) visibly queues: 10x the base
    // rate from 5 ms on, sustained for most of the trace.
    serve::LoadGeneratorOptions lopts;
    lopts.rate_rps = 30000.0;
    lopts.trace = serve::ArrivalTrace::kFlashCrowd;
    lopts.flash_start = 5e-3;
    lopts.flash_duration = 20e-3;
    lopts.flash_multiplier = 10.0;
    lopts.num_requests = num_requests;
    lopts.slo_deadline = 50e-3;
    lopts.seed = 13;
    return lopts;
}

TEST(AutoscaleTest, SamplerPoolRunsAreDeterministic)
{
    const graph::Dataset &ds = serve_products();
    uint64_t reference = 0;
    for (int workers : {1, 4}) {
        serve::ServerOptions opts = base_server_options();
        opts.worker_threads = workers;
        opts.modelled_samplers = 2;
        serve::Server server(ds, opts);
        server.serve(make_trace(server, 4000.0, 384));
        const uint64_t fp = server.last_stats().fingerprint;
        EXPECT_EQ(server.last_stats().modelled_samplers, 2);
        if (reference == 0)
            reference = fp;
        else
            EXPECT_EQ(fp, reference) << "workers=" << workers;
    }
}

TEST(AutoscaleTest, FlashCrowdTriggersScaleUpDeterministically)
{
    const graph::Dataset &ds = serve_products();
    uint64_t reference = 0;
    size_t reference_events = 0;
    for (int workers : {1, 4}) {
        serve::ServerOptions opts = base_server_options();
        opts.worker_threads = workers;
        // A deep admission queue lets the pool backlog (and with it
        // the windowed queue wait the autoscaler reacts to) build up
        // instead of being shed at the front door, and disabling the
        // embedding cache keeps every request on the sampler pool.
        opts.admission.max_pending = 512;
        opts.embedding.capacity_rows = 0;
        opts.autoscale.enabled = true;
        opts.autoscale.min_workers = 1;
        opts.autoscale.max_workers = 8;
        opts.autoscale.wait_high = 0.2e-3;
        serve::Server server(ds, opts);
        serve::LoadGenerator gen(server.popularity(),
                                 flash_options(2048));
        server.serve(gen.generate());
        const serve::ServingStats &st = server.last_stats();
        ASSERT_TRUE(st.autoscale.enabled);
        // The flash crowd must push the pool past its floor.
        EXPECT_FALSE(st.autoscale.events.empty());
        EXPECT_GE(st.autoscale.first_pressure_at, 0.0);
        EXPECT_GE(st.autoscale.first_scale_up_at,
                  st.autoscale.first_pressure_at);
        EXPECT_GE(st.autoscale.scale_up_lag, 0.0);
        for (const serve::AutoscaleEvent &ev : st.autoscale.events) {
            EXPECT_GE(ev.workers_after, opts.autoscale.min_workers);
            EXPECT_LE(ev.workers_after, opts.autoscale.max_workers);
            EXPECT_NE(ev.workers_after, ev.workers_before);
        }
        if (reference == 0) {
            reference = st.fingerprint;
            reference_events = st.autoscale.events.size();
        } else {
            EXPECT_EQ(st.fingerprint, reference)
                << "workers=" << workers;
            EXPECT_EQ(st.autoscale.events.size(), reference_events);
        }
    }
}

TEST(AutoscaleTest, ProfileOnOffLeavesAutoscaledRunBitIdentical)
{
    const graph::Dataset &ds = serve_products();
    serve::ServerOptions off = base_server_options();
    off.autoscale.enabled = true;
    off.autoscale.max_workers = 8;
    serve::ServerOptions on = off;
    on.profile = true;
    serve::Server server_off(ds, off);
    serve::Server server_on(ds, on);
    serve::LoadGenerator gen(server_off.popularity(),
                             flash_options(512));
    const auto trace = gen.generate();
    server_off.serve(trace);
    server_on.serve(trace);
    EXPECT_EQ(server_off.last_stats().fingerprint,
              server_on.last_stats().fingerprint);
    // The autoscaler saw the same pressure either way.
    ASSERT_EQ(server_on.last_stats().autoscale.events.size(),
              server_off.last_stats().autoscale.events.size());
}

TEST(AutoscaleTest, UnitPolicyScalesUpOnPressureAndDownWhenIdle)
{
    serve::AutoscalerOptions opts;
    opts.enabled = true;
    opts.min_workers = 1;
    opts.max_workers = 4;
    opts.check_interval = 1e-3;
    opts.wait_high = 0.5e-3;
    opts.util_low = 0.25;
    opts.cooldown = 0.0;
    serve::Autoscaler scaler(opts, 1);

    // Window 1: heavy queueing -> double the pool.
    for (int i = 0; i < 8; ++i)
        scaler.observe(0.5e-3, 2e-3, 0.1e-3);
    EXPECT_EQ(scaler.maybe_scale(1.1e-3, 1), 2);
    // Window 2: almost no work -> shrink by one.
    scaler.observe(1.5e-3, 0.0, 0.01e-3);
    EXPECT_EQ(scaler.maybe_scale(2.2e-3, 2), 1);
    // Window 3: idle at the floor -> no change.
    scaler.observe(2.5e-3, 0.0, 0.01e-3);
    EXPECT_EQ(scaler.maybe_scale(3.3e-3, 1), 0);

    const serve::AutoscaleReport report = scaler.report(1);
    ASSERT_EQ(report.events.size(), 2u);
    EXPECT_EQ(report.events[0].workers_after, 2);
    EXPECT_EQ(report.events[1].workers_after, 1);
    EXPECT_GE(report.first_pressure_at, 0.0);
    EXPECT_EQ(report.first_scale_up_at, report.events[0].at);
}

} // namespace
} // namespace fastgl
