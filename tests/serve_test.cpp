/**
 * @file
 * Tests for fastgl::serve — the load generator, dynamic batcher,
 * embedding cache, and the Server's virtual-clock event machine:
 * bit-identical serving results across worker thread counts, admission
 * control engaging under overload instead of latency diverging, and the
 * modelled benefits of batching and the embedding cache.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "graph/datasets.h"
#include "serve/batcher.h"
#include "serve/embedding_cache.h"
#include "serve/load_generator.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace fastgl {
namespace {

const graph::Dataset &
products()
{
    static graph::Dataset ds = [] {
        graph::ReplicaOptions opts;
        opts.size_factor = 0.15;
        opts.materialize_features = false;
        return graph::load_replica(graph::DatasetId::kProducts, opts);
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

// Digests of fixed serving runs on the products() replica (fanouts
// {5,10,15}, server seed 11, trace seed 13). They pin the virtual world
// of both entry points — every admission decision, batch composition,
// latency bit pattern and prediction — so a refactor of the serving
// harness must leave them untouched. Change one only when the serving
// model intentionally moves.
constexpr uint64_t kGoldenOpenLoop = 0x3D9E169AABFB5D9CULL;
constexpr uint64_t kGoldenClosedLoop = 0xB9F46D67B63D3C70ULL;
constexpr uint64_t kGoldenLogits = 0xC7A919FD919677B5ULL;
constexpr uint64_t kGoldenScaledClosedLoop = 0xA1DCA48FD71D930CULL;
constexpr uint64_t kGoldenScaledClosedProfile = 0x5D1CB2E2085B3705ULL;

// ---------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------

TEST(LoadGenerator, TraceIsDeterministicDenseAndArrivalOrdered)
{
    std::vector<graph::NodeId> population(100);
    for (size_t i = 0; i < population.size(); ++i)
        population[i] = static_cast<graph::NodeId>(i);

    serve::LoadGeneratorOptions opts;
    opts.rate_rps = 500.0;
    opts.num_requests = 256;
    opts.slo_deadline = 10e-3;
    opts.seed = 42;
    serve::LoadGenerator gen(population, opts);

    const auto a = gen.generate();
    const auto b = gen.generate();
    ASSERT_EQ(a.size(), 256u);
    double prev = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        EXPECT_GE(a[i].arrival, prev); // Poisson arrivals are monotone
        prev = a[i].arrival;
        EXPECT_EQ(a[i].deadline, a[i].arrival + opts.slo_deadline);
        ASSERT_EQ(a[i].targets.size(), 1u);
        // Bitwise repeatability.
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].targets, b[i].targets);
    }
    // Mean arrival gap tracks the offered rate (law of large numbers;
    // generous tolerance keeps this deterministic check robust).
    const double mean_gap = a.back().arrival / double(a.size() - 1);
    EXPECT_NEAR(mean_gap, 1.0 / opts.rate_rps, 0.5 / opts.rate_rps);
}

TEST(LoadGenerator, HotTrafficConcentratesOnHeadOfPopulation)
{
    std::vector<graph::NodeId> population(1000);
    for (size_t i = 0; i < population.size(); ++i)
        population[i] = static_cast<graph::NodeId>(i);

    serve::LoadGeneratorOptions opts;
    opts.num_requests = 4000;
    opts.hot_fraction = 0.10;
    opts.hot_traffic = 0.80;
    opts.seed = 7;
    serve::LoadGenerator gen(population, opts);

    int64_t hot = 0, total = 0;
    for (const auto &req : gen.generate()) {
        for (graph::NodeId t : req.targets) {
            hot += t < 100 ? 1 : 0; // first 10% of the population
            ++total;
        }
    }
    // 80% of draws target the hot set directly, plus the uniform tail's
    // incidental 10% x 20%: expect ~82%, assert comfortably above the
    // 10% a uniform generator would give.
    EXPECT_GT(double(hot) / double(total), 0.6);
}

TEST(LoadGenerator, TargetsPerRequestAreDistinct)
{
    std::vector<graph::NodeId> population(50);
    for (size_t i = 0; i < population.size(); ++i)
        population[i] = static_cast<graph::NodeId>(i);

    serve::LoadGeneratorOptions opts;
    opts.num_requests = 200;
    opts.targets_per_request = 4;
    serve::LoadGenerator gen(population, opts);
    for (const auto &req : gen.generate()) {
        std::set<graph::NodeId> uniq(req.targets.begin(),
                                     req.targets.end());
        EXPECT_EQ(uniq.size(), req.targets.size());
    }
}

// ---------------------------------------------------------------------
// DynamicBatcher
// ---------------------------------------------------------------------

serve::PendingRequest
pending(int64_t id, double arrival)
{
    serve::PendingRequest pr;
    pr.request.id = id;
    pr.request.arrival = arrival;
    return pr;
}

TEST(DynamicBatcher, SizeTriggerClosesWhenFull)
{
    serve::BatcherPolicy policy;
    policy.max_batch = 3;
    policy.max_wait = 1.0;
    serve::DynamicBatcher batcher(policy);

    EXPECT_TRUE(batcher.empty());
    EXPECT_EQ(batcher.close_time(),
              std::numeric_limits<double>::infinity());
    batcher.admit(pending(0, 0.10), 0.10);
    batcher.admit(pending(1, 0.12), 0.12);
    EXPECT_FALSE(batcher.full());
    batcher.admit(pending(2, 0.13), 0.13);
    EXPECT_TRUE(batcher.full());

    const auto batch = batcher.take();
    ASSERT_EQ(batch.size(), 3u);
    // Admission order preserved.
    EXPECT_EQ(batch[0].request.id, 0);
    EXPECT_EQ(batch[2].request.id, 2);
    EXPECT_TRUE(batcher.empty());
}

TEST(DynamicBatcher, WaitTriggerTracksOldestMember)
{
    serve::BatcherPolicy policy;
    policy.max_batch = 100;
    policy.max_wait = 5e-3;
    serve::DynamicBatcher batcher(policy);

    batcher.admit(pending(0, 1.000), 1.000);
    batcher.admit(pending(1, 1.004), 1.004);
    // close_time is anchored to the *first* admission.
    EXPECT_DOUBLE_EQ(batcher.close_time(), 1.005);
    batcher.take();
    // The next batch re-anchors.
    batcher.admit(pending(2, 2.000), 2.000);
    EXPECT_DOUBLE_EQ(batcher.close_time(), 2.005);
}

TEST(DynamicBatcher, ZeroWaitDisablesCoalescing)
{
    serve::BatcherPolicy policy;
    policy.max_batch = 1;
    policy.max_wait = 0.0;
    serve::DynamicBatcher batcher(policy);
    batcher.admit(pending(0, 0.5), 0.5);
    EXPECT_TRUE(batcher.full()); // dispatches immediately
    EXPECT_DOUBLE_EQ(batcher.close_time(), 0.5);
}

// ---------------------------------------------------------------------
// EmbeddingCache
// ---------------------------------------------------------------------

TEST(EmbeddingCache, LruEvictsColdestAndStalenessExpires)
{
    serve::EmbeddingCacheOptions opts;
    opts.capacity_rows = 2;
    opts.staleness = 1.0;
    serve::EmbeddingCache cache(opts);

    cache.update(10, 0.0);
    cache.update(20, 0.1);
    EXPECT_TRUE(cache.lookup(10, 0.5));
    // Node 20 is now LRU; inserting 30 evicts it.
    cache.update(30, 0.6);
    EXPECT_EQ(cache.size(), 2);
    EXPECT_FALSE(cache.lookup(20, 0.7));
    EXPECT_TRUE(cache.lookup(30, 0.7));
    // Staleness: node 10 was computed at 0.0; at t=1.5 it is stale.
    EXPECT_FALSE(cache.lookup(10, 1.5));
    // update() refreshes the timestamp.
    cache.update(30, 2.0);
    EXPECT_TRUE(cache.lookup(30, 2.9));
    EXPECT_GT(cache.hits(), 0);
    EXPECT_GT(cache.misses(), 0);
}

TEST(EmbeddingCache, ZeroCapacityDisables)
{
    serve::EmbeddingCacheOptions opts;
    opts.capacity_rows = 0;
    serve::EmbeddingCache cache(opts);
    EXPECT_FALSE(cache.enabled());
    cache.update(1, 0.0);
    EXPECT_FALSE(cache.lookup(1, 0.0));
    EXPECT_EQ(cache.size(), 0);
}

// ---------------------------------------------------------------------
// Server: determinism
// ---------------------------------------------------------------------

void
expect_identical_serving(const serve::ServingStats &a,
                         const serve::ServingStats &b)
{
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.served_late, b.served_late);
    EXPECT_EQ(a.embedding_hits, b.embedding_hits);
    EXPECT_EQ(a.shed_queue, b.shed_queue);
    EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.p50_latency, b.p50_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    const match::PartitionCacheCounters &fa = a.residency.features;
    const match::PartitionCacheCounters &fb = b.residency.features;
    EXPECT_EQ(fa.local_hits, fb.local_hits);
    EXPECT_EQ(fa.remote_hits, fb.remote_hits);
    EXPECT_EQ(fa.misses, fb.misses);
    EXPECT_EQ(a.gpu_busy_seconds, b.gpu_busy_seconds);
}

TEST(Serve, BitIdenticalAcrossWorkerThreadCounts)
{
    auto opts = base_server_options();
    opts.worker_threads = 1;
    serve::Server reference_server(products(), opts);
    const auto trace = make_trace(reference_server, 3000.0, 384);
    const auto reference = reference_server.serve(trace);
    const serve::ServingStats ref_stats = reference_server.last_stats();
    EXPECT_GT(ref_stats.served, 0);

    for (int threads : {4, 8}) {
        auto topts = base_server_options();
        topts.worker_threads = threads;
        serve::Server server(products(), topts);
        const auto responses = server.serve(trace);
        expect_identical_serving(ref_stats, server.last_stats());
        ASSERT_EQ(responses.size(), reference.size());
        for (size_t i = 0; i < responses.size(); ++i) {
            EXPECT_EQ(responses[i].outcome, reference[i].outcome);
            EXPECT_EQ(responses[i].latency, reference[i].latency);
            EXPECT_EQ(responses[i].batch_id, reference[i].batch_id);
        }
    }
}

TEST(Serve, RepeatedServeOnOneServerIsBitIdentical)
{
    serve::Server server(products(), base_server_options());
    const auto trace = make_trace(server, 2000.0, 256);
    server.serve(trace);
    const serve::ServingStats first = server.last_stats();
    server.serve(trace); // caches start cold on every call
    expect_identical_serving(first, server.last_stats());
}

TEST(Serve, RealForwardPredictionsBitIdenticalAcrossThreadCounts)
{
    // compute_logits runs the real numeric forward pass per batch on
    // the kernel engine; predictions (and the fingerprint words they
    // add) must not depend on worker threads or engine width.
    auto ref_opts = base_server_options();
    ref_opts.worker_threads = 1;
    ref_opts.compute_logits = true;
    ref_opts.compute_threads = 1;
    serve::Server reference_server(products(), ref_opts);
    const auto trace = make_trace(reference_server, 2000.0, 192);
    const auto reference = reference_server.serve(trace);
    const serve::ServingStats ref_stats = reference_server.last_stats();
    EXPECT_GT(ref_stats.compute_batches, 0);
    EXPECT_GT(ref_stats.compute_seconds, 0.0);

    // At least one served-by-batch response carries predictions in
    // class range.
    const int num_classes = [] {
        return static_cast<int>(products().features.num_classes());
    }();
    bool any_predicted = false;
    for (const auto &resp : reference) {
        if (resp.batch_id < 0)
            continue;
        EXPECT_FALSE(resp.predicted.empty());
        for (int cls : resp.predicted) {
            EXPECT_GE(cls, 0);
            EXPECT_LT(cls, num_classes);
        }
        any_predicted = true;
    }
    EXPECT_TRUE(any_predicted);

    auto opts = base_server_options();
    opts.worker_threads = 4;
    opts.compute_logits = true;
    opts.compute_threads = 4;
    serve::Server server(products(), opts);
    const auto responses = server.serve(trace);
    expect_identical_serving(ref_stats, server.last_stats());
    ASSERT_EQ(responses.size(), reference.size());
    for (size_t i = 0; i < responses.size(); ++i)
        EXPECT_EQ(responses[i].predicted, reference[i].predicted);
}

// ---------------------------------------------------------------------
// Server: admission control under overload
// ---------------------------------------------------------------------

TEST(Serve, SheddingBoundsTailLatencyUnderOverload)
{
    // An offered rate far beyond capacity. Protected: queue-depth
    // shedding + deadline drops keep the pending set, and with it the
    // tail latency, bounded. Unprotected: the backlog grows without
    // bound and the tail diverges toward the full trace duration.
    const double rate = 300000.0;
    const int64_t n = 1024;
    const double slo = 20e-3;

    auto protected_opts = base_server_options();
    protected_opts.admission.max_pending = 32;
    protected_opts.admission.early_drop = true;
    serve::Server protected_server(products(), protected_opts);
    const auto trace = make_trace(protected_server, rate, n, slo);
    protected_server.serve(trace);
    const serve::ServingStats prot = protected_server.last_stats();

    auto open_opts = base_server_options();
    open_opts.admission.max_pending = 0; // shedding off
    open_opts.admission.early_drop = false;
    serve::Server open_server(products(), open_opts);
    open_server.serve(trace);
    const serve::ServingStats open = open_server.last_stats();

    // Overload engages admission control instead of growing the queue.
    EXPECT_GT(prot.shed_queue + prot.dropped_deadline, 0);
    EXPECT_GT(prot.shed_rate, 0.0);
    EXPECT_EQ(open.shed_queue + open.dropped_deadline, 0);
    EXPECT_EQ(open.served, n);

    // The protected tail is finite and far below the diverging one.
    EXPECT_TRUE(std::isfinite(prot.p99_latency));
    EXPECT_GT(prot.p99_latency, 0.0);
    EXPECT_LT(prot.p99_latency, 0.5 * open.p99_latency);
}

// ---------------------------------------------------------------------
// Server: batching and embedding cache pay off
// ---------------------------------------------------------------------

TEST(Serve, MicroBatchingServesMoreThanNoBatchUnderLoad)
{
    const double rate = 20000.0;
    const int64_t n = 512;

    auto batched_opts = base_server_options();
    batched_opts.batcher.max_batch = 32;
    batched_opts.batcher.max_wait = 2e-3;
    serve::Server batched(products(), batched_opts);
    const auto trace = make_trace(batched, rate, n);
    batched.serve(trace);
    const serve::ServingStats with = batched.last_stats();

    auto single_opts = base_server_options();
    single_opts.batcher.max_batch = 1; // the no-batching baseline
    single_opts.batcher.max_wait = 0.0;
    serve::Server single(products(), single_opts);
    single.serve(trace);
    const serve::ServingStats without = single.last_stats();

    EXPECT_GT(with.mean_batch_size, 1.5);
    EXPECT_DOUBLE_EQ(without.mean_batch_size, 1.0);
    // Amortized launch/PCIe overhead and batch-level dedup let the
    // batched server complete more of the same offered load.
    EXPECT_GT(with.served, without.served);
    EXPECT_LT(with.shed_rate, without.shed_rate);
}

TEST(Serve, EmbeddingCacheShortCircuitsHotRepeats)
{
    const double rate = 20000.0;
    const int64_t n = 512;

    auto cached_opts = base_server_options();
    cached_opts.embedding.capacity_rows = -1; // default n/10
    cached_opts.embedding.staleness = 1.0;    // generous freshness
    serve::Server cached(products(), cached_opts);
    const auto trace = make_trace(cached, rate, n);
    cached.serve(trace);
    const serve::ServingStats with = cached.last_stats();

    auto cold_opts = base_server_options();
    cold_opts.embedding.capacity_rows = 0; // embedding cache off
    serve::Server cold(products(), cold_opts);
    cold.serve(trace);
    const serve::ServingStats without = cold.last_stats();

    // The skewed trace re-requests hot nodes; fresh embeddings answer
    // those without sampling, PCIe, or compute.
    EXPECT_GT(with.embedding_hits, 0);
    EXPECT_EQ(without.embedding_hits, 0);
    EXPECT_GT(with.embedding_hit_rate, 0.0);
    // Offloaded work serves at least as many requests within deadline.
    EXPECT_GE(with.served - with.served_late,
              without.served - without.served_late);
    EXPECT_LE(with.gpu_busy_seconds, without.gpu_busy_seconds);
}

TEST(Serve, FeatureCacheReducesPcieTraffic)
{
    serve::Server server(products(), base_server_options());
    const auto trace = make_trace(server, 2000.0, 256);
    server.serve(trace);
    const serve::ServingStats st = server.last_stats();
    EXPECT_GT(server.feature_cache_rows(), 0);
    EXPECT_GT(st.residency.features.local_hits, 0);
    EXPECT_GT(st.residency.features.hit_rate(), 0.0);
}

// ---------------------------------------------------------------------
// Server: lifecycle
// ---------------------------------------------------------------------

/** The two serving entry points; the lifecycle contract holds for both. */
enum class Loop
{
    kOpen,
    kClosed,
};

/** Serve @p num_requests through @p loop: a 5000 rps open-loop trace,
 *  or a closed loop of 8 clients with 0.2 ms think times. */
std::vector<serve::InferenceResponse>
serve_through(serve::Server &server, Loop loop, int64_t num_requests)
{
    if (loop == Loop::kOpen)
        return server.serve(make_trace(server, 5000.0, num_requests));
    return server.serve_closed(
        make_closed_script(server, 8, num_requests / 8, 0.2e-3));
}

TEST(Serve, RequestStopMidFlightReturnsPrefixWithoutDeadlock)
{
    for (Loop loop : {Loop::kOpen, Loop::kClosed}) {
        SCOPED_TRACE(loop == Loop::kOpen ? "open loop" : "closed loop");
        auto opts = base_server_options();
        opts.worker_threads = 4;
        serve::Server *handle = nullptr;
        std::atomic<int> sampled{0};
        opts.sample_hook = [&](int64_t) {
            if (sampled.fetch_add(1) == 32)
                handle->request_stop();
        };
        serve::Server server(products(), opts);
        handle = &server;

        // Must return, not hang.
        const auto responses = serve_through(server, loop, 512);
        const serve::ServingStats st = server.last_stats();
        EXPECT_TRUE(st.stopped_early);
        EXPECT_TRUE(server.stop_requested());
        EXPECT_LT(st.offered, 512);
        ASSERT_EQ(responses.size(), 512u);
        // The unprocessed suffix is marked as such.
        EXPECT_EQ(responses.back().outcome,
                  serve::Outcome::kUnprocessed);

        // A fresh run after the stop runs to completion.
        sampled.store(1 << 20);
        serve_through(server, loop, 512);
        EXPECT_FALSE(server.last_stats().stopped_early);
        EXPECT_EQ(server.last_stats().offered, 512);
    }
}

TEST(Serve, WorkerExceptionPropagatesToCaller)
{
    for (Loop loop : {Loop::kOpen, Loop::kClosed}) {
        SCOPED_TRACE(loop == Loop::kOpen ? "open loop" : "closed loop");
        auto opts = base_server_options();
        opts.worker_threads = 3;
        opts.sample_hook = [](int64_t id) {
            if (id == 40)
                throw std::runtime_error("sampler worker died");
        };
        serve::Server server(products(), opts);
        EXPECT_THROW(serve_through(server, loop, 128),
                     std::runtime_error);
    }
}

TEST(Serve, StalledRequestGrowsReassemblyRingWithoutChangingResults)
{
    // Request 0 samples last: its worker stalls until several queue
    // depths of later requests have been sampled, so the sequencer
    // must park them all and grow its reassembly ring past the seeded
    // capacity. The replay order — and so every virtual decision —
    // must not notice.
    auto opts = base_server_options();
    opts.worker_threads = 4;
    serve::Server plain(products(), opts);
    const auto trace = make_trace(plain, 3000.0, 384);
    plain.serve(trace);

    const int stall_until =
        5 * static_cast<int>(opts.queue_depth) + opts.worker_threads;
    std::atomic<int> others{0};
    std::atomic<int> seen_at_release{0};
    opts.sample_hook = [&](int64_t id) {
        if (id != 0) {
            others.fetch_add(1);
            return;
        }
        // Bounded wait, so a broken pipeline fails the check below
        // instead of hanging the suite.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (others.load() < stall_until &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
        seen_at_release.store(others.load());
    };
    serve::Server stalled(products(), opts);
    const auto responses = stalled.serve(trace);
    EXPECT_GE(seen_at_release.load(), stall_until);
    expect_identical_serving(plain.last_stats(), stalled.last_stats());
    EXPECT_EQ(stalled.last_stats().fingerprint, kGoldenOpenLoop);
    EXPECT_NE(responses.front().outcome, serve::Outcome::kUnprocessed);
}

// ---------------------------------------------------------------------
// DrrScheduler
// ---------------------------------------------------------------------

TEST(DrrScheduler, EqualCostsAlternateRoundRobin)
{
    serve::DrrScheduler drr(2, 1.0);
    const std::vector<char> ready = {1, 1};
    const std::vector<double> cost = {1.0, 1.0};
    EXPECT_EQ(drr.pick(ready, cost), 0u);
    EXPECT_EQ(drr.pick(ready, cost), 1u);
    EXPECT_EQ(drr.pick(ready, cost), 0u);
    EXPECT_EQ(drr.pick(ready, cost), 1u);
}

TEST(DrrScheduler, CheapTierIsNotStarvedByExpensiveOne)
{
    // Tier 0's batches cost 10x tier 1's. DRR grants equal *service
    // time*, so tier 1 must dispatch about 10x as often — a cheap GCN
    // tier is never starved behind an expensive GAT tier.
    serve::DrrScheduler drr(2, 1e-3);
    const std::vector<char> ready = {1, 1};
    const std::vector<double> cost = {10e-3, 1e-3};
    int picks[2] = {0, 0};
    for (int i = 0; i < 440; ++i)
        ++picks[drr.pick(ready, cost)];
    ASSERT_GT(picks[0], 0);
    ASSERT_GT(picks[1], 0);
    const double ratio = double(picks[1]) / double(picks[0]);
    EXPECT_GT(ratio, 8.0);
    EXPECT_LT(ratio, 12.5);
}

TEST(DrrScheduler, OnlyReadyTiersAreEligibleAndResetClearsCredit)
{
    serve::DrrScheduler drr(3, 1.0);
    std::vector<char> ready = {0, 1, 0};
    const std::vector<double> cost = {1.0, 4.5, 1.0};
    // Only tier 1 is ready: it wins no matter the cost, accruing
    // quanta until its credit covers the batch (5 rounds here).
    EXPECT_EQ(drr.pick(ready, cost), 1u);
    EXPECT_DOUBLE_EQ(drr.deficit(1), 0.5); // leftover credit banked
    drr.reset(1);                          // ...until the queue empties
    EXPECT_DOUBLE_EQ(drr.deficit(1), 0.0);
}

TEST(DrrScheduler, SequenceIsDeterministic)
{
    const std::vector<char> ready = {1, 1, 1};
    const std::vector<double> cost = {3e-3, 1e-3, 2e-3};
    std::vector<size_t> a, b;
    for (int run = 0; run < 2; ++run) {
        serve::DrrScheduler drr(3, 1e-3);
        std::vector<size_t> &out = run == 0 ? a : b;
        for (int i = 0; i < 64; ++i)
            out.push_back(drr.pick(ready, cost));
    }
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// Server: priority classes
// ---------------------------------------------------------------------

std::vector<serve::InferenceRequest>
make_mixed_trace(const serve::Server &server, double rate_rps,
                 int64_t num_requests, double slo = 50e-3,
                 std::vector<double> model_mix = {})
{
    serve::LoadGeneratorOptions lopts;
    lopts.rate_rps = rate_rps;
    lopts.num_requests = num_requests;
    lopts.slo_deadline = slo;
    lopts.class_mix = {0.3, 0.4, 0.3};
    lopts.model_mix = std::move(model_mix);
    lopts.seed = 13;
    serve::LoadGenerator gen(server.popularity(), lopts);
    return gen.generate();
}

TEST(LoadGenerator, ClassAndModelMixesDoNotPerturbArrivalsOrTargets)
{
    std::vector<graph::NodeId> population(200);
    for (size_t i = 0; i < population.size(); ++i)
        population[i] = static_cast<graph::NodeId>(i);

    serve::LoadGeneratorOptions opts;
    opts.num_requests = 256;
    opts.seed = 21;
    serve::LoadGenerator plain(population, opts);

    opts.class_mix = {0.5, 0.3, 0.2};
    opts.model_mix = {0.6, 0.4};
    serve::LoadGenerator mixed(population, opts);

    const auto a = plain.generate();
    const auto b = mixed.generate();
    ASSERT_EQ(a.size(), b.size());
    int64_t priorities[serve::kNumPriorityClasses] = {0, 0, 0};
    int64_t tier1 = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        // The legacy trace replays bit-identically under any mix: class
        // and model draws live on their own RNG streams.
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].targets, b[i].targets);
        EXPECT_EQ(a[i].priority, serve::Priority::kStandard);
        EXPECT_EQ(a[i].model, 0);
        ++priorities[static_cast<size_t>(b[i].priority)];
        tier1 += b[i].model == 1 ? 1 : 0;
    }
    // All classes and both tiers are represented roughly per the mix.
    for (int64_t count : priorities)
        EXPECT_GT(count, 256 / 10);
    EXPECT_GT(tier1, 256 / 4);
    EXPECT_LT(tier1, 3 * 256 / 4);
}

TEST(Serve, BestEffortShedsStrictlyBeforePaidUnderOverload)
{
    // ~2x overload with default class weights {1.0, 0.75, 0.5}:
    // best-effort is refused once the pending queue is half full,
    // leaving headroom that keeps every paid request on time.
    auto opts = base_server_options();
    opts.admission.max_pending = 48;
    serve::Server server(products(), opts);
    const auto trace = make_mixed_trace(server, 40000.0, 768, 20e-3);
    server.serve(trace);
    const serve::ServingStats st = server.last_stats();

    const serve::PriorityClassStats &paid =
        st.per_class[static_cast<size_t>(serve::Priority::kPaid)];
    const serve::PriorityClassStats &std_cls =
        st.per_class[static_cast<size_t>(serve::Priority::kStandard)];
    const serve::PriorityClassStats &be = st.per_class[static_cast<
        size_t>(serve::Priority::kBestEffort)];
    ASSERT_GT(paid.offered, 0);
    ASSERT_GT(be.offered, 0);

    // The overload is real and the shedding is strictly ordered:
    // best-effort drops while paid loses nothing — not to the queue
    // bound, not to early drop, not to a blown deadline.
    EXPECT_GT(be.shed_queue, 0);
    EXPECT_EQ(paid.shed_queue, 0);
    EXPECT_EQ(paid.dropped_deadline, 0);
    EXPECT_EQ(paid.served_late, 0);
    EXPECT_EQ(paid.served, paid.offered);
    EXPECT_GE(be.shed_rate, std_cls.shed_rate);
    EXPECT_GE(std_cls.shed_rate, paid.shed_rate);
    // Per-class tallies partition the global ones.
    EXPECT_EQ(paid.offered + std_cls.offered + be.offered, st.offered);
    EXPECT_EQ(paid.served + std_cls.served + be.served, st.served);
    EXPECT_EQ(paid.shed_queue + std_cls.shed_queue + be.shed_queue,
              st.shed_queue);
}

TEST(Serve, EqualClassWeightsRestoreClasslessBehaviour)
{
    auto classless = base_server_options();
    classless.admission.class_weight = {1.0, 1.0, 1.0};
    classless.admission.deadline_headroom = {0.0, 0.0, 0.0};
    serve::Server server(products(), classless);
    const auto trace = make_mixed_trace(server, 120000.0, 512, 20e-3);
    server.serve(trace);
    const serve::ServingStats st = server.last_stats();
    // With equal weights every class faces the same bound; under the
    // same overload the shed rates no longer order strictly by class
    // (the mix is interleaved, so rates land close together).
    ASSERT_GT(st.shed_queue + st.dropped_deadline, 0);
    const double be_rate = st.per_class[2].shed_rate;
    const double paid_rate = st.per_class[0].shed_rate;
    EXPECT_LT(be_rate - paid_rate, 0.25);
}

// ---------------------------------------------------------------------
// Server: cache warmup
// ---------------------------------------------------------------------

match::WarmupTrace
degree_warmup(const graph::Dataset &ds)
{
    // A warmup trace shaped like training traffic: frequency = degree
    // (hot hubs dominate sampled subgraphs, as a Trainer recording
    // would show).
    match::WarmupTrace trace;
    const int64_t n = ds.graph.num_nodes();
    trace.frequencies.resize(static_cast<size_t>(n));
    for (int64_t u = 0; u < n; ++u)
        trace.frequencies[static_cast<size_t>(u)] = ds.graph.degree(u);
    return trace;
}

TEST(Serve, WarmupSeedsEmbeddingCacheAndLiftsHitRate)
{
    const double rate = 20000.0;
    const int64_t n = 512;

    auto cold_opts = base_server_options();
    serve::Server cold(products(), cold_opts);
    const auto trace = make_trace(cold, rate, n);
    cold.serve(trace);
    const serve::ServingStats cold_st = cold.last_stats();
    EXPECT_FALSE(cold.warmed());
    EXPECT_FALSE(cold_st.warmed);
    EXPECT_EQ(cold_st.warmed_rows, 0);

    auto warm_opts = base_server_options();
    warm_opts.warmup = degree_warmup(products());
    serve::Server warm(products(), warm_opts);
    warm.serve(trace);
    const serve::ServingStats warm_st = warm.last_stats();

    EXPECT_TRUE(warm.warmed());
    EXPECT_TRUE(warm_st.warmed);
    EXPECT_EQ(warm_st.warmed_rows, warm.embedding_cache_rows());
    // The seeded rows answer the trace's hot prefix without compute:
    // strictly more embedding hits than the cold start, and no request
    // is worse off.
    EXPECT_GT(warm_st.embedding_hits, cold_st.embedding_hits);
    EXPECT_GT(warm_st.embedding_hit_rate, cold_st.embedding_hit_rate);
    EXPECT_GE(warm_st.served - warm_st.served_late,
              cold_st.served - cold_st.served_late);
    EXPECT_LE(warm_st.gpu_busy_seconds, cold_st.gpu_busy_seconds);
}

TEST(Serve, WarmedRunIsBitIdenticalAcrossRepeatsAndThreadCounts)
{
    auto opts = base_server_options();
    opts.worker_threads = 1;
    opts.warmup = degree_warmup(products());
    serve::Server reference(products(), opts);
    const auto trace = make_trace(reference, 3000.0, 256);
    reference.serve(trace);
    const serve::ServingStats ref = reference.last_stats();

    reference.serve(trace); // seeding happens identically per call
    expect_identical_serving(ref, reference.last_stats());

    opts.worker_threads = 8;
    serve::Server threaded(products(), opts);
    threaded.serve(trace);
    expect_identical_serving(ref, threaded.last_stats());
}

// ---------------------------------------------------------------------
// Server: multi-model tiers
// ---------------------------------------------------------------------

serve::ServerOptions
two_tier_options()
{
    auto opts = base_server_options();
    serve::ModelTier cheap;
    cheap.name = "gcn";
    cheap.model.type = compute::ModelType::kGcn;
    serve::ModelTier expensive;
    expensive.name = "gat";
    expensive.model.type = compute::ModelType::kGat;
    expensive.batcher.max_batch = 16;
    opts.models = {cheap, expensive};
    return opts;
}

TEST(Serve, TwoTierMixedPriorityBitIdenticalAcrossWorkerCounts)
{
    auto opts = two_tier_options();
    opts.worker_threads = 1;
    serve::Server reference_server(products(), opts);
    ASSERT_EQ(reference_server.num_models(), 2u);
    const auto trace = make_mixed_trace(reference_server, 4000.0, 384,
                                        50e-3, {0.7, 0.3});
    const auto reference = reference_server.serve(trace);
    const serve::ServingStats ref = reference_server.last_stats();
    EXPECT_GT(ref.served, 0);
    ASSERT_EQ(ref.per_model.size(), 2u);
    EXPECT_GT(ref.per_model[0].offered, 0);
    EXPECT_GT(ref.per_model[1].offered, 0);
    EXPECT_EQ(ref.per_model[0].offered + ref.per_model[1].offered,
              ref.offered);
    EXPECT_EQ(ref.per_model[0].name, "gcn");
    EXPECT_EQ(ref.per_model[1].name, "gat");

    for (int threads : {4, 8}) {
        auto topts = two_tier_options();
        topts.worker_threads = threads;
        serve::Server server(products(), topts);
        const auto responses = server.serve(trace);
        const serve::ServingStats st = server.last_stats();
        expect_identical_serving(ref, st);
        for (size_t m = 0; m < 2; ++m) {
            EXPECT_EQ(st.per_model[m].offered, ref.per_model[m].offered);
            EXPECT_EQ(st.per_model[m].served, ref.per_model[m].served);
            EXPECT_EQ(st.per_model[m].batches, ref.per_model[m].batches);
            EXPECT_EQ(st.per_model[m].gpu_busy_seconds,
                      ref.per_model[m].gpu_busy_seconds);
        }
        for (size_t c = 0; c < serve::kNumPriorityClasses; ++c) {
            EXPECT_EQ(st.per_class[c].served, ref.per_class[c].served);
            EXPECT_EQ(st.per_class[c].p99_latency,
                      ref.per_class[c].p99_latency);
        }
        ASSERT_EQ(responses.size(), reference.size());
        for (size_t i = 0; i < responses.size(); ++i) {
            EXPECT_EQ(responses[i].outcome, reference[i].outcome);
            EXPECT_EQ(responses[i].latency, reference[i].latency);
            EXPECT_EQ(responses[i].batch_id, reference[i].batch_id);
        }
    }
}

TEST(Serve, SingleModelTraceOnTwoTierServerUsesTierZeroOnly)
{
    serve::Server server(products(), two_tier_options());
    const auto trace = make_trace(server, 3000.0, 128); // model 0 only
    server.serve(trace);
    const serve::ServingStats st = server.last_stats();
    EXPECT_EQ(st.per_model[0].offered, 128);
    EXPECT_EQ(st.per_model[1].offered, 0);
    EXPECT_EQ(st.per_model[1].batches, 0);
    EXPECT_DOUBLE_EQ(st.per_model[1].gpu_busy_seconds, 0.0);
}

TEST(Serve, ExpensiveTierDoesNotStarveCheapTierOnSharedDevice)
{
    // Both tiers see sustained load; DRR grants equal modelled service
    // time, so the cheap GCN tier keeps dispatching next to the GAT
    // tier instead of queueing behind it.
    auto opts = two_tier_options();
    serve::Server server(products(), opts);
    const auto trace = make_mixed_trace(server, 30000.0, 768, 50e-3,
                                        {0.5, 0.5});
    server.serve(trace);
    const serve::ServingStats st = server.last_stats();
    ASSERT_GT(st.per_model[0].batches, 0);
    ASSERT_GT(st.per_model[1].batches, 0);
    // The cheap tier serves the bulk of its offered load.
    EXPECT_GT(
        double(st.per_model[0].served) / double(st.per_model[0].offered),
        0.5);
}

TEST(Serve, StatsAccountHostExecution)
{
    auto opts = base_server_options();
    opts.worker_threads = 2;
    serve::Server server(products(), opts);
    const auto trace = make_trace(server, 2000.0, 128);
    server.serve(trace);
    const serve::ServingStats st = server.last_stats();
    EXPECT_GT(st.wall_seconds, 0.0);
    EXPECT_GT(st.worker_sample_seconds.count(), 0);
    EXPECT_EQ(st.work_queue.pushed, 128u);
    EXPECT_LE(st.work_queue.max_depth, server.options().queue_depth);
    EXPECT_EQ(st.offered, 128);
    EXPECT_GT(st.throughput_rps, 0.0);
    EXPECT_GE(st.throughput_rps, st.goodput_rps);
}

// ---------------------------------------------------------------------
// Server: golden fingerprints
// ---------------------------------------------------------------------

TEST(ServeGolden, OpenLoopFingerprintIsPinnedAtAnyWidth)
{
    for (int workers : {1, 4, 8}) {
        auto opts = base_server_options();
        opts.worker_threads = workers;
        serve::Server server(products(), opts);
        server.serve(make_trace(server, 3000.0, 384));
        EXPECT_EQ(server.last_stats().fingerprint, kGoldenOpenLoop)
            << "workers=" << workers;
    }
}

TEST(ServeGolden, ClosedLoopFingerprintIsPinnedAtAnyWidth)
{
    for (int workers : {1, 4, 8}) {
        auto opts = base_server_options();
        opts.worker_threads = workers;
        serve::Server server(products(), opts);
        server.serve_closed(make_closed_script(server, 8, 24));
        EXPECT_EQ(server.last_stats().fingerprint, kGoldenClosedLoop)
            << "workers=" << workers;
    }
}

TEST(ServeGolden, RealForwardFingerprintIsPinnedAtAnyWidth)
{
    for (int workers : {1, 4, 8}) {
        auto opts = base_server_options();
        opts.worker_threads = workers;
        opts.compute_logits = true;
        serve::Server server(products(), opts);
        server.serve(make_trace(server, 2000.0, 64));
        EXPECT_EQ(server.last_stats().fingerprint, kGoldenLogits)
            << "workers=" << workers;
    }
}

TEST(ServeGolden, MultiGpuAutoscaledClosedLoopIsPinnedAtAnyWidth)
{
    for (int workers : {1, 4, 8}) {
        auto opts = base_server_options();
        opts.worker_threads = workers;
        opts.num_gpus = 2;
        opts.autoscale.enabled = true;
        opts.profile = true;
        serve::Server server(products(), opts);
        server.serve_closed(make_closed_script(server, 8, 24));
        const serve::ServingStats &st = server.last_stats();
        EXPECT_EQ(st.fingerprint, kGoldenScaledClosedLoop)
            << "workers=" << workers;
        EXPECT_EQ(st.profile.fingerprint(), kGoldenScaledClosedProfile)
            << "workers=" << workers;
    }
}

} // namespace
} // namespace fastgl
