/**
 * @file
 * Feature-gather fast-path validation: before/after throughput of
 * match::GatherEngine's batched SIMD gather against the legacy
 * feature-staging path (a fresh zero-filled compute::Tensor plus a
 * per-row bounds-checked FeatureStore::gather_row loop — verbatim the
 * pre-engine Trainer::gather_features / serve sequencer code), of the
 * fused gather+cache-accounting pass against the legacy
 * lookup_batch-then-stage two-pass, and of the one-pass
 * FrequencyHashmap presample against the legacy dense count-then-sort
 * two-pass. Every legacy side is replicated in-bench and FNV-witnessed
 * against the fast path — divergence is fatal (exit 1), because then
 * the speedups would not compare equal work.
 *
 * Two gather geometries are measured: a mid-size PCIe batch
 * (8192 x 256) where the copy itself dominates, and a wide-feature
 * batch (8192 x 1024, a 32 MB panel) where the legacy path's per-batch
 * allocation churn dominates — panels that size are mmap'd and
 * munmap'd by the allocator on every single batch, so the legacy loop
 * re-page-faults and re-zeroes the staging buffer each time, while the
 * engine's pooled arena is allocated once and stays hot.
 *
 * Output is a single JSON object on stdout so CI can archive it
 * (tools/ci.sh writes BENCH_gather.json). Pass --smoke for a
 * seconds-long run (numbers are then noisy; the run only has to
 * complete).
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "compute/tensor.h"
#include "graph/feature_store.h"
#include "match/feature_cache.h"
#include "match/gather_engine.h"
#include "sample/frequency_hashmap.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace {

using namespace fastgl;
using graph::FeatureStore;
using graph::NodeId;
using match::GatherEngine;
using util::fnv_bytes;
using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------
// Legacy replicas (the pre-engine paths, verbatim).
// ------------------------------------------------------------------

/**
 * The historical feature staging: construct a fresh (zero-filled)
 * Tensor for the batch, then one bounds-checked gather_row per node —
 * exactly the pre-engine Trainer::gather_features body.
 */
compute::Tensor
legacy_gather_features(const FeatureStore &store,
                       const std::vector<NodeId> &nodes)
{
    compute::Tensor x(static_cast<int64_t>(nodes.size()), store.dim());
    for (size_t i = 0; i < nodes.size(); ++i)
        store.gather_row(nodes[i],
                         x.row(static_cast<int64_t>(i)).data());
    return x;
}

/** The historical cached gather: lookup_batch sweep, then the staging. */
compute::Tensor
legacy_cached_gather(const FeatureStore &store,
                     const match::StaticFeatureCache &cache,
                     const std::vector<NodeId> &nodes, int64_t *misses)
{
    *misses = cache.lookup_batch(nodes);
    return legacy_gather_features(store, nodes);
}

/** The historical presample: dense per-node counts, then a full sort. */
std::vector<NodeId>
legacy_presample(const std::vector<NodeId> &stream, NodeId num_nodes)
{
    std::vector<int64_t> freq(static_cast<size_t>(num_nodes), 0);
    for (NodeId u : stream)
        ++freq[static_cast<size_t>(u)];
    return match::presample_ranking(freq);
}

// ------------------------------------------------------------------

bool g_diverged = false;

/** Record a witness pair; divergence poisons the whole run. */
bool
check_witness(uint64_t legacy, uint64_t engine)
{
    if (legacy != engine)
        g_diverged = true;
    return legacy == engine;
}

struct ThreadRow
{
    int threads;
    double seconds = 0.0;
    bool identical = false;
};

struct GatherCase
{
    const char *name;
    NodeId num_nodes;
    int dim;
    int64_t batch;
    int reps;
    double legacy_s = 0.0;
    double best_engine_s = 0.0;
    std::vector<ThreadRow> rows{};
};

/** Run legacy staging + the engine thread sweep for one geometry. */
void
run_gather_case(GatherCase &cfg)
{
    FeatureStore store(cfg.num_nodes, cfg.dim, 8, 0xFA57, true);
    util::Rng rng(42);
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<size_t>(cfg.batch));
    for (int64_t i = 0; i < cfg.batch; ++i)
        nodes.push_back(static_cast<NodeId>(
            rng.next_below(static_cast<uint64_t>(cfg.num_nodes))));

    legacy_gather_features(store, nodes); // warm-up
    {
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < cfg.reps; ++r)
            legacy_gather_features(store, nodes);
        cfg.legacy_s = seconds_since(t0);
    }
    const compute::Tensor witness = legacy_gather_features(store, nodes);
    const uint64_t want =
        fnv_bytes(witness.data(), static_cast<size_t>(witness.rows()) *
                                      static_cast<size_t>(witness.cols()) *
                                      sizeof(float));

    for (const int threads : {1, 2, 4, 8}) {
        GatherEngine engine(threads);
        match::FeaturePanel panel = engine.gather(store, nodes); // warm
        ThreadRow row{threads, 0.0, false};
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < cfg.reps; ++r) {
            // Consume-then-release, the steady-state consumer pattern:
            // the arena goes back to the LIFO pool before the next
            // gather, which hands the same hot buffer straight back.
            panel.release();
            panel = engine.gather(store, nodes);
        }
        row.seconds = seconds_since(t0);
        row.identical = check_witness(
            want, fnv_bytes(panel.data(),
                            static_cast<size_t>(panel.bytes())));
        cfg.rows.push_back(row);
    }
    cfg.best_engine_s = cfg.rows[0].seconds;
    for (const ThreadRow &row : cfg.rows)
        cfg.best_engine_s = std::min(cfg.best_engine_s, row.seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    // ---- Batched gather: two geometries (see file comment) --------
    std::vector<GatherCase> cases;
    if (smoke) {
        cases.push_back({"pcie_batch", 20000, 256, 2048, 4});
        cases.push_back({"wide_features", 8000, 1024, 1024, 3});
    } else {
        cases.push_back({"pcie_batch", 100000, 256, 8192, 20});
        cases.push_back({"wide_features", 60000, 1024, 8192, 12});
    }
    for (GatherCase &cfg : cases)
        run_gather_case(cfg);

    double best_speedup = 0.0;
    for (const GatherCase &cfg : cases) {
        if (cfg.best_engine_s > 0)
            best_speedup = std::max(best_speedup,
                                    cfg.legacy_s / cfg.best_engine_s);
    }

    // ---- Fused gather + cache accounting --------------------------
    const NodeId num_nodes = cases[0].num_nodes;
    const int dim = cases[0].dim;
    const int64_t batch = cases[0].batch;
    const int reps = cases[0].reps;
    FeatureStore store(num_nodes, dim, 8, 0xFA57, true);
    util::Rng rng(42);
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i)
        nodes.push_back(static_cast<NodeId>(
            rng.next_below(static_cast<uint64_t>(num_nodes))));
    const uint64_t want =
        fnv_bytes(legacy_gather_features(store, nodes).data(),
                  static_cast<size_t>(batch) * static_cast<size_t>(dim) *
                      sizeof(float));

    std::vector<NodeId> ranking(static_cast<size_t>(num_nodes));
    std::iota(ranking.begin(), ranking.end(), 0);
    match::StaticFeatureCache legacy_cache(num_nodes, ranking,
                                           num_nodes / 5);
    match::StaticFeatureCache fused_cache(num_nodes, ranking,
                                          num_nodes / 5);

    double legacy_cached_s = 0.0;
    int64_t legacy_misses = 0;
    uint64_t legacy_cached_hash = 0;
    {
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            legacy_cached_gather(store, legacy_cache, nodes,
                                 &legacy_misses);
        legacy_cached_s = seconds_since(t0);
        const compute::Tensor x =
            legacy_cached_gather(store, legacy_cache, nodes,
                                 &legacy_misses);
        legacy_cached_hash =
            fnv_bytes(x.data(), static_cast<size_t>(batch) *
                                    static_cast<size_t>(dim) *
                                    sizeof(float));
        // The warm-up and witness passes also counted: rewind and
        // replay exactly reps accounted sweeps so the hit totals are
        // comparable with the fused side's reps.
        legacy_cache.reset_stats();
        for (int r = 0; r < reps; ++r)
            legacy_cache.lookup_batch(nodes);
    }

    // Single-threaded on both sides so the delta isolates the fused
    // accounting pass; the thread sweep lives in the gather cases.
    GatherEngine fused_engine(1);
    double fused_s = 0.0;
    GatherEngine::CachedGather fused;
    {
        fused = fused_engine.gather_cached(store, nodes,
                                           fused_cache); // warm
        fused_cache.reset_stats();
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r) {
            fused.panel.release();
            fused = fused_engine.gather_cached(store, nodes,
                                               fused_cache);
        }
        fused_s = seconds_since(t0);
    }
    const bool fused_identical =
        check_witness(want, legacy_cached_hash) &&
        check_witness(legacy_cached_hash,
                      fnv_bytes(fused.panel.data(),
                                static_cast<size_t>(
                                    fused.panel.bytes()))) &&
        check_witness(static_cast<uint64_t>(legacy_misses),
                      static_cast<uint64_t>(fused.misses)) &&
        check_witness(static_cast<uint64_t>(legacy_cache.hits()),
                      static_cast<uint64_t>(fused_cache.hits()));

    // ---- Presample: count-while-dedup vs dense two-pass -----------
    // Representative regime: a presample only touches the nodes a few
    // warm-up batches expand to — a sparse subset of a large graph —
    // while the legacy dense pass allocates, zeroes, counts and
    // stable-sorts ALL num_nodes rows regardless. (When the stream
    // covers most of the graph the dense pass wins instead; presample
    // traces are never that dense.)
    const NodeId pre_nodes = smoke ? 500000 : 5000000;
    const int64_t stream_len = smoke ? 50000 : 400000;
    std::vector<NodeId> stream;
    stream.reserve(static_cast<size_t>(stream_len));
    for (int64_t i = 0; i < stream_len; ++i) {
        // Skewed like a presample trace: squaring biases toward 0.
        const uint64_t a =
            rng.next_below(static_cast<uint64_t>(pre_nodes));
        const uint64_t b =
            rng.next_below(static_cast<uint64_t>(pre_nodes));
        stream.push_back(static_cast<NodeId>(
            a * b / static_cast<uint64_t>(pre_nodes)));
    }

    const int pre_reps = smoke ? 2 : 3;
    double legacy_pre_s = 0.0;
    std::vector<NodeId> legacy_ranking;
    {
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < pre_reps; ++r)
            legacy_ranking = legacy_presample(stream, pre_nodes);
        legacy_pre_s = seconds_since(t0);
    }

    double fused_pre_s = 0.0;
    std::vector<NodeId> fused_ranking;
    {
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < pre_reps; ++r) {
            sample::FrequencyHashmap freq(
                static_cast<size_t>(stream_len) / 4);
            freq.add_stream(stream);
            fused_ranking = match::presample_ranking(
                freq.uniques(), freq.counts(), pre_nodes);
        }
        fused_pre_s = seconds_since(t0);
    }
    const bool presample_identical = check_witness(
        fnv_bytes(legacy_ranking.data(),
                  legacy_ranking.size() * sizeof(NodeId)),
        fnv_bytes(fused_ranking.data(),
                  fused_ranking.size() * sizeof(NodeId)));

    // ---- JSON report ----------------------------------------------
    std::printf("{\n");
    std::printf("  \"bench\": \"gather\",\n");
    std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");

    std::printf("  \"gather\": {\n");
    std::printf("    \"cases\": [\n");
    for (size_t c = 0; c < cases.size(); ++c) {
        const GatherCase &cfg = cases[c];
        const double panel_gb = double(cfg.batch) * cfg.dim *
                                sizeof(float) * cfg.reps / 1e9;
        std::printf("      {\"name\": \"%s\", \"num_nodes\": %lld, "
                    "\"dim\": %d, \"batch\": %lld, \"reps\": %d,\n",
                    cfg.name, static_cast<long long>(cfg.num_nodes),
                    cfg.dim, static_cast<long long>(cfg.batch),
                    cfg.reps);
        std::printf("       \"legacy_s\": %.6f, "
                    "\"legacy_gb_per_s\": %.2f,\n",
                    cfg.legacy_s,
                    cfg.legacy_s > 0 ? panel_gb / cfg.legacy_s : 0.0);
        std::printf("       \"engine\": [\n");
        for (size_t i = 0; i < cfg.rows.size(); ++i) {
            const ThreadRow &r = cfg.rows[i];
            std::printf(
                "         {\"threads\": %d, \"seconds\": %.6f, "
                "\"gb_per_s\": %.2f, \"speedup_vs_legacy\": %.3f, "
                "\"identical\": %s}%s\n",
                r.threads, r.seconds,
                r.seconds > 0 ? panel_gb / r.seconds : 0.0,
                r.seconds > 0 ? cfg.legacy_s / r.seconds : 0.0,
                r.identical ? "true" : "false",
                i + 1 < cfg.rows.size() ? "," : "");
        }
        std::printf("       ],\n");
        std::printf("       \"speedup_vs_legacy\": %.3f}%s\n",
                    cfg.best_engine_s > 0
                        ? cfg.legacy_s / cfg.best_engine_s
                        : 0.0,
                    c + 1 < cases.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"best_speedup_vs_legacy\": %.3f\n  },\n",
                best_speedup);

    std::printf("  \"fused_cache_gather\": {\n");
    std::printf("    \"legacy_two_pass_s\": %.6f,\n", legacy_cached_s);
    std::printf("    \"fused_s\": %.6f,\n", fused_s);
    std::printf("    \"speedup\": %.3f,\n",
                fused_s > 0 ? legacy_cached_s / fused_s : 0.0);
    std::printf("    \"hits\": %lld, \"misses\": %lld,\n",
                static_cast<long long>(fused.hits),
                static_cast<long long>(fused.misses));
    std::printf("    \"identical\": %s\n  },\n",
                fused_identical ? "true" : "false");

    std::printf("  \"presample\": {\n");
    std::printf("    \"num_nodes\": %lld, \"stream\": %lld, "
                "\"reps\": %d,\n",
                static_cast<long long>(pre_nodes),
                static_cast<long long>(stream_len), pre_reps);
    std::printf("    \"legacy_two_pass_s\": %.6f,\n", legacy_pre_s);
    std::printf("    \"fused_one_pass_s\": %.6f,\n", fused_pre_s);
    std::printf("    \"speedup\": %.3f,\n",
                fused_pre_s > 0 ? legacy_pre_s / fused_pre_s : 0.0);
    std::printf("    \"identical\": %s\n  }\n",
                presample_identical ? "true" : "false");
    std::printf("}\n");

    // Replica divergence means the comparison was not apples-to-apples.
    if (g_diverged) {
        std::fprintf(stderr,
                     "FATAL: fast-path output diverged from the legacy "
                     "replica\n");
        return 1;
    }
    return 0;
}
