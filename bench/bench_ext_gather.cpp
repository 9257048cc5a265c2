/**
 * @file
 * Feature-gather fast path: match::GatherEngine's batched SIMD gather
 * into pooled arena panels at widths 1/2/4/8, and the one-pass
 * FrequencyHashmap presample ranking. Every output is FNV-hashed and
 * checked against a golden pinned from the pre-engine paths' output on
 * the same inputs (a fresh zero-filled Tensor filled by one
 * bounds-checked gather_row per node; dense per-node counts, then a
 * full sort); divergence is fatal (exit 1).
 *
 * Two gather geometries are measured: a mid-size PCIe batch
 * (8192 x 256) where the copy itself dominates, and a wide-feature
 * batch (8192 x 1024, a 32 MB panel) above the allocator's mmap
 * threshold, where a staging buffer allocated per batch would be
 * re-faulted and re-zeroed every time; the engine's pooled arena is
 * allocated once and stays hot.
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
#include <vector>

#include "graph/feature_store.h"
#include "match/feature_cache.h"
#include "match/gather_engine.h"
#include "sample/frequency_hashmap.h"
#include "util/fnv.h"
#include "util/rng.h"

#include "bench_witness.h"

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
    /** FNV digest of the gathered panel, pinned from the pre-engine
     *  staging path's output on the same batch. */
    uint64_t golden;
    std::vector<ThreadRow> rows{};
};

/** Run the engine thread sweep for one geometry. */
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
            cfg.name,
            fnv_bytes(panel.data(), static_cast<size_t>(panel.bytes())),
            cfg.golden);
        cfg.rows.push_back(row);
    }
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
        cases.push_back({"pcie_batch", 20000, 256, 2048, 4,
                         0x67486372A232E43BULL});
        cases.push_back({"wide_features", 8000, 1024, 1024, 3,
                         0xFC6B82FF6B7F3BFCULL});
    } else {
        cases.push_back({"pcie_batch", 100000, 256, 8192, 20,
                         0xD883E55FE161C273ULL});
        cases.push_back({"wide_features", 60000, 1024, 8192, 12,
                         0x894D97EB680DADF5ULL});
    }
    for (GatherCase &cfg : cases)
        run_gather_case(cfg);

    // ---- Presample: one-pass count-while-dedup ranking ------------
    // Representative regime: a presample only touches the nodes a few
    // warm-up batches expand to — a sparse subset of a large graph.
    const NodeId pre_nodes = smoke ? 500000 : 5000000;
    const int64_t stream_len = smoke ? 50000 : 400000;
    util::Rng rng(42);
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
    // FNV digest of the ranking, pinned from the dense two-pass's output.
    const uint64_t presample_golden =
        smoke ? 0x94CB36B94D1844F5ULL : 0x2219A21BDC1BDC8DULL;

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
        "presample",
        fnv_bytes(fused_ranking.data(),
                  fused_ranking.size() * sizeof(NodeId)),
        presample_golden);

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
        std::printf("       \"engine\": [\n");
        for (size_t i = 0; i < cfg.rows.size(); ++i) {
            const ThreadRow &r = cfg.rows[i];
            std::printf(
                "         {\"threads\": %d, \"seconds\": %.6f, "
                "\"gb_per_s\": %.2f, \"identical\": %s}%s\n",
                r.threads, r.seconds,
                r.seconds > 0 ? panel_gb / r.seconds : 0.0,
                r.identical ? "true" : "false",
                i + 1 < cfg.rows.size() ? "," : "");
        }
        std::printf("       ]}%s\n", c + 1 < cases.size() ? "," : "");
    }
    std::printf("    ]\n  },\n");

    std::printf("  \"presample\": {\n");
    std::printf("    \"num_nodes\": %lld, \"stream\": %lld, "
                "\"reps\": %d,\n",
                static_cast<long long>(pre_nodes),
                static_cast<long long>(stream_len), pre_reps);
    std::printf("    \"fused_one_pass_s\": %.6f,\n", fused_pre_s);
    std::printf("    \"identical\": %s\n  }\n",
                presample_identical ? "true" : "false");
    std::printf("}\n");

    return g_diverged ? 1 : 0;
}
