/**
 * @file
 * Compute-kernel engine throughput: the blocked GEMM variants and the
 * parallel reverse-CSR aggregation at engine widths 1/2/4/8. Every
 * output is FNV-hashed and checked against a golden pinned from the
 * pre-engine naive loops' output on the same inputs; divergence is
 * fatal (exit 1). Also reports the engine's measured GFLOP/s and
 * bytes/edge next to the ComputeCostModel's modelled seconds for the
 * same aggregation, the drift check behind the PhaseStats fields.
 *
 * Output is a single JSON object on stdout so CI can archive it
 * (tools/ci.sh writes BENCH_compute.json). Pass --smoke for a
 * seconds-long run (numbers are then noisy; the run only has to
 * complete).
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "compute/compute_cost.h"
#include "compute/kernel_engine.h"
#include "compute/tensor.h"
#include "sample/minibatch.h"
#include "sim/gpu_spec.h"
#include "util/fnv.h"
#include "util/rng.h"

#include "bench_witness.h"

namespace {

using namespace fastgl;
using compute::KernelEngine;
using compute::Tensor;
using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
tensor_hash(const Tensor &x)
{
    return util::fnv_bytes(x.data(),
                           static_cast<size_t>(x.numel()) * sizeof(float));
}

/**
 * FNV digests of the engine's output in one mode, pinned from the
 * pre-engine loops' output on the same inputs.
 */
struct Goldens
{
    uint64_t gemm;
    uint64_t gemm_ta;
    uint64_t gemm_tb;
    uint64_t aggregate_forward;
    uint64_t aggregate_backward;
};

constexpr Goldens kFullGoldens = {
    0x98F16B9A88418054ULL, 0xCA1583180342CB1FULL, 0xDE2BC524FCB8612AULL,
    0x61844671D94D2691ULL, 0x9093C9EFC91E86C1ULL};
constexpr Goldens kSmokeGoldens = {
    0x3FA29AD1E639173FULL, 0x62C036F921576405ULL, 0x68F3B60AA2E1D4C7ULL,
    0x1C67DF27FF5E4EB7ULL, 0x7A17787AD2438EF7ULL};

struct GemmRow
{
    const char *name;
    double engine_s = 0.0;
    double flops = 0.0;
    bool identical = false;
};

struct ThreadRow
{
    int threads;
    double seconds = 0.0;
    bool identical = false;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    const Goldens &golden = smoke ? kSmokeGoldens : kFullGoldens;

    // ---- GEMM: 256-dim shapes of the GNN update phase -------------
    const int64_t m = smoke ? 256 : 512, k = 256, n = 256;
    util::Rng rng(42);
    Tensor a = Tensor::randn(m, k, rng, 1.0f);
    for (int64_t i = 0; i < a.numel(); i += 7)
        a.data()[i] = 0.0f; // gemm and gemm_ta skip av == 0 terms
    const Tensor b = Tensor::randn(k, n, rng, 1.0f);
    const Tensor bt = Tensor::randn(n, k, rng, 1.0f);

    KernelEngine single(1);
    const int reps = smoke ? 3 : 10;
    std::vector<GemmRow> gemm_rows = {{"gemm", 0, 0, false},
                                      {"gemm_ta", 0, 0, false},
                                      {"gemm_tb", 0, 0, false}};
    {
        Tensor c(m, n);
        Tensor cta(k, n); // A^T[k,m] * B2[m,n]
        const Tensor b2 = Tensor::randn(m, n, rng, 1.0f);
        Tensor ctb(m, n);
        single.gemm(a, b, c); // warm-up, untimed
        for (int r = 0; r < reps; ++r) {
            Clock::time_point t0 = Clock::now();
            single.gemm(a, b, c);
            gemm_rows[0].engine_s += seconds_since(t0);
            t0 = Clock::now();
            single.gemm_ta(a, b2, cta);
            gemm_rows[1].engine_s += seconds_since(t0);
            t0 = Clock::now();
            single.gemm_tb(a, bt, ctb);
            gemm_rows[2].engine_s += seconds_since(t0);
        }
        gemm_rows[0].identical =
            check_witness("gemm", tensor_hash(c), golden.gemm);
        gemm_rows[1].identical =
            check_witness("gemm_ta", tensor_hash(cta), golden.gemm_ta);
        gemm_rows[2].identical =
            check_witness("gemm_tb", tensor_hash(ctb), golden.gemm_tb);
        gemm_rows[0].flops = 2.0 * double(m) * double(n) * double(k);
        gemm_rows[1].flops = 2.0 * double(k) * double(n) * double(m);
        gemm_rows[2].flops = 2.0 * double(m) * double(n) * double(k);
    }

    // GEMM thread scaling (same output at every width, by design).
    std::vector<ThreadRow> gemm_threads;
    for (int threads : {1, 2, 4, 8}) {
        KernelEngine engine(threads);
        Tensor c(m, n);
        engine.gemm(a, b, c); // warm-up
        ThreadRow row{threads, 0.0, false};
        Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            engine.gemm(a, b, c);
        row.seconds = seconds_since(t0);
        row.identical = check_witness("gemm", tensor_hash(c), golden.gemm);
        gemm_threads.push_back(row);
    }

    // ---- Aggregation: 2048 targets x deg 15, 256-dim --------------
    const int64_t targets = smoke ? 512 : 2048;
    const int64_t deg = 15;
    const int64_t sources = smoke ? 2048 : 8192;
    const int64_t dim = 256;
    sample::LayerBlock blk;
    blk.indptr = {0};
    for (int64_t t = 0; t < targets; ++t) {
        blk.targets.push_back(t % sources);
        for (int64_t d = 0; d < deg; ++d)
            blk.sources.push_back(static_cast<graph::NodeId>(
                rng.next_below(static_cast<uint64_t>(sources))));
        blk.indptr.push_back(
            static_cast<graph::EdgeId>(blk.sources.size()));
    }
    const Tensor feats = Tensor::randn(sources, dim, rng, 1.0f);
    std::vector<float> weights(static_cast<size_t>(blk.num_edges()));
    for (float &w : weights)
        w = static_cast<float>(rng.next_double());
    const Tensor gout = Tensor::randn(targets, dim, rng, 1.0f);

    const int agg_reps = smoke ? 4 : 16;
    std::vector<ThreadRow> agg_fwd_threads, agg_bwd_threads;
    double measured_agg_bytes_per_edge = 0.0;
    double measured_agg_gflops = 0.0;
    for (int threads : {1, 2, 4, 8}) {
        KernelEngine engine(threads);
        Tensor out(targets, dim);
        Tensor gin(sources, dim);
        engine.aggregate_forward(blk, weights, feats, out); // warm-up
        engine.reset_stats();

        ThreadRow fwd{threads, 0.0, false};
        Clock::time_point t0 = Clock::now();
        for (int r = 0; r < agg_reps; ++r)
            engine.aggregate_forward(blk, weights, feats, out);
        fwd.seconds = seconds_since(t0);
        fwd.identical = check_witness("aggregate_forward", tensor_hash(out),
                                      golden.aggregate_forward);
        agg_fwd_threads.push_back(fwd);

        ThreadRow bwd{threads, 0.0, false};
        t0 = Clock::now();
        for (int r = 0; r < agg_reps; ++r) {
            gin.fill_zero();
            engine.aggregate_backward(blk, weights, gout, gin);
        }
        bwd.seconds = seconds_since(t0);
        bwd.identical = check_witness("aggregate_backward",
                                      tensor_hash(gin),
                                      golden.aggregate_backward);
        agg_bwd_threads.push_back(bwd);

        if (threads == 4) {
            measured_agg_bytes_per_edge =
                engine.stats().agg_bytes_per_edge();
            measured_agg_gflops = engine.stats().agg_gflops();
        }
    }

    // ---- Modelled GPU seconds for the same aggregation ------------
    compute::ComputeCostModel cost_model(
        sim::rtx3090(), compute::ComputePlan::kMemoryAware);
    const sim::KernelCost modelled =
        cost_model.aggregation_cost(blk, static_cast<int>(dim));

    // ---- JSON report ----------------------------------------------
    const double single_gflops =
        gemm_rows[0].engine_s > 0.0
            ? gemm_rows[0].flops * reps / gemm_rows[0].engine_s / 1e9
            : 0.0;
    std::printf("{\n");
    std::printf("  \"bench\": \"compute\",\n");
    std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");

    std::printf("  \"gemm\": {\n");
    std::printf("    \"shape\": [%lld, %lld, %lld],\n",
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n));
    std::printf("    \"single_thread\": [\n");
    for (size_t i = 0; i < gemm_rows.size(); ++i) {
        const GemmRow &r = gemm_rows[i];
        std::printf("      {\"kernel\": \"%s\", \"engine_s\": %.6f, "
                    "\"engine_gflops\": %.2f, \"identical\": %s}%s\n",
                    r.name, r.engine_s,
                    r.engine_s > 0
                        ? r.flops * reps / r.engine_s / 1e9
                        : 0.0,
                    r.identical ? "true" : "false",
                    i + 1 < gemm_rows.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"parallel\": [\n");
    for (size_t i = 0; i < gemm_threads.size(); ++i) {
        const ThreadRow &r = gemm_threads[i];
        std::printf("      {\"threads\": %d, \"seconds\": %.6f, "
                    "\"identical\": %s}%s\n",
                    r.threads, r.seconds, r.identical ? "true" : "false",
                    i + 1 < gemm_threads.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"engine_single_thread_gflops\": %.2f\n  },\n",
                single_gflops);

    std::printf("  \"aggregation\": {\n");
    std::printf("    \"targets\": %lld, \"degree\": %lld, "
                "\"dim\": %lld,\n",
                static_cast<long long>(targets),
                static_cast<long long>(deg),
                static_cast<long long>(dim));
    std::printf("    \"forward\": [\n");
    for (size_t i = 0; i < agg_fwd_threads.size(); ++i) {
        const ThreadRow &r = agg_fwd_threads[i];
        std::printf("      {\"threads\": %d, \"seconds\": %.6f, "
                    "\"identical\": %s}%s\n",
                    r.threads, r.seconds, r.identical ? "true" : "false",
                    i + 1 < agg_fwd_threads.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"backward_reverse_csr\": [\n");
    for (size_t i = 0; i < agg_bwd_threads.size(); ++i) {
        const ThreadRow &r = agg_bwd_threads[i];
        std::printf("      {\"threads\": %d, \"seconds\": %.6f, "
                    "\"identical\": %s}%s\n",
                    r.threads, r.seconds, r.identical ? "true" : "false",
                    i + 1 < agg_bwd_threads.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"measured_gflops_4t\": %.2f,\n",
                measured_agg_gflops);
    std::printf("    \"measured_bytes_per_edge\": %.1f,\n",
                measured_agg_bytes_per_edge);
    std::printf("    \"modelled_gpu_seconds\": %.6f,\n",
                modelled.seconds);
    std::printf("    \"modelled_gpu_gflops\": %.2f\n  }\n",
                modelled.gflops());
    std::printf("}\n");

    return g_diverged ? 1 : 0;
}
