/**
 * @file
 * Compute-kernel engine validation: before/after throughput of the
 * blocked GEMM variants and the parallel reverse-CSR aggregation.
 * "Before" is replicated in-bench from the pre-engine naive loops, and
 * every replica's output is FNV-hashed and compared to the engine's —
 * divergence is fatal (exit 1), because then the speedups would not
 * compare equal work. Also reports the engine's measured GFLOP/s and
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

// ------------------------------------------------------------------
// Legacy replicas (the pre-engine kernels, verbatim loops).
// ------------------------------------------------------------------

void
legacy_gemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    const int64_t m = a.rows(), k = a.cols(), n = b.cols();
    c.fill_zero();
    for (int64_t i = 0; i < m; ++i) {
        float *ci = c.data() + i * n;
        const float *ai = a.data() + i * k;
        for (int64_t p = 0; p < k; ++p) {
            const float av = ai[p];
            if (av == 0.0f)
                continue;
            const float *bp = b.data() + p * n;
            for (int64_t j = 0; j < n; ++j)
                ci[j] += av * bp[j];
        }
    }
}

void
legacy_gemm_ta(const Tensor &a, const Tensor &b, Tensor &c)
{
    const int64_t k = a.rows(), m = a.cols(), n = b.cols();
    c.fill_zero();
    for (int64_t p = 0; p < k; ++p) {
        const float *ap = a.data() + p * m;
        const float *bp = b.data() + p * n;
        for (int64_t i = 0; i < m; ++i) {
            const float av = ap[i];
            if (av == 0.0f)
                continue;
            float *ci = c.data() + i * n;
            for (int64_t j = 0; j < n; ++j)
                ci[j] += av * bp[j];
        }
    }
}

void
legacy_gemm_tb(const Tensor &a, const Tensor &b, Tensor &c)
{
    const int64_t m = a.rows(), k = a.cols(), n = b.rows();
    for (int64_t i = 0; i < m; ++i) {
        const float *ai = a.data() + i * k;
        float *ci = c.data() + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const float *bj = b.data() + j * k;
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += ai[p] * bj[p];
            ci[j] = acc;
        }
    }
}

void
legacy_aggregate_forward(const sample::LayerBlock &block,
                         const std::vector<float> &weights,
                         const Tensor &in, Tensor &out)
{
    const int64_t dim = in.cols();
    out.fill_zero();
    for (int64_t t = 0; t < block.num_targets(); ++t) {
        float *dst = out.data() + t * dim;
        for (graph::EdgeId e = block.indptr[t];
             e < block.indptr[t + 1]; ++e) {
            const graph::NodeId v = block.sources[e];
            const float w = weights[static_cast<size_t>(e)];
            const float *src = in.data() + v * dim;
            for (int64_t c = 0; c < dim; ++c)
                dst[c] += w * src[c];
        }
    }
}

void
legacy_aggregate_backward(const sample::LayerBlock &block,
                          const std::vector<float> &weights,
                          const Tensor &grad_out, Tensor &grad_in)
{
    const int64_t dim = grad_out.cols();
    for (int64_t t = 0; t < block.num_targets(); ++t) {
        const float *gout = grad_out.data() + t * dim;
        for (graph::EdgeId e = block.indptr[t];
             e < block.indptr[t + 1]; ++e) {
            const graph::NodeId v = block.sources[e];
            const float w = weights[static_cast<size_t>(e)];
            float *gin = grad_in.data() + v * dim;
            for (int64_t c = 0; c < dim; ++c)
                gin[c] += w * gout[c];
        }
    }
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

struct GemmRow
{
    const char *name;
    double legacy_s = 0.0;
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

    // ---- GEMM: 256-dim shapes of the GNN update phase -------------
    const int64_t m = smoke ? 256 : 512, k = 256, n = 256;
    util::Rng rng(42);
    Tensor a = Tensor::randn(m, k, rng, 1.0f);
    for (int64_t i = 0; i < a.numel(); i += 7)
        a.data()[i] = 0.0f; // exercise the legacy zero-skip
    const Tensor b = Tensor::randn(k, n, rng, 1.0f);
    const Tensor bt = Tensor::randn(n, k, rng, 1.0f);

    KernelEngine single(1);
    const int reps = smoke ? 3 : 10;
    std::vector<GemmRow> gemm_rows = {{"gemm", 0, 0, 0, false},
                                      {"gemm_ta", 0, 0, 0, false},
                                      {"gemm_tb", 0, 0, 0, false}};
    // Interleaved rounds: machine drift hits both sides equally.
    {
        Tensor lc(m, n), ec(m, n);
        Tensor lta(k, n), eta(k, n); // A^T[k,m] * B2[m,n]
        const Tensor b2 = Tensor::randn(m, n, rng, 1.0f);
        Tensor ltb(m, n), etb(m, n);
        legacy_gemm(a, b, lc); // warm-up, untimed
        single.gemm(a, b, ec);
        for (int r = 0; r < reps; ++r) {
            Clock::time_point t0 = Clock::now();
            legacy_gemm(a, b, lc);
            gemm_rows[0].legacy_s += seconds_since(t0);
            t0 = Clock::now();
            single.gemm(a, b, ec);
            gemm_rows[0].engine_s += seconds_since(t0);

            t0 = Clock::now();
            legacy_gemm_ta(a, b2, lta);
            gemm_rows[1].legacy_s += seconds_since(t0);
            t0 = Clock::now();
            single.gemm_ta(a, b2, eta);
            gemm_rows[1].engine_s += seconds_since(t0);

            t0 = Clock::now();
            legacy_gemm_tb(a, bt, ltb);
            gemm_rows[2].legacy_s += seconds_since(t0);
            t0 = Clock::now();
            single.gemm_tb(a, bt, etb);
            gemm_rows[2].engine_s += seconds_since(t0);
        }
        gemm_rows[0].identical =
            check_witness(tensor_hash(lc), tensor_hash(ec));
        gemm_rows[1].identical =
            check_witness(tensor_hash(lta), tensor_hash(eta));
        gemm_rows[2].identical =
            check_witness(tensor_hash(ltb), tensor_hash(etb));
        gemm_rows[0].flops = 2.0 * double(m) * double(n) * double(k);
        gemm_rows[1].flops = 2.0 * double(k) * double(n) * double(m);
        gemm_rows[2].flops = 2.0 * double(m) * double(n) * double(k);
    }

    // GEMM thread scaling (same output at every width, by design).
    std::vector<ThreadRow> gemm_threads;
    {
        Tensor ref(m, n);
        legacy_gemm(a, b, ref);
        const uint64_t want = tensor_hash(ref);
        for (int threads : {1, 2, 4, 8}) {
            KernelEngine engine(threads);
            Tensor c(m, n);
            engine.gemm(a, b, c); // warm-up
            ThreadRow row{threads, 0.0, false};
            Clock::time_point t0 = Clock::now();
            for (int r = 0; r < reps; ++r)
                engine.gemm(a, b, c);
            row.seconds = seconds_since(t0);
            row.identical = check_witness(want, tensor_hash(c));
            gemm_threads.push_back(row);
        }
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
    double legacy_fwd_s = 0.0, legacy_bwd_s = 0.0;
    uint64_t legacy_fwd_hash = 0, legacy_bwd_hash = 0;
    {
        Tensor out(targets, dim);
        Tensor gin(sources, dim);
        legacy_aggregate_forward(blk, weights, feats, out); // warm-up
        Clock::time_point t0 = Clock::now();
        for (int r = 0; r < agg_reps; ++r)
            legacy_aggregate_forward(blk, weights, feats, out);
        legacy_fwd_s = seconds_since(t0);
        legacy_fwd_hash = tensor_hash(out);

        t0 = Clock::now();
        for (int r = 0; r < agg_reps; ++r) {
            gin.fill_zero();
            legacy_aggregate_backward(blk, weights, gout, gin);
        }
        legacy_bwd_s = seconds_since(t0);
        legacy_bwd_hash = tensor_hash(gin);
    }

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
        fwd.identical =
            check_witness(legacy_fwd_hash, tensor_hash(out));
        agg_fwd_threads.push_back(fwd);

        ThreadRow bwd{threads, 0.0, false};
        t0 = Clock::now();
        for (int r = 0; r < agg_reps; ++r) {
            gin.fill_zero();
            engine.aggregate_backward(blk, weights, gout, gin);
        }
        bwd.seconds = seconds_since(t0);
        bwd.identical =
            check_witness(legacy_bwd_hash, tensor_hash(gin));
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
        std::printf("      {\"kernel\": \"%s\", \"legacy_s\": %.6f, "
                    "\"engine_s\": %.6f, \"speedup\": %.3f, "
                    "\"engine_gflops\": %.2f, \"identical\": %s}%s\n",
                    r.name, r.legacy_s, r.engine_s,
                    r.engine_s > 0 ? r.legacy_s / r.engine_s : 0.0,
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
                    "\"speedup_vs_legacy\": %.3f, \"identical\": %s}%s\n",
                    r.threads, r.seconds,
                    r.seconds > 0 ? gemm_rows[0].legacy_s / r.seconds
                                  : 0.0,
                    r.identical ? "true" : "false",
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
    std::printf("    \"legacy_forward_s\": %.6f,\n", legacy_fwd_s);
    std::printf("    \"legacy_backward_s\": %.6f,\n", legacy_bwd_s);
    std::printf("    \"forward\": [\n");
    for (size_t i = 0; i < agg_fwd_threads.size(); ++i) {
        const ThreadRow &r = agg_fwd_threads[i];
        std::printf("      {\"threads\": %d, \"seconds\": %.6f, "
                    "\"speedup_vs_legacy\": %.3f, \"identical\": %s}%s\n",
                    r.threads, r.seconds,
                    r.seconds > 0 ? legacy_fwd_s / r.seconds : 0.0,
                    r.identical ? "true" : "false",
                    i + 1 < agg_fwd_threads.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"backward_reverse_csr\": [\n");
    for (size_t i = 0; i < agg_bwd_threads.size(); ++i) {
        const ThreadRow &r = agg_bwd_threads[i];
        std::printf("      {\"threads\": %d, \"seconds\": %.6f, "
                    "\"speedup_vs_legacy\": %.3f, \"identical\": %s}%s\n",
                    r.threads, r.seconds,
                    r.seconds > 0 ? legacy_bwd_s / r.seconds : 0.0,
                    r.identical ? "true" : "false",
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

    // Replica divergence means the comparison was not apples-to-apples.
    if (g_diverged) {
        std::fprintf(stderr,
                     "FATAL: legacy replica output diverged from the "
                     "engine\n");
        return 1;
    }
    return 0;
}
