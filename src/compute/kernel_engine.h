/**
 * @file
 * The deterministic parallel compute-kernel engine behind fastgl's
 * host numerics: cache/register-blocked GEMM with B-panel packing,
 * fused bias+activation epilogues, and reverse-CSR parallel
 * aggregation. Everything is **bit-identical at any thread count** and
 * to the historical naive loops: parallelism only ever splits work
 * whose floating-point accumulation chains are disjoint (C rows,
 * target rows, source rows, bias columns), never the chains
 * themselves. See docs/compute_kernels.md for the full argument.
 *
 * The free functions in ops.h / aggregate.h delegate to the shared
 * sequential() engine, so the legacy API keeps its exact semantics
 * while layers, trainer and server construct their own engine with a
 * parallel width from FrameworkConfig.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "compute/tensor.h"
#include "sample/minibatch.h"

namespace fastgl {
namespace util {
class ThreadPool;
} // namespace util

namespace compute {

/** Fused GEMM epilogue / masked-backward activation. */
enum class Activation { kNone, kRelu, kLeakyRelu };

/** Measured counters of one engine (host wall time, work done). */
struct KernelEngineStats
{
    double gemm_seconds = 0.0;   ///< Wall seconds inside GEMM variants.
    double gemm_flops = 0.0;     ///< 2*m*n*k per call (skip not credited).
    int64_t gemm_calls = 0;
    /** GEMM calls whose B held Inf or NaN, so ran the zero-skip body. */
    int64_t gemm_skip_calls = 0;
    double agg_seconds = 0.0;    ///< Wall seconds inside aggregation.
    double agg_flops = 0.0;      ///< 2*E*dim per forward/backward call.
    uint64_t agg_bytes = 0;      ///< Bytes touched by aggregation.
    int64_t agg_edges = 0;       ///< Edges aggregated.
    int64_t agg_calls = 0;

    double
    gemm_gflops() const
    {
        return gemm_seconds > 0.0 ? gemm_flops / gemm_seconds / 1e9 : 0.0;
    }
    double
    agg_gflops() const
    {
        return agg_seconds > 0.0 ? agg_flops / agg_seconds / 1e9 : 0.0;
    }
    double
    agg_bytes_per_edge() const
    {
        return agg_edges ? double(agg_bytes) / double(agg_edges) : 0.0;
    }

    KernelEngineStats &
    operator+=(const KernelEngineStats &o)
    {
        gemm_seconds += o.gemm_seconds;
        gemm_flops += o.gemm_flops;
        gemm_calls += o.gemm_calls;
        gemm_skip_calls += o.gemm_skip_calls;
        agg_seconds += o.agg_seconds;
        agg_flops += o.agg_flops;
        agg_bytes += o.agg_bytes;
        agg_edges += o.agg_edges;
        agg_calls += o.agg_calls;
        return *this;
    }
};

/**
 * One compute-kernel engine: a parallel width (possibly 1) plus the
 * blocked kernels. An engine instance is driven by one caller thread
 * at a time (its stats counters and scratch are not synchronized); the
 * worker threads it fans out to are internal.
 */
class KernelEngine
{
  public:
    /** Sequential engine (no pool), stats recorded. */
    KernelEngine();

    /**
     * Engine over @p threads workers: 1 = sequential, 0 = hardware
     * concurrency, n = n workers (owned pool).
     */
    explicit KernelEngine(int threads);

    /** Engine over a caller-owned pool (must outlive the engine). */
    explicit KernelEngine(util::ThreadPool *pool);

    ~KernelEngine();

    KernelEngine(const KernelEngine &) = delete;
    KernelEngine &operator=(const KernelEngine &) = delete;

    /**
     * The shared sequential engine the ops.h / aggregate.h free
     * functions run on. Stats recording is disabled on it (it may be
     * used from many threads at once; counters would race).
     */
    static KernelEngine &sequential();

    /** Parallel width (1 when sequential). */
    int threads() const;

    // --- Dense kernels (semantics of ops.h, bit-identical) ---

    /** C = A[m,k] * B[k,n] (C overwritten). */
    void gemm(const Tensor &a, const Tensor &b, Tensor &c);

    /** C = A^T[k,m] * B[k,n]. */
    void gemm_ta(const Tensor &a, const Tensor &b, Tensor &c);

    /** C = A[m,k] * B^T[n,k]. */
    void gemm_tb(const Tensor &a, const Tensor &b, Tensor &c);

    /**
     * Fused update kernel: C = act(A*B + bias), one pass. @p bias may
     * be null (no bias); @p alpha is the LeakyReLU slope. Bit-identical
     * to gemm -> add_bias -> relu/leaky_relu_forward.
     */
    void gemm_fused(const Tensor &a, const Tensor &b, const Tensor *bias,
                    Activation act, float alpha, Tensor &c);

    /** x[r,:] += bias[0,:] for every row. */
    void add_bias(Tensor &x, const Tensor &bias);

    /**
     * grad_bias[0,:] = column sums of grad (grad_bias is OVERWRITTEN —
     * callers accumulate explicitly, matching gemm's fill_zero
     * convention).
     */
    void bias_backward(const Tensor &grad, Tensor &grad_bias);

    /**
     * Fused activation-mask + bias backward, one pass over grad:
     * applies the activation mask in place (kRelu: @p ref is the
     * activated output; kLeakyRelu: @p ref is the pre-activation;
     * kNone: no mask) and, when @p grad_bias is non-null, overwrites
     * it with the column sums of the masked grad.
     */
    void activation_bias_backward(const Tensor &ref, Activation act,
                                  float alpha, Tensor &grad,
                                  Tensor *grad_bias);

    // --- Sparse aggregation (semantics of aggregate.h) ---

    /** Forward aggregation (Eq. 1), target-parallel. */
    void aggregate_forward(const sample::LayerBlock &block,
                           const std::vector<float> &weights,
                           const Tensor &in, Tensor &out);

    /**
     * Backward aggregation (Eq. 5): grad_in[src[e],:] += w[e] *
     * grad_out[t,:], accumulated into the caller's grad_in. The
     * scatter is executed as a race-free source-parallel gather over
     * the block's reverse CSR; per source the contributions are added
     * in ascending edge-ID order — exactly the naive scatter's order.
     */
    void aggregate_backward(const sample::LayerBlock &block,
                            const std::vector<float> &weights,
                            const Tensor &grad_out, Tensor &grad_in);

    /** Edge-weight gradient (GAT), target-parallel. */
    void aggregate_backward_weights(const sample::LayerBlock &block,
                                    const Tensor &in,
                                    const Tensor &grad_out,
                                    std::vector<float> &grad_weights);

    /**
     * Run @p fn(begin, end) over [0, count) in contiguous chunks on
     * the pool (or inline when sequential). For callers whose per-row
     * work is race-free — chunk boundaries never affect results.
     */
    void parallel_rows(int64_t count,
                       const std::function<void(int64_t, int64_t)> &fn);

    const KernelEngineStats &stats() const { return stats_; }
    void reset_stats() { stats_ = KernelEngineStats{}; }

  private:
    explicit KernelEngine(bool record_stats);

    enum class AKind { kNormal, kTransA, kTransB };

    void gemm_any(AKind kind, const Tensor &a, const Tensor &b,
                  const Tensor *bias, Activation act, float alpha,
                  Tensor &c);

    util::ThreadPool *pool_ = nullptr;        ///< Null = sequential.
    std::unique_ptr<util::ThreadPool> owned_; ///< Set for KernelEngine(int).
    bool record_stats_ = true;
    KernelEngineStats stats_;
};

} // namespace compute
} // namespace fastgl
