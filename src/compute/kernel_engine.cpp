#include "compute/kernel_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/logging.h"
#include "util/thread_pool.h"

// The GEMM register tile and the aggregation kernels are stamped once
// per instruction set and selected at runtime. Both stamps execute the
// exact same IEEE mul/add sequence per output element — the avx2 stamp
// widens the vectors but deliberately does NOT enable fma, whose
// contraction would change results — so dispatch never affects bits,
// only speed. FASTGL_KERNEL_VEC_BYTES hands each stamp its GEMM vector
// width: GCC does not define __AVX__ under a target pragma, so the
// stamp cannot detect it.
namespace {
#define FASTGL_KERNEL_NS base
#define FASTGL_KERNEL_VEC_BYTES 16
#include "compute/kernel_impl.inc"
#undef FASTGL_KERNEL_VEC_BYTES
#undef FASTGL_KERNEL_NS

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define FASTGL_HAVE_AVX2_VARIANT 1
#pragma GCC push_options
#pragma GCC target("avx2")
#define FASTGL_KERNEL_NS avx2
#define FASTGL_KERNEL_VEC_BYTES 32
#include "compute/kernel_impl.inc"
#undef FASTGL_KERNEL_VEC_BYTES
#undef FASTGL_KERNEL_NS
#pragma GCC pop_options
#endif

using PackFn = bool (*)(const float *, int64_t, int64_t, float *);
using GemmRowsFn = void (*)(const float *, int64_t, int64_t,
                            const float *, int64_t, int64_t,
                            const float *, int, float, float *, int64_t,
                            int64_t);
using AggFwdFn = void (*)(const fastgl::graph::EdgeId *,
                          const fastgl::graph::NodeId *, const float *,
                          const float *, int64_t, float *, int64_t,
                          int64_t);
using AggBwdFn = void (*)(const fastgl::graph::EdgeId *,
                          const fastgl::graph::EdgeId *,
                          const fastgl::graph::NodeId *, const float *,
                          const float *, int64_t, float *, int64_t,
                          int64_t);

struct Kernels
{
    PackFn pack_b;
    PackFn pack_bt;
    GemmRowsFn gemm_rows;      ///< No zero test: B finite, or gemm_tb.
    GemmRowsFn gemm_rows_skip; ///< Zero-skip select: B holds Inf/NaN.
    AggFwdFn agg_forward_rows;
    AggBwdFn agg_backward_rows;
};

constexpr Kernels kBaseKernels{base::pack_panels, base::pack_panels_t,
                               base::gemm_rows<false>,
                               base::gemm_rows<true>,
                               base::agg_forward_rows,
                               base::agg_backward_rows};

constexpr size_t kPanelAlign = base::kPanelAlign;

#ifdef FASTGL_HAVE_AVX2_VARIANT
constexpr Kernels kAvx2Kernels{avx2::pack_panels, avx2::pack_panels_t,
                               avx2::gemm_rows<false>,
                               avx2::gemm_rows<true>,
                               avx2::agg_forward_rows,
                               avx2::agg_backward_rows};

/**
 * Smallest wall time of a few GEMM microkernel runs on an L1-resident
 * problem. Used to pick the ISA stamp: CPUID advertising AVX2 does not
 * mean 256-bit ops are fast — hypervisors and older cores split or
 * trap them, sometimes an order of magnitude slower than SSE — so the
 * stamps are raced once at startup, per kernel family (the GEMM and
 * aggregation kernels stress different instruction mixes, so one stamp
 * can win one family and lose the other). The race runs the body
 * without the zero test, which is what finite operands run. Every
 * stamp produces the same bits, so the choice — even mixed per family
 * — can never affect results, only speed.
 */
double
time_gemm(const Kernels &ks)
{
    constexpr int64_t d = 48;
    std::vector<float> a(d * d, 1.0f), c(d * d);
    alignas(kPanelAlign) float packed[d * d];
    ks.pack_b(a.data(), d, d, packed);
    double best = 1e30;
    for (int round = 0; round < 3; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        ks.gemm_rows(a.data(), d, 1, packed, d, d, nullptr, 0, 0.0f,
                     c.data(), 0, d);
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    return best;
}

double
time_agg(const Kernels &ks)
{
    constexpr int64_t targets = 24, deg = 4, dim = 64;
    std::vector<fastgl::graph::EdgeId> indptr(targets + 1);
    std::vector<fastgl::graph::NodeId> sources(targets * deg);
    for (int64_t t = 0; t < targets; ++t) {
        indptr[t + 1] = indptr[t] + deg;
        for (int64_t d2 = 0; d2 < deg; ++d2)
            sources[t * deg + d2] = (t * 7 + d2 * 3) % targets;
    }
    std::vector<float> wts(targets * deg, 0.5f), in(targets * dim, 1.0f),
        out(targets * dim);
    double best = 1e30;
    for (int round = 0; round < 3; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        ks.agg_forward_rows(indptr.data(), sources.data(), wts.data(),
                            in.data(), dim, out.data(), 0, targets);
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    return best;
}
#endif

const Kernels &
kernels()
{
    static const Kernels selected = [] {
        const char *force = std::getenv("FASTGL_KERNEL_ISA");
        const std::string isa = force ? force : "";
        if (!isa.empty() && isa != "base" && isa != "avx2")
            fastgl::util::fatal("FASTGL_KERNEL_ISA=" + isa +
                                ": expected base or avx2");
        if (isa == "base")
            return kBaseKernels;
#ifdef FASTGL_HAVE_AVX2_VARIANT
        if (__builtin_cpu_supports("avx2")) {
            if (isa == "avx2")
                return kAvx2Kernels;
            Kernels mixed = kBaseKernels;
            if (time_gemm(kAvx2Kernels) < time_gemm(kBaseKernels)) {
                mixed.pack_b = kAvx2Kernels.pack_b;
                mixed.pack_bt = kAvx2Kernels.pack_bt;
                mixed.gemm_rows = kAvx2Kernels.gemm_rows;
                mixed.gemm_rows_skip = kAvx2Kernels.gemm_rows_skip;
            }
            if (time_agg(kAvx2Kernels) < time_agg(kBaseKernels)) {
                mixed.agg_forward_rows = kAvx2Kernels.agg_forward_rows;
                mixed.agg_backward_rows = kAvx2Kernels.agg_backward_rows;
            }
            return mixed;
        }
#endif
        if (isa == "avx2")
            fastgl::util::fatal("FASTGL_KERNEL_ISA=avx2: this build or "
                                "CPU has no avx2 kernel stamp");
        return kBaseKernels;
    }();
    return selected;
}

constexpr int64_t kPanelWidth = base::kNr;

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

namespace fastgl {
namespace compute {

KernelEngine::KernelEngine() = default;

KernelEngine::KernelEngine(bool record_stats) : record_stats_(record_stats)
{}

KernelEngine::KernelEngine(int threads)
{
    if (threads != 1) {
        owned_ = std::make_unique<util::ThreadPool>(
            threads <= 0 ? 0 : static_cast<size_t>(threads));
        pool_ = owned_.get();
    }
}

KernelEngine::KernelEngine(util::ThreadPool *pool) : pool_(pool) {}

KernelEngine::~KernelEngine() = default;

KernelEngine &
KernelEngine::sequential()
{
    static KernelEngine engine(/*record_stats=*/false);
    return engine;
}

int
KernelEngine::threads() const
{
    return pool_ ? static_cast<int>(pool_->size()) : 1;
}

void
KernelEngine::parallel_rows(
    int64_t count, const std::function<void(int64_t, int64_t)> &fn)
{
    if (count <= 0)
        return;
    if (!pool_ || count == 1) {
        fn(0, count);
        return;
    }
    pool_->parallel_for(static_cast<size_t>(count),
                        [&fn](size_t begin, size_t end) {
                            fn(static_cast<int64_t>(begin),
                               static_cast<int64_t>(end));
                        });
}

void
KernelEngine::gemm_any(AKind kind, const Tensor &a, const Tensor &b,
                       const Tensor *bias, Activation act, float alpha,
                       Tensor &c)
{
    int64_t m = 0, k = 0, n = 0, sa_row = 0, sa_col = 0;
    switch (kind) {
      case AKind::kNormal:
        FASTGL_CHECK(a.cols() == b.rows(), "gemm inner dim mismatch");
        FASTGL_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
                     "gemm output shape mismatch");
        m = a.rows(), k = a.cols(), n = b.cols();
        sa_row = k, sa_col = 1;
        break;
      case AKind::kTransA:
        FASTGL_CHECK(a.rows() == b.rows(), "gemm_ta inner dim mismatch");
        FASTGL_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
                     "gemm_ta output shape mismatch");
        k = a.rows(), m = a.cols(), n = b.cols();
        sa_row = 1, sa_col = m;
        break;
      case AKind::kTransB:
        FASTGL_CHECK(a.cols() == b.cols(), "gemm_tb inner dim mismatch");
        FASTGL_CHECK(c.rows() == a.rows() && c.cols() == b.rows(),
                     "gemm_tb output shape mismatch");
        m = a.rows(), k = a.cols(), n = b.rows();
        sa_row = k, sa_col = 1;
        break;
    }
    if (bias)
        FASTGL_CHECK(bias->rows() == 1 && bias->cols() == n,
                     "bias shape mismatch");
    if (m == 0 || n == 0)
        return;

    const Clock::time_point t0 = Clock::now();
    const Kernels &ks = kernels();

    // Pack all of B once into 64-byte-aligned panels, in per-caller-
    // thread arena scratch (workers only read the packed panels).
    const int64_t panels = (n + kPanelWidth - 1) / kPanelWidth;
    thread_local util::ArenaAllocator pack_arena;
    pack_arena.reset();
    float *packed = static_cast<float *>(pack_arena.allocate(
        static_cast<size_t>(panels * k * kPanelWidth) * sizeof(float),
        kPanelAlign));
    const bool b_finite = kind == AKind::kTransB
                              ? ks.pack_bt(b.data(), n, k, packed)
                              : ks.pack_b(b.data(), k, n, packed);
    // The naive gemm and gemm_ta skip the terms where A(i,p) == 0;
    // gemm_tb has no such shortcut. The skip drops av * b, which is
    // +-0 for finite b, and adding +-0 to an accumulator that started
    // at +0 never changes it. So the skip changes bits only when B
    // holds Inf or NaN, and only then runs the select body.
    const bool skip_zero = kind != AKind::kTransB && !b_finite;
    const GemmRowsFn gemm_rows =
        skip_zero ? ks.gemm_rows_skip : ks.gemm_rows;

    const float *adata = a.data();
    const float *bias_data = bias ? bias->data() : nullptr;
    float *cdata = c.data();
    const int iact = act == Activation::kRelu         ? 1
                     : act == Activation::kLeakyRelu ? 2
                                                     : 0;
    parallel_rows(m, [&](int64_t i0, int64_t i1) {
        gemm_rows(adata, sa_row, sa_col, packed, k, n, bias_data, iact,
                  alpha, cdata, i0, i1);
    });

    if (record_stats_) {
        stats_.gemm_seconds += seconds_since(t0);
        stats_.gemm_flops +=
            2.0 * double(m) * double(n) * double(k);
        ++stats_.gemm_calls;
        stats_.gemm_skip_calls += skip_zero;
    }
}

void
KernelEngine::gemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    gemm_any(AKind::kNormal, a, b, nullptr, Activation::kNone, 0.0f, c);
}

void
KernelEngine::gemm_ta(const Tensor &a, const Tensor &b, Tensor &c)
{
    gemm_any(AKind::kTransA, a, b, nullptr, Activation::kNone, 0.0f, c);
}

void
KernelEngine::gemm_tb(const Tensor &a, const Tensor &b, Tensor &c)
{
    gemm_any(AKind::kTransB, a, b, nullptr, Activation::kNone, 0.0f, c);
}

void
KernelEngine::gemm_fused(const Tensor &a, const Tensor &b,
                         const Tensor *bias, Activation act, float alpha,
                         Tensor &c)
{
    gemm_any(AKind::kNormal, a, b, bias, act, alpha, c);
}

void
KernelEngine::add_bias(Tensor &x, const Tensor &bias)
{
    FASTGL_CHECK(bias.rows() == 1 && bias.cols() == x.cols(),
                 "bias shape mismatch");
    const int64_t cols = x.cols();
    const float *bdata = bias.data();
    parallel_rows(x.rows(), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            float *row = x.data() + r * cols;
            for (int64_t col = 0; col < cols; ++col)
                row[col] += bdata[col];
        }
    });
}

void
KernelEngine::bias_backward(const Tensor &grad, Tensor &grad_bias)
{
    FASTGL_CHECK(grad_bias.rows() == 1 && grad_bias.cols() == grad.cols(),
                 "bias grad shape mismatch");
    const int64_t rows = grad.rows();
    const int64_t cols = grad.cols();
    const float *gd = grad.data();
    float *gb = grad_bias.data();
    // Column-parallel; per column the sum runs rows-ascending from
    // zero, the exact chain of the sequential column sum.
    parallel_rows(cols, [&](int64_t c0, int64_t c1) {
        for (int64_t col = c0; col < c1; ++col)
            gb[col] = 0.0f;
        for (int64_t r = 0; r < rows; ++r) {
            const float *row = gd + r * cols;
            for (int64_t col = c0; col < c1; ++col)
                gb[col] += row[col];
        }
    });
}

void
KernelEngine::activation_bias_backward(const Tensor &ref, Activation act,
                                       float alpha, Tensor &grad,
                                       Tensor *grad_bias)
{
    if (act != Activation::kNone)
        FASTGL_CHECK(ref.same_shape(grad), "relu backward shape");
    if (grad_bias)
        FASTGL_CHECK(grad_bias->rows() == 1 &&
                         grad_bias->cols() == grad.cols(),
                     "bias grad shape mismatch");
    const int64_t rows = grad.rows();
    const int64_t cols = grad.cols();
    const float *refd = ref.data();
    float *gd = grad.data();
    float *gb = grad_bias ? grad_bias->data() : nullptr;
    // Column-parallel: each chunk owns its bias columns, and per column
    // the sum runs over rows in ascending order — the same chain the
    // sequential column-sum builds.
    parallel_rows(cols, [&](int64_t c0, int64_t c1) {
        if (gb) {
            for (int64_t col = c0; col < c1; ++col)
                gb[col] = 0.0f;
        }
        for (int64_t r = 0; r < rows; ++r) {
            const int64_t off = r * cols;
            for (int64_t col = c0; col < c1; ++col) {
                float g = gd[off + col];
                if (act == Activation::kRelu) {
                    if (refd[off + col] <= 0.0f)
                        g = 0.0f;
                } else if (act == Activation::kLeakyRelu) {
                    if (refd[off + col] <= 0.0f)
                        g *= alpha;
                }
                gd[off + col] = g;
                if (gb)
                    gb[col] += g;
            }
        }
    });
}

void
KernelEngine::aggregate_forward(const sample::LayerBlock &block,
                                const std::vector<float> &weights,
                                const Tensor &in, Tensor &out)
{
    FASTGL_CHECK(int64_t(weights.size()) == block.num_edges(),
                 "weight count != edge count");
    FASTGL_CHECK(out.rows() == block.num_targets() &&
                     out.cols() == in.cols(),
                 "aggregate output shape mismatch");
    block.validate(in.rows());
    const int64_t dim = in.cols();
    const Clock::time_point t0 = Clock::now();
    const Kernels &ks = kernels();
    const graph::EdgeId *indptr = block.indptr.data();
    const graph::NodeId *sources = block.sources.data();
    const float *src0 = in.data();
    const float *wts = weights.data();
    float *out0 = out.data();
    // No fill_zero: the chunked kernel writes every output element
    // exactly once (edgeless rows store their zero accumulators).
    parallel_rows(block.num_targets(), [&](int64_t lo, int64_t hi) {
        ks.agg_forward_rows(indptr, sources, wts, src0, dim, out0, lo,
                            hi);
    });
    if (record_stats_) {
        const int64_t edges = block.num_edges();
        stats_.agg_seconds += seconds_since(t0);
        stats_.agg_flops += 2.0 * double(edges) * double(dim);
        stats_.agg_bytes +=
            uint64_t(edges) *
                (uint64_t(dim) * sizeof(float) + sizeof(graph::NodeId) +
                 sizeof(float)) +
            uint64_t(block.num_targets()) *
                (uint64_t(dim) * sizeof(float) + sizeof(graph::EdgeId));
        stats_.agg_edges += edges;
        ++stats_.agg_calls;
    }
}

void
KernelEngine::aggregate_backward(const sample::LayerBlock &block,
                                 const std::vector<float> &weights,
                                 const Tensor &grad_out, Tensor &grad_in)
{
    FASTGL_CHECK(int64_t(weights.size()) == block.num_edges(),
                 "weight count != edge count");
    FASTGL_CHECK(grad_out.rows() == block.num_targets() &&
                     grad_out.cols() == grad_in.cols(),
                 "aggregate grad shape mismatch");
    block.validate(grad_in.rows());
    const sample::ReverseCsr &rc = block.reverse_csr();
    const int64_t dim = grad_out.cols();
    const Clock::time_point t0 = Clock::now();
    const float *gout0 = grad_out.data();
    const float *wts = weights.data();
    const Kernels &ks = kernels();
    // Source-parallel gather over the CSC view: each source row is one
    // accumulation chain, visited in ascending edge-ID order — the same
    // order the target-major sequential scatter adds them. Rows of
    // grad_in beyond the covered sources receive nothing, as before.
    float *gin0 = grad_in.data();
    parallel_rows(rc.num_sources, [&](int64_t lo, int64_t hi) {
        ks.agg_backward_rows(rc.indptr.data(), rc.edge_ids.data(),
                             rc.edge_targets.data(), wts, gout0, dim,
                             gin0, lo, hi);
    });
    if (record_stats_) {
        const int64_t edges = block.num_edges();
        stats_.agg_seconds += seconds_since(t0);
        stats_.agg_flops += 2.0 * double(edges) * double(dim);
        stats_.agg_bytes +=
            uint64_t(edges) *
                (uint64_t(dim) * sizeof(float) + sizeof(graph::EdgeId) +
                 sizeof(graph::NodeId) + sizeof(float)) +
            uint64_t(rc.num_sources) *
                (uint64_t(dim) * sizeof(float) + sizeof(graph::EdgeId));
        stats_.agg_edges += edges;
        ++stats_.agg_calls;
    }
}

void
KernelEngine::aggregate_backward_weights(const sample::LayerBlock &block,
                                         const Tensor &in,
                                         const Tensor &grad_out,
                                         std::vector<float> &grad_weights)
{
    FASTGL_CHECK(grad_out.rows() == block.num_targets(),
                 "grad_out row mismatch");
    FASTGL_CHECK(in.cols() == grad_out.cols(), "dim mismatch");
    block.validate(in.rows());
    grad_weights.assign(static_cast<size_t>(block.num_edges()), 0.0f);
    const int64_t dim = in.cols();
    const Clock::time_point t0 = Clock::now();
    const float *in0 = in.data();
    const float *gout0 = grad_out.data();
    parallel_rows(block.num_targets(), [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
            const float *gout = gout0 + t * dim;
            for (graph::EdgeId e = block.indptr[static_cast<size_t>(t)];
                 e < block.indptr[static_cast<size_t>(t) + 1]; ++e) {
                const graph::NodeId v =
                    block.sources[static_cast<size_t>(e)];
                const float *src = in0 + v * dim;
                float acc = 0.0f;
                for (int64_t col = 0; col < dim; ++col)
                    acc += gout[col] * src[col];
                grad_weights[static_cast<size_t>(e)] = acc;
            }
        }
    });
    if (record_stats_) {
        const int64_t edges = block.num_edges();
        stats_.agg_seconds += seconds_since(t0);
        stats_.agg_flops += 2.0 * double(edges) * double(dim);
        stats_.agg_bytes +=
            uint64_t(edges) * (2 * uint64_t(dim) * sizeof(float) +
                               sizeof(graph::NodeId) + sizeof(float));
        stats_.agg_edges += edges;
        ++stats_.agg_calls;
    }
}

} // namespace compute
} // namespace fastgl
