/**
 * @file
 * Tests for the deterministic parallel compute-kernel engine: bitwise
 * equality against verbatim replicas of the historical naive kernels at
 * several thread counts, golden hashes pinning the pre-engine outputs,
 * fused-epilogue equivalence, the bias_backward overwrite regression,
 * reverse-CSR structure, hoisted validation, and finite-difference
 * gradchecks of the fused layer paths on a multi-threaded engine.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "compute/aggregate.h"
#include "compute/gat_layer.h"
#include "compute/gcn_layer.h"
#include "compute/gin_layer.h"
#include "compute/gnn_model.h"
#include "compute/kernel_engine.h"
#include "compute/ops.h"
#include "graph/generators.h"
#include "sample/minibatch.h"
#include "sample/neighbor_sampler.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace fastgl {
namespace {

using compute::Activation;
using compute::KernelEngine;
using compute::Tensor;

// ------------------------------------------------------------------
// Verbatim replicas of the pre-engine kernels (the exact loops the
// engine must reproduce bit for bit, including the zero-skip in
// gemm/gemm_ta and the scalar dot of gemm_tb).
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
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
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
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            const float w = weights[static_cast<size_t>(e)];
            float *gin = grad_in.data() + v * dim;
            for (int64_t c = 0; c < dim; ++c)
                gin[c] += w * gout[c];
        }
    }
}

void
legacy_aggregate_backward_weights(const sample::LayerBlock &block,
                                  const Tensor &in,
                                  const Tensor &grad_out,
                                  std::vector<float> &grad_weights)
{
    grad_weights.assign(static_cast<size_t>(block.num_edges()), 0.0f);
    const int64_t dim = in.cols();
    for (int64_t t = 0; t < block.num_targets(); ++t) {
        const float *gout = grad_out.data() + t * dim;
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            const float *src = in.data() + v * dim;
            float acc = 0.0f;
            for (int64_t c = 0; c < dim; ++c)
                acc += gout[c] * src[c];
            grad_weights[static_cast<size_t>(e)] = acc;
        }
    }
}

// ------------------------------------------------------------- helpers

/** Same shape and bytes. An empty tensor's data() may be null, which
 *  memcmp must not be given even for zero bytes. */
bool
bitwise_equal(const Tensor &x, const Tensor &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           (x.numel() == 0 ||
            std::memcmp(x.data(), y.data(),
                        static_cast<size_t>(x.numel()) * sizeof(float)) ==
                0);
}

/** FNV-1a over a tensor's raw bytes. */
uint64_t
tensor_hash(const Tensor &x)
{
    return util::fnv_bytes(x.data(),
                           static_cast<size_t>(x.numel()) * sizeof(float));
}

/** Random tensor with a sprinkling of exact zeros (zero-skip paths). */
Tensor
random_with_zeros(int64_t rows, int64_t cols, util::Rng &rng)
{
    Tensor t = Tensor::randn(rows, cols, rng, 1.0f);
    for (int64_t i = 0; i < t.numel(); i += 7)
        t.data()[i] = 0.0f;
    return t;
}

/** A small multi-degree block over 6 source rows (0..5). */
sample::LayerBlock
small_block()
{
    sample::LayerBlock blk;
    blk.targets = {0, 1, 2, 3};
    blk.indptr = {0, 3, 5, 5, 9};
    blk.sources = {0, 3, 5, 1, 2, 2, 3, 4, 5};
    return blk;
}

/** A larger random block: @p targets targets, @p deg edges each. */
sample::LayerBlock
random_block(int64_t targets, int64_t deg, int64_t num_sources,
             util::Rng &rng)
{
    sample::LayerBlock blk;
    blk.indptr = {0};
    for (int64_t t = 0; t < targets; ++t) {
        blk.targets.push_back(t % num_sources);
        for (int64_t d = 0; d < deg; ++d)
            blk.sources.push_back(static_cast<graph::NodeId>(
                rng.next_below(static_cast<uint64_t>(num_sources))));
        blk.indptr.push_back(
            static_cast<graph::EdgeId>(blk.sources.size()));
    }
    return blk;
}

const int kWidths[] = {1, 4, 8};

// -------------------------------------------------- GEMM bit-identity

TEST(ComputeKernels, GemmMatchesLegacyBitwiseAtAnyWidth)
{
    util::Rng rng(11);
    // Shapes straddle the row tiles and the 16-wide panel: tiny,
    // tail-heavy, tile-exact, and a long run of rows over a tail panel.
    const int64_t shapes[][3] = {{1, 1, 1},     {5, 3, 2},
                                 {33, 17, 29},  {64, 32, 48},
                                 {70, 96, 130}, {1001, 200, 47}};
    for (const auto &s : shapes) {
        const Tensor a = random_with_zeros(s[0], s[1], rng);
        const Tensor b = Tensor::randn(s[1], s[2], rng, 1.0f);
        Tensor want(s[0], s[2]);
        legacy_gemm(a, b, want);
        for (int threads : kWidths) {
            KernelEngine engine(threads);
            Tensor got(s[0], s[2]);
            engine.gemm(a, b, got);
            EXPECT_TRUE(bitwise_equal(want, got))
                << s[0] << "x" << s[1] << "x" << s[2] << " at "
                << threads << " threads";
        }
    }
}

TEST(ComputeKernels, GemmTaMatchesLegacyBitwiseAtAnyWidth)
{
    util::Rng rng(12);
    // The last shape runs a long k loop and leaves a row tail for both
    // the 2- and the 4-row tile.
    const int64_t shapes[][3] = {
        {3, 5, 2}, {17, 33, 29}, {96, 40, 64}, {3000, 201, 64}};
    for (const auto &s : shapes) {
        // A is [k x m] here; C = A^T B is [m x n].
        const Tensor a = random_with_zeros(s[0], s[1], rng);
        const Tensor b = Tensor::randn(s[0], s[2], rng, 1.0f);
        Tensor want(s[1], s[2]);
        legacy_gemm_ta(a, b, want);
        for (int threads : kWidths) {
            KernelEngine engine(threads);
            Tensor got(s[1], s[2]);
            engine.gemm_ta(a, b, got);
            EXPECT_TRUE(bitwise_equal(want, got))
                << s[0] << "x" << s[1] << "x" << s[2] << " at "
                << threads << " threads";
        }
    }
}

TEST(ComputeKernels, GemmTbMatchesLegacyBitwiseAtAnyWidth)
{
    util::Rng rng(13);
    const int64_t shapes[][3] = {{2, 3, 5}, {29, 17, 33}, {64, 80, 96}};
    for (const auto &s : shapes) {
        // B is [n x k]; C = A B^T is [m x n].
        const Tensor a = random_with_zeros(s[0], s[1], rng);
        const Tensor b = random_with_zeros(s[2], s[1], rng);
        Tensor want(s[0], s[2]);
        legacy_gemm_tb(a, b, want);
        for (int threads : kWidths) {
            KernelEngine engine(threads);
            Tensor got(s[0], s[2]);
            engine.gemm_tb(a, b, got);
            EXPECT_TRUE(bitwise_equal(want, got))
                << s[0] << "x" << s[1] << "x" << s[2] << " at "
                << threads << " threads";
        }
    }
}

// ------------------------------------------------------ fused epilogue

TEST(ComputeKernels, FusedEpilogueEqualsSeparateOpsBitwise)
{
    util::Rng rng(14);
    const Tensor a = random_with_zeros(37, 21, rng);
    const Tensor b = Tensor::randn(21, 19, rng, 1.0f);
    const Tensor bias = Tensor::randn(1, 19, rng, 1.0f);

    // Reference: the historical three-kernel sequence.
    Tensor want(37, 19);
    compute::gemm(a, b, want);
    compute::add_bias(want, bias);
    compute::relu_forward(want);

    for (int threads : kWidths) {
        KernelEngine engine(threads);
        Tensor got(37, 19);
        engine.gemm_fused(a, b, &bias, Activation::kRelu, 0.0f, got);
        EXPECT_TRUE(bitwise_equal(want, got)) << threads << " threads";
    }

    // LeakyReLU epilogue.
    Tensor want_leaky(37, 19);
    compute::gemm(a, b, want_leaky);
    compute::add_bias(want_leaky, bias);
    compute::leaky_relu_forward(want_leaky, 0.2f);
    KernelEngine engine(4);
    Tensor got_leaky(37, 19);
    engine.gemm_fused(a, b, &bias, Activation::kLeakyRelu, 0.2f,
                      got_leaky);
    EXPECT_TRUE(bitwise_equal(want_leaky, got_leaky));

    // No-bias, no-activation degenerates to plain gemm.
    Tensor want_plain(37, 19);
    compute::gemm(a, b, want_plain);
    Tensor got_plain(37, 19);
    engine.gemm_fused(a, b, nullptr, Activation::kNone, 0.0f, got_plain);
    EXPECT_TRUE(bitwise_equal(want_plain, got_plain));
}

// --------------------------------------------------- zero-skip semantics

/**
 * Operand with signed zeros: zero wherever (row + col) % 3 == 0, +0.0
 * on even rows and -0.0 on odd ones. The pattern is symmetric, so it
 * is the same for A stored [m x k] (gemm) and [k x m] (gemm_ta).
 */
Tensor
signed_zero_operand(int64_t rows, int64_t cols, util::Rng &rng)
{
    Tensor t = Tensor::randn(rows, cols, rng, 1.0f);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
            if ((r + c) % 3 == 0)
                t.at(r, c) = r % 2 ? -0.0f : 0.0f;
    return t;
}

/**
 * B operand ([k x n], k >= 8) with @p planted in every third column
 * of row 2, -planted in every fourth column of row 5 and -0.0 in
 * every other column of row 7. With signed_zero_operand as A, output
 * rows i % 3 == 1 have zero A at p = 2 and p = 5, so they stay finite
 * only because the zero-skip drops those terms.
 */
Tensor
non_finite_operand(int64_t k, int64_t n, float planted, util::Rng &rng)
{
    Tensor t = Tensor::randn(k, n, rng, 1.0f);
    for (int64_t j = 0; j < n; ++j) {
        if (j % 3 == 0)
            t.at(2, j) = planted;
        if (j % 4 == 0)
            t.at(5, j) = -planted;
        if (j % 2 == 0)
            t.at(7, j) = -0.0f;
    }
    return t;
}

/** Bitwise equal, except that any NaN matches any NaN. */
bool
equal_or_both_nan(const Tensor &x, const Tensor &y)
{
    if (!x.same_shape(y))
        return false;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float u = x.data()[i], v = y.data()[i];
        if (std::isnan(u) || std::isnan(v)) {
            if (!(std::isnan(u) && std::isnan(v)))
                return false;
        } else if (std::memcmp(&u, &v, sizeof u) != 0) {
            return false;
        }
    }
    return true;
}

/**
 * gemm, gemm_ta and gemm_fused (bias + ReLU) against the legacy loops
 * when B holds @p planted and -planted and A holds signed zeros, at
 * widths 1/4/8. @p nan_aware relaxes the match for NaN outputs: which
 * NaN payload an add propagates depends on its operand order, which
 * no kernel pins.
 */
void
expect_zero_skip_matches_legacy(float planted, bool nan_aware)
{
    util::Rng rng(16);
    // {m, k, n}; gemm_ta reads A as [k x m].
    const int64_t shapes[][3] = {{9, 8, 5}, {37, 23, 21}, {70, 96, 130}};
    for (const auto &s : shapes) {
        const Tensor a = signed_zero_operand(s[0], s[1], rng);
        const Tensor at = signed_zero_operand(s[1], s[0], rng);
        const Tensor b = non_finite_operand(s[1], s[2], planted, rng);
        const Tensor bias = Tensor::randn(1, s[2], rng, 1.0f);
        Tensor want(s[0], s[2]), want_ta(s[0], s[2]);
        legacy_gemm(a, b, want);
        legacy_gemm_ta(at, b, want_ta);
        Tensor want_fused = want;
        compute::add_bias(want_fused, bias);
        compute::relu_forward(want_fused);

        // The case only pins the skip if some outputs are finite and
        // some are not.
        int64_t finite = 0;
        for (int64_t i = 0; i < want.numel(); ++i)
            finite += std::isfinite(want.data()[i]);
        EXPECT_GT(finite, 0);
        EXPECT_LT(finite, want.numel());

        const auto same = nan_aware ? equal_or_both_nan : bitwise_equal;
        for (int threads : kWidths) {
            KernelEngine engine(threads);
            Tensor got(s[0], s[2]), got_ta(s[0], s[2]),
                got_fused(s[0], s[2]);
            engine.gemm(a, b, got);
            engine.gemm_ta(at, b, got_ta);
            engine.gemm_fused(a, b, &bias, Activation::kRelu, 0.0f,
                              got_fused);
            EXPECT_TRUE(same(want, got))
                << "gemm " << s[0] << "x" << s[1] << "x" << s[2]
                << " at " << threads << " threads";
            EXPECT_TRUE(same(want_ta, got_ta))
                << "gemm_ta " << s[0] << "x" << s[1] << "x" << s[2]
                << " at " << threads << " threads";
            EXPECT_TRUE(same(want_fused, got_fused))
                << "gemm_fused " << s[0] << "x" << s[1] << "x" << s[2]
                << " at " << threads << " threads";
        }
    }
}

TEST(ComputeKernels, ZeroSkipMatchesLegacyWithInfAndSignedZerosBitwise)
{
    expect_zero_skip_matches_legacy(
        std::numeric_limits<float>::infinity(), /*nan_aware=*/false);
}

TEST(ComputeKernels, ZeroSkipMatchesLegacyWithNanInB)
{
    expect_zero_skip_matches_legacy(
        std::numeric_limits<float>::quiet_NaN(), /*nan_aware=*/true);
}

TEST(ComputeKernels, ActivationBiasBackwardEqualsSeparateOpsBitwise)
{
    util::Rng rng(15);
    Tensor pre = Tensor::randn(23, 11, rng, 1.0f);
    Tensor relu_out = pre;
    compute::relu_forward(relu_out);
    const Tensor grad0 = Tensor::randn(23, 11, rng, 1.0f);

    // Reference: relu_backward then the historical bias column sums.
    Tensor want_grad = grad0;
    compute::relu_backward(relu_out, want_grad);
    Tensor want_bias(1, 11);
    for (int64_t r = 0; r < want_grad.rows(); ++r)
        for (int64_t c = 0; c < want_grad.cols(); ++c)
            want_bias.at(0, c) += want_grad.at(r, c);

    for (int threads : kWidths) {
        KernelEngine engine(threads);
        Tensor got_grad = grad0;
        Tensor got_bias(1, 11);
        engine.activation_bias_backward(relu_out, Activation::kRelu,
                                        0.0f, got_grad, &got_bias);
        EXPECT_TRUE(bitwise_equal(want_grad, got_grad))
            << threads << " threads";
        EXPECT_TRUE(bitwise_equal(want_bias, got_bias))
            << threads << " threads";
    }

    // LeakyReLU mask keys off the *pre*-activation tensor.
    Tensor want_leaky = grad0;
    compute::leaky_relu_backward(pre, 0.2f, want_leaky);
    KernelEngine engine(4);
    Tensor got_leaky = grad0;
    engine.activation_bias_backward(pre, Activation::kLeakyRelu, 0.2f,
                                    got_leaky, nullptr);
    EXPECT_TRUE(bitwise_equal(want_leaky, got_leaky));
}

// The regression this PR fixes: bias_backward used to *accumulate* into
// whatever grad_bias already held, silently doubling bias gradients for
// any caller that reused the output tensor.
TEST(ComputeKernels, BiasBackwardOverwritesStaleContents)
{
    util::Rng rng(16);
    const Tensor grad = Tensor::randn(9, 5, rng, 1.0f);
    Tensor want(1, 5);
    for (int64_t r = 0; r < grad.rows(); ++r)
        for (int64_t c = 0; c < grad.cols(); ++c)
            want.at(0, c) += grad.at(r, c);

    Tensor got(1, 5);
    got.fill(123.456f); // stale garbage that must not leak through
    compute::bias_backward(grad, got);
    EXPECT_TRUE(bitwise_equal(want, got));

    KernelEngine engine(4);
    got.fill(-77.0f);
    engine.bias_backward(grad, got);
    EXPECT_TRUE(bitwise_equal(want, got));
}

// ------------------------------------------------------- aggregation

TEST(ComputeKernels, AggregateForwardMatchesLegacyBitwiseAtAnyWidth)
{
    util::Rng rng(17);
    const sample::LayerBlock blk = random_block(64, 9, 100, rng);
    const Tensor in = Tensor::randn(100, 33, rng, 1.0f);
    std::vector<float> weights(static_cast<size_t>(blk.num_edges()));
    for (float &w : weights)
        w = static_cast<float>(rng.next_double());

    Tensor want(blk.num_targets(), 33);
    legacy_aggregate_forward(blk, weights, in, want);
    for (int threads : kWidths) {
        KernelEngine engine(threads);
        Tensor got(blk.num_targets(), 33);
        engine.aggregate_forward(blk, weights, in, got);
        EXPECT_TRUE(bitwise_equal(want, got)) << threads << " threads";
    }
}

TEST(ComputeKernels, AggregateBackwardMatchesLegacyBitwiseAtAnyWidth)
{
    util::Rng rng(18);
    const sample::LayerBlock blk = random_block(64, 9, 100, rng);
    const Tensor grad_out = Tensor::randn(blk.num_targets(), 33, rng,
                                          1.0f);
    std::vector<float> weights(static_cast<size_t>(blk.num_edges()));
    for (float &w : weights)
        w = static_cast<float>(rng.next_double());

    // The scatter accumulates into existing contents; seed both sides
    // with the same nonzero tensor to pin that behaviour too.
    const Tensor seed = Tensor::randn(100, 33, rng, 0.5f);
    Tensor want = seed;
    legacy_aggregate_backward(blk, weights, grad_out, want);
    for (int threads : kWidths) {
        KernelEngine engine(threads);
        Tensor got = seed;
        engine.aggregate_backward(blk, weights, grad_out, got);
        EXPECT_TRUE(bitwise_equal(want, got)) << threads << " threads";
    }
}

TEST(ComputeKernels, AggregateBackwardWeightsMatchesLegacyBitwise)
{
    util::Rng rng(19);
    const sample::LayerBlock blk = random_block(48, 7, 80, rng);
    const Tensor in = Tensor::randn(80, 21, rng, 1.0f);
    const Tensor grad_out = Tensor::randn(blk.num_targets(), 21, rng,
                                          1.0f);

    std::vector<float> want;
    legacy_aggregate_backward_weights(blk, in, grad_out, want);
    for (int threads : kWidths) {
        KernelEngine engine(threads);
        std::vector<float> got;
        engine.aggregate_backward_weights(blk, in, grad_out, got);
        ASSERT_EQ(want.size(), got.size());
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)))
            << threads << " threads";
    }
}

// ---------------------------------------------- reverse CSR / validate

TEST(ComputeKernels, ReverseCsrIsTheExactAdjoint)
{
    const sample::LayerBlock blk = small_block();
    const sample::ReverseCsr &rc = blk.reverse_csr();

    // num_sources covers the highest source ID.
    EXPECT_EQ(rc.num_sources, 6);
    ASSERT_EQ(rc.indptr.size(), 7u);
    EXPECT_EQ(rc.indptr.front(), 0);
    EXPECT_EQ(rc.indptr.back(), blk.num_edges());

    // Every forward edge appears exactly once, under its source, with
    // the matching target row, in ascending edge-ID order.
    std::vector<int> seen(static_cast<size_t>(blk.num_edges()), 0);
    for (int64_t v = 0; v < rc.num_sources; ++v) {
        for (graph::EdgeId i = rc.indptr[v]; i < rc.indptr[v + 1]; ++i) {
            const graph::EdgeId e = rc.edge_ids[i];
            if (i > rc.indptr[v]) {
                EXPECT_LT(rc.edge_ids[i - 1], e) << "source " << v;
            }
            ASSERT_GE(e, 0);
            ASSERT_LT(e, blk.num_edges());
            ++seen[static_cast<size_t>(e)];
            EXPECT_EQ(blk.sources[e], v);
            const graph::NodeId t = rc.edge_targets[i];
            EXPECT_GE(e, blk.indptr[t]);
            EXPECT_LT(e, blk.indptr[t + 1]);
        }
    }
    for (int count : seen)
        EXPECT_EQ(count, 1);

    // The cache hands back the same structure on the next call.
    EXPECT_EQ(&blk.reverse_csr(), &rc);
}

TEST(ComputeKernels, ValidateAcceptsEmptyAndInRangeBlocks)
{
    sample::LayerBlock empty;
    empty.validate(0); // must not die
    const sample::LayerBlock blk = small_block();
    blk.validate(6);
    blk.validate(100);
}

TEST(ComputeKernelsDeathTest, ValidateRejectsOutOfRangeSource)
{
    const sample::LayerBlock blk = small_block();
    EXPECT_DEATH(blk.validate(5), "source local ID outside input rows");
}

TEST(ComputeKernelsDeathTest, AggregateStillDiesOnBadBlock)
{
    // The per-edge FASTGL_CHECK moved into validate(); the aggregate
    // entry points must still refuse a block whose sources point past
    // the input rows.
    sample::LayerBlock blk;
    blk.targets = {0};
    blk.indptr = {0, 1};
    blk.sources = {3};
    const std::vector<float> weights = {1.0f};
    const Tensor in(2, 4);
    Tensor out(1, 4);
    EXPECT_DEATH(compute::aggregate_forward(blk, weights, in, out),
                 "source local ID outside input rows");
}

// ------------------------------------------------------- golden hashes

// FNV-1a hashes of kernel outputs on fixed seeded inputs, captured from
// the pre-engine implementation. They pin the exact bit patterns across
// refactors of the blocked kernels.
TEST(ComputeKernels, GoldenHashesPinPreEngineOutputs)
{
    util::Rng rng(2024);
    const Tensor a = random_with_zeros(40, 24, rng);
    const Tensor b = Tensor::randn(24, 32, rng, 1.0f);
    const Tensor bt = random_with_zeros(32, 24, rng);

    Tensor c(40, 32);
    KernelEngine engine(4);
    engine.gemm(a, b, c);
    EXPECT_EQ(tensor_hash(c), 0x805DFD6D5189A6D7ULL);

    Tensor cta(24, 32); // A^T: [40x24]^T x [40x32]
    const Tensor b2 = Tensor::randn(40, 32, rng, 1.0f);
    engine.gemm_ta(a, b2, cta);
    EXPECT_EQ(tensor_hash(cta), 0xFF9AFF0873A283AFULL);

    Tensor ctb(40, 32);
    engine.gemm_tb(a, bt, ctb);
    EXPECT_EQ(tensor_hash(ctb), 0x8726B0072E1430F4ULL);

    const sample::LayerBlock blk = random_block(32, 5, 50, rng);
    const Tensor feats = Tensor::randn(50, 16, rng, 1.0f);
    std::vector<float> weights(static_cast<size_t>(blk.num_edges()));
    for (float &w : weights)
        w = static_cast<float>(rng.next_double());
    Tensor agg(blk.num_targets(), 16);
    engine.aggregate_forward(blk, weights, feats, agg);
    EXPECT_EQ(tensor_hash(agg), 0xF2182157892DA518ULL);

    Tensor gin(50, 16);
    engine.aggregate_backward(blk, weights, agg, gin);
    EXPECT_EQ(tensor_hash(gin), 0x83D46EBA3A230F8FULL);
}

// ------------------------------------------------- layers on an engine

/** Scalar loss: <forward(input), projection> (layers_test idiom). */
double
projected_loss(compute::GnnLayer &layer, const sample::LayerBlock &blk,
               const Tensor &input, const Tensor &projection)
{
    Tensor out = layer.forward(blk, input);
    double acc = 0.0;
    for (int64_t i = 0; i < out.rows(); ++i)
        for (int64_t j = 0; j < out.cols(); ++j)
            acc += double(out.at(i, j)) * double(projection.at(i, j));
    return acc;
}

sample::LayerBlock
gradcheck_block()
{
    sample::LayerBlock blk;
    blk.targets = {0, 1, 2};
    blk.indptr = {0, 3, 5, 8};
    blk.sources = {0, 3, 4, 1, 2, 2, 3, 4};
    return blk;
}

/**
 * Finite-difference check of the input gradient for a layer running
 * entirely on a multi-threaded engine — covers the fused epilogues and
 * the reverse-CSR backward end to end.
 */
void
check_layer_input_gradient(compute::GnnLayer &layer)
{
    KernelEngine engine(4);
    layer.set_engine(&engine);
    const sample::LayerBlock blk = gradcheck_block();
    util::Rng rng(505);
    Tensor input = Tensor::randn(5, layer.in_dim(), rng, 1.0f);
    const Tensor projection =
        Tensor::randn(3, layer.out_dim(), rng, 1.0f);

    layer.forward(blk, input);
    const Tensor analytic = layer.backward(blk, projection);

    constexpr float kEps = 1e-2f;
    const int64_t stride = std::max<int64_t>(1, input.numel() / 7);
    for (int64_t flat = 0; flat < input.numel(); flat += stride) {
        const int64_t r = flat / input.cols();
        const int64_t c = flat % input.cols();
        const float saved = input.at(r, c);
        input.at(r, c) = saved + kEps;
        const double up = projected_loss(layer, blk, input, projection);
        input.at(r, c) = saved - kEps;
        const double down =
            projected_loss(layer, blk, input, projection);
        input.at(r, c) = saved;
        const double numeric = (up - down) / (2.0 * kEps);
        const double want = analytic.at(r, c);
        const double scale =
            std::max({1.0, std::abs(numeric), std::abs(want)});
        EXPECT_NEAR(want, numeric, 0.05 * scale)
            << "element (" << r << "," << c << ")";
    }
}

TEST(ComputeKernels, GcnFusedPathPassesGradcheckOnParallelEngine)
{
    util::Rng rng(404);
    compute::GcnLayer layer(4, 3, true, rng);
    check_layer_input_gradient(layer);
}

TEST(ComputeKernels, GinFusedPathPassesGradcheckOnParallelEngine)
{
    util::Rng rng(404);
    compute::GinLayer layer(4, 3, true, rng);
    check_layer_input_gradient(layer);
}

TEST(ComputeKernels, GatPassesGradcheckOnParallelEngine)
{
    util::Rng rng(404);
    compute::GatLayer layer(4, 2, 3, true, rng);
    check_layer_input_gradient(layer);
}

/** Layers produce bit-identical outputs and grads at widths 1/4/8. */
TEST(ComputeKernels, LayerOutputsBitIdenticalAcrossEngineWidths)
{
    const sample::LayerBlock blk = gradcheck_block();
    Tensor ref_out, ref_grad;
    for (int threads : kWidths) {
        util::Rng rng(606); // same weights every width
        compute::GatLayer layer(6, 2, 4, true, rng);
        KernelEngine engine(threads);
        layer.set_engine(&engine);
        util::Rng drng(707);
        const Tensor input = Tensor::randn(5, 6, drng, 1.0f);
        const Tensor gout = Tensor::randn(3, 8, drng, 1.0f);
        const Tensor out = layer.forward(blk, input);
        const Tensor gin = layer.backward(blk, gout);
        if (threads == 1) {
            ref_out = out;
            ref_grad = gin;
        } else {
            EXPECT_TRUE(bitwise_equal(ref_out, out))
                << threads << " threads";
            EXPECT_TRUE(bitwise_equal(ref_grad, gin))
                << threads << " threads";
        }
    }
}

/** One forward and backward step's results, copied out of the layer. */
struct StepBits
{
    Tensor out;
    Tensor grad_input;
    std::vector<Tensor> param_grads;
};

StepBits
layer_step(compute::GnnLayer &layer, const sample::LayerBlock &blk,
           const Tensor &input, const Tensor &grad_out)
{
    for (compute::Parameter *p : layer.parameters())
        p->zero_grad();
    StepBits s;
    s.out = layer.forward(blk, input);
    s.grad_input = layer.backward(blk, grad_out);
    for (compute::Parameter *p : layer.parameters())
        s.param_grads.push_back(p->grad);
    return s;
}

StepBits
model_step(compute::GnnModel &model, const sample::SampledSubgraph &sg,
           const Tensor &input, const Tensor &grad_logits)
{
    model.zero_grad();
    StepBits s;
    s.out = model.forward(sg, input);
    model.backward(sg, grad_logits);
    for (compute::Parameter *p : model.parameters())
        s.param_grads.push_back(p->grad);
    return s;
}

void
expect_same_bits(const StepBits &want, const StepBits &got,
                 const std::string &where)
{
    EXPECT_TRUE(bitwise_equal(want.out, got.out)) << where << " output";
    EXPECT_TRUE(bitwise_equal(want.grad_input, got.grad_input))
        << where << " input gradient";
    ASSERT_EQ(want.param_grads.size(), got.param_grads.size()) << where;
    for (size_t i = 0; i < want.param_grads.size(); ++i)
        EXPECT_TRUE(bitwise_equal(want.param_grads[i], got.param_grads[i]))
            << where << " parameter " << i;
}

/**
 * Layers reshape the tensors they keep in place from step to step, so
 * a step after a larger one runs over stale storage. On a sampled
 * block, then a smaller one, then a larger one, one layer object and
 * one GnnModel must give the bits a freshly built one gives.
 */
TEST(ComputeKernels, ReusedLayerStorageMatchesFreshLayersBitwise)
{
    constexpr int64_t kIn = 12;
    const graph::CsrGraph g = graph::generate_ring(400, 6, 3);
    const std::vector<std::vector<graph::NodeId>> seed_sets = {
        {1, 50, 99, 150, 200, 260},
        {7, 300},
        {2, 40, 80, 120, 160, 210, 240, 280, 330, 390}};
    for (const compute::ModelType type :
         {compute::ModelType::kGcn, compute::ModelType::kGin,
          compute::ModelType::kGat}) {
        compute::ModelConfig cfg;
        cfg.type = type;
        cfg.in_dim = kIn;
        cfg.hidden_dim = 16;
        cfg.num_classes = 5;
        cfg.num_layers = 2;
        cfg.gat_heads = 2;
        cfg.gat_head_dim = 4;
        auto make_layer = [&]() -> std::unique_ptr<compute::GnnLayer> {
            util::Rng rng(808);
            switch (type) {
              case compute::ModelType::kGcn:
                return std::make_unique<compute::GcnLayer>(kIn, 8, true,
                                                           rng);
              case compute::ModelType::kGin:
                return std::make_unique<compute::GinLayer>(kIn, 8, true,
                                                           rng);
              case compute::ModelType::kGat:
                return std::make_unique<compute::GatLayer>(kIn, 2, 4,
                                                           true, rng);
            }
            return nullptr;
        };
        for (const int width : {1, 4}) {
            KernelEngine engine(width);
            const std::unique_ptr<compute::GnnLayer> layer = make_layer();
            layer->set_engine(&engine);
            compute::GnnModel model(cfg);
            model.set_engine(&engine);
            sample::NeighborSamplerOptions one_hop;
            one_hop.fanouts = {4};
            one_hop.seed = 5;
            sample::NeighborSampler layer_sampler(g, one_hop);
            sample::NeighborSamplerOptions two_hop;
            two_hop.fanouts = {3, 4};
            two_hop.seed = 6;
            sample::NeighborSampler model_sampler(g, two_hop);
            for (size_t step = 0; step < seed_sets.size(); ++step) {
                const std::string where =
                    std::string(compute::model_type_name(type)) +
                    " width " + std::to_string(width) + " step " +
                    std::to_string(step);
                util::Rng drng(909 + step);

                const sample::SampledSubgraph one =
                    layer_sampler.sample(seed_sets[step]);
                const sample::LayerBlock &blk = one.blocks[0];
                const Tensor input =
                    Tensor::randn(one.num_nodes(), kIn, drng, 1.0f);
                const Tensor grad_out = Tensor::randn(
                    blk.num_targets(), layer->out_dim(), drng, 1.0f);
                const std::unique_ptr<compute::GnnLayer> fresh =
                    make_layer();
                fresh->set_engine(&engine);
                expect_same_bits(
                    layer_step(*fresh, blk, input, grad_out),
                    layer_step(*layer, blk, input, grad_out),
                    where + " layer");

                const sample::SampledSubgraph two =
                    model_sampler.sample(seed_sets[step]);
                const Tensor x =
                    Tensor::randn(two.num_nodes(), kIn, drng, 1.0f);
                const Tensor grad_logits = Tensor::randn(
                    two.num_seeds, cfg.num_classes, drng, 1.0f);
                compute::GnnModel fresh_model(cfg);
                fresh_model.set_engine(&engine);
                expect_same_bits(
                    model_step(fresh_model, two, x, grad_logits),
                    model_step(model, two, x, grad_logits),
                    where + " model");
            }
        }
    }
}

// ------------------------------------------------------------- stats

TEST(ComputeKernels, EngineRecordsMeasuredCounters)
{
    util::Rng rng(20);
    KernelEngine engine(2);
    const Tensor a = Tensor::randn(32, 16, rng, 1.0f);
    const Tensor b = Tensor::randn(16, 24, rng, 1.0f);
    Tensor c(32, 24);
    engine.gemm(a, b, c);
    EXPECT_EQ(engine.stats().gemm_calls, 1);
    EXPECT_DOUBLE_EQ(engine.stats().gemm_flops, 2.0 * 32 * 16 * 24);
    EXPECT_EQ(engine.stats().gemm_skip_calls, 0);

    // Only a B holding Inf or NaN runs the zero-skip select body.
    Tensor b_inf = b;
    b_inf.at(3, 5) = std::numeric_limits<float>::infinity();
    engine.gemm(a, b_inf, c);
    EXPECT_EQ(engine.stats().gemm_calls, 2);
    EXPECT_EQ(engine.stats().gemm_skip_calls, 1);
    // gemm_tb has no zero-skip, whatever B holds.
    Tensor bt_inf = Tensor::randn(24, 16, rng, 1.0f);
    bt_inf.at(2, 3) = std::numeric_limits<float>::infinity();
    engine.gemm_tb(a, bt_inf, c);
    EXPECT_EQ(engine.stats().gemm_skip_calls, 1);

    const sample::LayerBlock blk = small_block();
    const Tensor in = Tensor::randn(6, 8, rng, 1.0f);
    std::vector<float> w(static_cast<size_t>(blk.num_edges()), 1.0f);
    Tensor out(blk.num_targets(), 8);
    engine.aggregate_forward(blk, w, in, out);
    EXPECT_EQ(engine.stats().agg_calls, 1);
    EXPECT_EQ(engine.stats().agg_edges, blk.num_edges());
    EXPECT_GT(engine.stats().agg_bytes, 0u);
    EXPECT_GT(engine.stats().agg_bytes_per_edge(), 0.0);

    engine.reset_stats();
    EXPECT_EQ(engine.stats().gemm_calls, 0);
    EXPECT_EQ(engine.stats().gemm_skip_calls, 0);
}

TEST(ComputeKernels, ParallelRowsCoversEveryRowExactlyOnce)
{
    KernelEngine engine(8);
    std::vector<int> hits(1000, 0);
    engine.parallel_rows(1000, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            ++hits[static_cast<size_t>(i)]; // disjoint chunks: no race
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
    // Degenerate counts.
    engine.parallel_rows(0, [&](int64_t, int64_t) { FAIL(); });
}

} // namespace
} // namespace fastgl
