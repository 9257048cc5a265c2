#include "compute/gin_layer.h"

#include <cmath>

#include "compute/aggregate.h"
#include "compute/ops.h"
#include "util/logging.h"

namespace fastgl {
namespace compute {

GinLayer::GinLayer(int64_t in_dim, int64_t out_dim, bool apply_final_relu,
                   util::Rng &rng)
    : in_dim_(in_dim),
      hidden_dim_(out_dim),
      out_dim_(out_dim),
      apply_final_relu_(apply_final_relu)
{
    const float s1 =
        std::sqrt(2.0f / static_cast<float>(in_dim + hidden_dim_));
    const float s2 =
        std::sqrt(2.0f / static_cast<float>(hidden_dim_ + out_dim));
    w1_ = Parameter(Tensor::randn(in_dim, hidden_dim_, rng, s1));
    b1_ = Parameter(Tensor::zeros(1, hidden_dim_));
    w2_ = Parameter(Tensor::randn(hidden_dim_, out_dim, rng, s2));
    b2_ = Parameter(Tensor::zeros(1, out_dim));
}

const Tensor &
GinLayer::forward(const sample::LayerBlock &block, const Tensor &input)
{
    FASTGL_CHECK(input.cols() == in_dim_, "gin input dim mismatch");
    input_rows_ = input.rows();
    edge_weights_ = unit_edge_weights(block);

    // Every kernel below overwrites its whole output, so no tensor is
    // zero-filled first.
    aggregated_.reshape(block.num_targets(), in_dim_);
    engine_->aggregate_forward(block, edge_weights_, input, aggregated_);

    // Both MLP linears run as fused gemm + bias (+ ReLU) passes.
    hidden_.reshape(block.num_targets(), hidden_dim_);
    engine_->gemm_fused(aggregated_, w1_.value, &b1_.value,
                        Activation::kRelu, 0.0f, hidden_);

    output_.reshape(block.num_targets(), out_dim_);
    engine_->gemm_fused(hidden_, w2_.value, &b2_.value,
                        apply_final_relu_ ? Activation::kRelu
                                          : Activation::kNone,
                        0.0f, output_);
    return output_;
}

Tensor
GinLayer::backward_impl(const sample::LayerBlock &block, Tensor &grad,
                        bool need_input_grad)
{
    // Second linear: fused final-ReLU mask + bias column sums.
    Tensor grad_b2(1, out_dim_);
    engine_->activation_bias_backward(
        output_,
        apply_final_relu_ ? Activation::kRelu : Activation::kNone, 0.0f,
        grad, &grad_b2);
    b2_.grad.add_scaled(grad_b2, 1.0f);

    Tensor grad_w2(hidden_dim_, out_dim_);
    engine_->gemm_ta(hidden_, grad, grad_w2);
    w2_.grad.add_scaled(grad_w2, 1.0f);

    // First linear: the hidden ReLU mask and b1's column sums fuse the
    // same way.
    grad_hidden_.reshape(block.num_targets(), hidden_dim_);
    engine_->gemm_tb(grad, w2_.value, grad_hidden_);
    Tensor grad_b1(1, hidden_dim_);
    engine_->activation_bias_backward(hidden_, Activation::kRelu, 0.0f,
                                      grad_hidden_, &grad_b1);
    b1_.grad.add_scaled(grad_b1, 1.0f);

    Tensor grad_w1(in_dim_, hidden_dim_);
    engine_->gemm_ta(aggregated_, grad_hidden_, grad_w1);
    w1_.grad.add_scaled(grad_w1, 1.0f);

    if (!need_input_grad)
        return Tensor();

    grad_agg_.reshape(block.num_targets(), in_dim_);
    engine_->gemm_tb(grad_hidden_, w1_.value, grad_agg_);

    // Zero-filled: aggregate_backward accumulates into it.
    Tensor grad_input(input_rows_, in_dim_);
    engine_->aggregate_backward(block, edge_weights_, grad_agg_,
                                grad_input);
    return grad_input;
}

std::vector<Parameter *>
GinLayer::parameters()
{
    return {&w1_, &b1_, &w2_, &b2_};
}

} // namespace compute
} // namespace fastgl
