#include "compute/gcn_layer.h"

#include <cmath>

#include "compute/aggregate.h"
#include "compute/ops.h"
#include "util/logging.h"

namespace fastgl {
namespace compute {

GcnLayer::GcnLayer(int64_t in_dim, int64_t out_dim, bool apply_relu,
                   util::Rng &rng)
    : in_dim_(in_dim), out_dim_(out_dim), apply_relu_(apply_relu)
{
    const float scale =
        std::sqrt(2.0f / static_cast<float>(in_dim + out_dim));
    weight_ = Parameter(Tensor::randn(in_dim, out_dim, rng, scale));
    bias_ = Parameter(Tensor::zeros(1, out_dim));
}

Tensor
GcnLayer::forward(const sample::LayerBlock &block, const Tensor &input)
{
    FASTGL_CHECK(input.cols() == in_dim_, "gcn input dim mismatch");
    input_rows_ = input.rows();
    edge_weights_ = gcn_edge_weights(block);

    aggregated_ = Tensor(block.num_targets(), in_dim_);
    engine_->aggregate_forward(block, edge_weights_, input, aggregated_);

    // Fused update: gemm + bias + (optional) ReLU in one pass.
    Tensor out(block.num_targets(), out_dim_);
    engine_->gemm_fused(aggregated_, weight_.value, &bias_.value,
                        apply_relu_ ? Activation::kRelu
                                    : Activation::kNone,
                        0.0f, out);
    output_ = out;
    return out;
}

Tensor
GcnLayer::backward_impl(const sample::LayerBlock &block,
                        const Tensor &grad_output, bool need_input_grad)
{
    // Fused ReLU mask + bias column sums, one pass over grad.
    Tensor grad = grad_output;
    Tensor grad_bias(1, out_dim_);
    engine_->activation_bias_backward(output_,
                                      apply_relu_ ? Activation::kRelu
                                                  : Activation::kNone,
                                      0.0f, grad, &grad_bias);
    bias_.grad.add_scaled(grad_bias, 1.0f);

    // Update-phase gradients (accumulated, as autograd engines do).
    Tensor grad_weight(in_dim_, out_dim_);
    engine_->gemm_ta(aggregated_, grad, grad_weight);
    weight_.grad.add_scaled(grad_weight, 1.0f);

    if (!need_input_grad)
        return Tensor();

    // Gradient w.r.t. the aggregated features, then Eq. 5 back through
    // the aggregation.
    Tensor grad_agg(block.num_targets(), in_dim_);
    engine_->gemm_tb(grad, weight_.value, grad_agg);

    Tensor grad_input(input_rows_, in_dim_);
    engine_->aggregate_backward(block, edge_weights_, grad_agg,
                                grad_input);
    return grad_input;
}

std::vector<Parameter *>
GcnLayer::parameters()
{
    return {&weight_, &bias_};
}

} // namespace compute
} // namespace fastgl
