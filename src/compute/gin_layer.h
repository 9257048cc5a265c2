/**
 * @file
 * Graph Isomorphism Network layer (Xu et al.): sum aggregation followed by
 * a two-layer MLP, the second benchmark model in the paper's evaluation.
 */
#pragma once

#include "compute/gnn_layer.h"
#include "util/rng.h"

namespace fastgl {
namespace compute {

/**
 * One GIN layer: out = act( MLP( (1+eps)*x_u + Σ_v x_v ) ).
 * The sampler's self edge supplies the x_u term; eps starts at 0 and is
 * treated as a fixed hyperparameter (GIN-0), as common in practice.
 */
class GinLayer : public GnnLayer
{
  public:
    GinLayer(int64_t in_dim, int64_t out_dim, bool apply_final_relu,
             util::Rng &rng);

    Tensor forward(const sample::LayerBlock &block,
                   const Tensor &input) override;
    std::vector<Parameter *> parameters() override;

    int64_t in_dim() const override { return in_dim_; }
    int64_t out_dim() const override { return out_dim_; }
    std::string name() const override { return "gin"; }

  protected:
    Tensor backward_impl(const sample::LayerBlock &block,
                         const Tensor &grad_output,
                         bool need_input_grad) override;

  private:
    int64_t in_dim_;
    int64_t hidden_dim_;
    int64_t out_dim_;
    bool apply_final_relu_;
    Parameter w1_; ///< [in_dim x hidden]
    Parameter b1_; ///< [1 x hidden]
    Parameter w2_; ///< [hidden x out]
    Parameter b2_; ///< [1 x out]

    // Forward context.
    std::vector<float> edge_weights_;
    Tensor aggregated_; ///< [targets x in_dim]
    Tensor hidden_;     ///< post-ReLU MLP hidden activations
    Tensor output_;
    int64_t input_rows_ = 0;
};

} // namespace compute
} // namespace fastgl
