/**
 * @file
 * Graph Attention Network layer (Velickovic et al.), the paper's third
 * benchmark model: 8 heads of 8 dimensions each in the evaluation setup.
 *
 * Attention coefficients are learned per edge, which makes GAT the
 * stress-test for the aggregation kernels: edge weights are no longer
 * constants, so both the weight reads and the weight *gradients* hit the
 * irregular memory path the Memory-Aware technique optimises.
 */
#pragma once

#include "compute/gnn_layer.h"
#include "util/rng.h"

namespace fastgl {
namespace compute {

/** One multi-head GAT layer with ELU output activation. */
class GatLayer : public GnnLayer
{
  public:
    /**
     * @param in_dim      input dimension
     * @param num_heads   attention heads (paper: 8)
     * @param head_dim    per-head dimension (paper: 8)
     * @param apply_elu   apply the ELU activation (hidden layers)
     * @param rng         weight init source
     */
    GatLayer(int64_t in_dim, int num_heads, int64_t head_dim,
             bool apply_elu, util::Rng &rng);

    Tensor forward(const sample::LayerBlock &block,
                   const Tensor &input) override;
    std::vector<Parameter *> parameters() override;

    int64_t in_dim() const override { return in_dim_; }
    int64_t out_dim() const override { return num_heads_ * head_dim_; }
    std::string name() const override { return "gat"; }

    int num_heads() const { return num_heads_; }

  protected:
    Tensor backward_impl(const sample::LayerBlock &block,
                         const Tensor &grad_output,
                         bool need_input_grad) override;

  private:
    static constexpr float kLeakySlope = 0.2f;

    int64_t in_dim_;
    int num_heads_;
    int64_t head_dim_;
    bool apply_elu_;
    Parameter weight_; ///< [in_dim x heads*head_dim]
    Parameter attn_l_; ///< [heads x head_dim]
    Parameter attn_r_; ///< [heads x head_dim]

    // Forward context.
    Tensor saved_input_; ///< forward input (needed for grad_W)
    Tensor projected_;  ///< Z = input * W, [src_rows x heads*head_dim]
    Tensor pre_scores_; ///< pre-activation edge scores [edges x heads]
    Tensor alpha_;      ///< attention coefficients [edges x heads]
    Tensor output_;     ///< post-ELU output
    int64_t input_rows_ = 0;
};

} // namespace compute
} // namespace fastgl
