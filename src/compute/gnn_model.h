/**
 * @file
 * Multi-layer GNN model assembled from GnnLayer blocks, executing over a
 * SampledSubgraph in the standard message-flow order: the layer nearest
 * the input features consumes the outermost sampled block.
 */
#pragma once

#include <memory>
#include <vector>

#include "compute/gnn_layer.h"
#include "sample/minibatch.h"

namespace fastgl {
namespace compute {

/** The three benchmark architectures of the paper's evaluation. */
enum class ModelType { kGcn, kGin, kGat };

/** Printable model name ("GCN", "GIN", "GAT"). */
const char *model_type_name(ModelType type);

/** Model hyperparameters (defaults follow the paper's Section 6.1). */
struct ModelConfig
{
    ModelType type = ModelType::kGcn;
    int64_t in_dim = 0;        ///< 0 = resolve from the dataset.
    int64_t hidden_dim = 64;   ///< Paper: 64 for GCN/GIN.
    int64_t num_classes = 0;   ///< 0 = resolve from the dataset.
    int num_layers = 3;        ///< Matches the 3-hop sampling.
    int gat_heads = 8;         ///< Paper: 8 heads...
    int64_t gat_head_dim = 8;  ///< ...of dimension 8.
    uint64_t seed = 7;
};

/** A stack of GNN layers with exact forward/backward. */
class GnnModel
{
  public:
    explicit GnnModel(const ModelConfig &config);

    /**
     * Forward pass: @p input_features holds one row per subgraph node
     * (local-ID order). Requires sg.blocks.size() == num_layers. The
     * input-side layer reads @p input_features in place (a view over a
     * gathered panel stays a view), and every layer keeps its output
     * for backward, so the next layer reads it in place. Only GAT
     * copies its input (docs/compute_kernels.md, "What forward keeps").
     * @return logits for the seed rows [sg.num_seeds x num_classes],
     *         a copy the caller owns.
     */
    Tensor forward(const sample::SampledSubgraph &sg,
                   const Tensor &input_features);

    /**
     * Backward from @p grad_logits; accumulates parameter grads. The
     * input features are leaves: no gradient is computed for them.
     * @p grad_logits is copied once; each layer's input gradient then
     * moves into the layer below, which masks it in place.
     */
    void backward(const sample::SampledSubgraph &sg,
                  const Tensor &grad_logits);

    /**
     * Run every layer's kernels on @p engine (non-owning; must outlive
     * the model). Null restores the shared sequential engine. Outputs
     * are bit-identical at any engine width.
     */
    void set_engine(KernelEngine *engine);

    /** All trainable parameters across layers. */
    std::vector<Parameter *> parameters();

    /** Zero every parameter gradient. */
    void zero_grad();

    /** Total trainable parameter bytes (drives the allreduce model). */
    uint64_t param_bytes();

    const ModelConfig &config() const { return config_; }

    /** (in_dim, out_dim) of each layer, input side first. */
    std::vector<std::pair<int64_t, int64_t>> layer_dims() const;

  private:
    ModelConfig config_;
    std::vector<std::unique_ptr<GnnLayer>> layers_;
};

} // namespace compute
} // namespace fastgl
