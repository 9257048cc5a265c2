#include "compute/gnn_model.h"

#include <utility>

#include "compute/gat_layer.h"
#include "compute/gcn_layer.h"
#include "compute/gin_layer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fastgl {
namespace compute {

const char *
model_type_name(ModelType type)
{
    switch (type) {
      case ModelType::kGcn: return "GCN";
      case ModelType::kGin: return "GIN";
      case ModelType::kGat: return "GAT";
    }
    return "?";
}

GnnModel::GnnModel(const ModelConfig &config) : config_(config)
{
    FASTGL_CHECK(config.num_layers >= 1, "need at least one layer");
    FASTGL_CHECK(config.in_dim > 0 && config.num_classes > 0,
                 "in_dim/num_classes must be resolved before building");
    util::Rng rng(config.seed);

    for (int l = 0; l < config.num_layers; ++l) {
        const bool is_output = (l == config.num_layers - 1);
        const int64_t in =
            (l == 0) ? config.in_dim
                     : (config.type == ModelType::kGat
                            ? int64_t(config.gat_heads) * config.gat_head_dim
                            : config.hidden_dim);
        switch (config.type) {
          case ModelType::kGcn:
            layers_.push_back(std::make_unique<GcnLayer>(
                in, is_output ? config.num_classes : config.hidden_dim,
                !is_output, rng));
            break;
          case ModelType::kGin:
            layers_.push_back(std::make_unique<GinLayer>(
                in, is_output ? config.num_classes : config.hidden_dim,
                !is_output, rng));
            break;
          case ModelType::kGat:
            if (is_output) {
                // Output layer: single head producing the class logits.
                layers_.push_back(std::make_unique<GatLayer>(
                    in, 1, config.num_classes, false, rng));
            } else {
                layers_.push_back(std::make_unique<GatLayer>(
                    in, config.gat_heads, config.gat_head_dim, true,
                    rng));
            }
            break;
        }
    }
}

Tensor
GnnModel::forward(const sample::SampledSubgraph &sg,
                  const Tensor &input_features)
{
    FASTGL_CHECK(int(sg.blocks.size()) == config_.num_layers,
                 "subgraph hop count != model layer count");
    FASTGL_CHECK(input_features.rows() == sg.num_nodes(),
                 "one feature row per subgraph node required");

    // Layer l consumes block[num_layers-1-l]: the outermost sampled block
    // feeds the input-side layer. Each layer reads its input where it
    // lies and keeps its output, so only the logits are copied.
    const Tensor *h = &input_features;
    for (size_t l = 0; l < layers_.size(); ++l) {
        const auto &block = sg.blocks[layers_.size() - 1 - l];
        h = &layers_[l]->forward(block, *h);
    }
    return *h;
}

void
GnnModel::backward(const sample::SampledSubgraph &sg,
                   const Tensor &grad_logits)
{
    // The input-side layer's input is the raw features, a leaf: its
    // gradient is never read, so layer 0 skips computing it. Each
    // gradient moves into the layer below, which masks it in place.
    Tensor grad = grad_logits;
    for (size_t l = layers_.size(); l-- > 0;) {
        const auto &block = sg.blocks[layers_.size() - 1 - l];
        grad = layers_[l]->backward(block, std::move(grad), l > 0);
    }
}

void
GnnModel::set_engine(KernelEngine *engine)
{
    for (auto &layer : layers_)
        layer->set_engine(engine);
}

std::vector<Parameter *>
GnnModel::parameters()
{
    std::vector<Parameter *> params;
    for (auto &layer : layers_) {
        for (Parameter *p : layer->parameters())
            params.push_back(p);
    }
    return params;
}

void
GnnModel::zero_grad()
{
    for (Parameter *p : parameters())
        p->zero_grad();
}

uint64_t
GnnModel::param_bytes()
{
    uint64_t bytes = 0;
    for (Parameter *p : parameters())
        bytes += static_cast<uint64_t>(p->numel()) * sizeof(float);
    return bytes;
}

std::vector<std::pair<int64_t, int64_t>>
GnnModel::layer_dims() const
{
    std::vector<std::pair<int64_t, int64_t>> dims;
    for (const auto &layer : layers_)
        dims.emplace_back(layer->in_dim(), layer->out_dim());
    return dims;
}

} // namespace compute
} // namespace fastgl
