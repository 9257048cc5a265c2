/**
 * @file
 * Tests for the loss and the stacked GnnModel: shapes, loss gradient
 * correctness, and a tiny overfitting run per model type.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "compute/gat_layer.h"
#include "compute/gcn_layer.h"
#include "compute/gin_layer.h"
#include "compute/gnn_model.h"
#include "compute/loss.h"
#include "compute/optimizer.h"
#include "graph/generators.h"
#include "sample/neighbor_sampler.h"
#include "util/rng.h"

namespace fastgl {
namespace {

using compute::Tensor;

TEST(Loss, UniformLogitsGiveLogC)
{
    Tensor logits(4, 8); // all zeros -> uniform distribution
    std::vector<int> labels = {0, 1, 2, 3};
    const auto result = compute::softmax_cross_entropy(logits, labels);
    EXPECT_NEAR(result.loss, std::log(8.0), 1e-5);
}

TEST(Loss, PerfectPredictionHasLowLossHighAccuracy)
{
    Tensor logits(3, 4);
    std::vector<int> labels = {1, 2, 0};
    for (int64_t r = 0; r < 3; ++r)
        logits.at(r, labels[size_t(r)]) = 20.0f;
    const auto result = compute::softmax_cross_entropy(logits, labels);
    EXPECT_LT(result.loss, 1e-4);
    EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
}

TEST(Loss, GradientMatchesFiniteDifferences)
{
    util::Rng rng(8);
    Tensor logits = Tensor::randn(3, 5, rng, 1.0f);
    std::vector<int> labels = {4, 0, 2};
    const auto base = compute::softmax_cross_entropy(logits, labels);

    constexpr float kEps = 1e-3f;
    for (int64_t r = 0; r < 3; ++r) {
        for (int64_t c = 0; c < 5; ++c) {
            const float saved = logits.at(r, c);
            logits.at(r, c) = saved + kEps;
            const double up =
                compute::softmax_cross_entropy(logits, labels).loss;
            logits.at(r, c) = saved - kEps;
            const double down =
                compute::softmax_cross_entropy(logits, labels).loss;
            logits.at(r, c) = saved;
            const double numeric = (up - down) / (2.0 * kEps);
            EXPECT_NEAR(base.grad_logits.at(r, c), numeric, 1e-3);
        }
    }
}

TEST(Loss, GradientRowsSumToZero)
{
    // softmax-CE gradient rows sum to zero (probabilities minus onehot).
    util::Rng rng(9);
    Tensor logits = Tensor::randn(6, 7, rng, 2.0f);
    std::vector<int> labels = {0, 1, 2, 3, 4, 5};
    const auto result = compute::softmax_cross_entropy(logits, labels);
    for (int64_t r = 0; r < 6; ++r) {
        double s = 0.0;
        for (int64_t c = 0; c < 7; ++c)
            s += result.grad_logits.at(r, c);
        EXPECT_NEAR(s, 0.0, 1e-5);
    }
}

TEST(ModelTypeName, Printable)
{
    EXPECT_STREQ(compute::model_type_name(compute::ModelType::kGcn),
                 "GCN");
    EXPECT_STREQ(compute::model_type_name(compute::ModelType::kGin),
                 "GIN");
    EXPECT_STREQ(compute::model_type_name(compute::ModelType::kGat),
                 "GAT");
}

class ModelStack : public ::testing::TestWithParam<compute::ModelType>
{
};

TEST_P(ModelStack, ForwardProducesSeedLogits)
{
    graph::CsrGraph g = graph::generate_ring(500, 4, 1);
    sample::NeighborSamplerOptions sopts;
    sopts.fanouts = {3, 4};
    sopts.seed = 2;
    sample::NeighborSampler sampler(g, sopts);
    std::vector<graph::NodeId> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    const auto sg = sampler.sample(seeds);

    compute::ModelConfig cfg;
    cfg.type = GetParam();
    cfg.in_dim = 12;
    cfg.hidden_dim = 16;
    cfg.num_classes = 5;
    cfg.num_layers = 2;
    compute::GnnModel model(cfg);

    util::Rng rng(3);
    Tensor x = Tensor::randn(sg.num_nodes(), 12, rng, 0.5f);
    Tensor logits = model.forward(sg, x);
    EXPECT_EQ(logits.rows(), sg.num_seeds);
    EXPECT_EQ(logits.cols(), 5);
    EXPECT_FALSE(model.parameters().empty());
    EXPECT_GT(model.param_bytes(), 0u);
}

TEST_P(ModelStack, OverfitsTinyProblem)
{
    // End-to-end learning sanity: loss must drop substantially when
    // training repeatedly on one small batch.
    graph::CsrGraph g = graph::generate_ring(200, 3, 7);
    sample::NeighborSamplerOptions sopts;
    sopts.fanouts = {3, 3};
    sopts.seed = 4;
    sample::NeighborSampler sampler(g, sopts);
    std::vector<graph::NodeId> seeds = {10, 20, 30, 40};
    const auto sg = sampler.sample(seeds);

    compute::ModelConfig cfg;
    cfg.type = GetParam();
    cfg.in_dim = 8;
    cfg.hidden_dim = 16;
    cfg.num_classes = 3;
    cfg.num_layers = 2;
    cfg.seed = 11;
    compute::GnnModel model(cfg);
    compute::Adam optimizer(0.02f);

    util::Rng rng(5);
    Tensor x = Tensor::randn(sg.num_nodes(), 8, rng, 1.0f);
    std::vector<int> labels = {0, 1, 2, 1};

    double first = 0.0, last = 0.0;
    for (int step = 0; step < 60; ++step) {
        Tensor logits = model.forward(sg, x);
        const auto loss = compute::softmax_cross_entropy(logits, labels);
        if (step == 0)
            first = loss.loss;
        last = loss.loss;
        model.zero_grad();
        model.backward(sg, loss.grad_logits);
        optimizer.step(model.parameters());
    }
    EXPECT_LT(last, 0.5 * first)
        << "no learning: first=" << first << " last=" << last;
}

TEST_P(ModelStack, BackwardMatchesFullInputGradientLoopBitwise)
{
    // GnnModel::backward skips the input-side layer's input gradient.
    // Its parameter gradients must equal those of a per-layer loop that
    // asks every layer for its full input gradient.
    graph::CsrGraph g = graph::generate_ring(500, 4, 1);
    sample::NeighborSamplerOptions sopts;
    sopts.fanouts = {3, 4, 2};
    sopts.seed = 2;
    sample::NeighborSampler sampler(g, sopts);
    std::vector<graph::NodeId> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    const auto sg = sampler.sample(seeds);

    compute::ModelConfig cfg;
    cfg.type = GetParam();
    cfg.in_dim = 12;
    cfg.hidden_dim = 16;
    cfg.num_classes = 5;
    cfg.num_layers = 3;
    cfg.gat_heads = 2;
    cfg.gat_head_dim = 4;
    compute::GnnModel model(cfg);

    // The same layers, built in GnnModel's order from the same seed.
    util::Rng init(cfg.seed);
    const auto dims = model.layer_dims();
    std::vector<std::unique_ptr<compute::GnnLayer>> layers;
    for (int l = 0; l < cfg.num_layers; ++l) {
        const bool hidden = l + 1 < cfg.num_layers;
        const int64_t in = dims[size_t(l)].first;
        const int64_t out = hidden ? cfg.hidden_dim : cfg.num_classes;
        switch (cfg.type) {
          case compute::ModelType::kGcn:
            layers.push_back(
                std::make_unique<compute::GcnLayer>(in, out, hidden, init));
            break;
          case compute::ModelType::kGin:
            layers.push_back(
                std::make_unique<compute::GinLayer>(in, out, hidden, init));
            break;
          case compute::ModelType::kGat:
            layers.push_back(std::make_unique<compute::GatLayer>(
                in, hidden ? cfg.gat_heads : 1,
                hidden ? cfg.gat_head_dim : cfg.num_classes, hidden,
                init));
            break;
        }
    }
    std::vector<compute::Parameter *> loop_params;
    for (auto &layer : layers)
        for (compute::Parameter *p : layer->parameters())
            loop_params.push_back(p);
    const auto model_params = model.parameters();
    ASSERT_EQ(loop_params.size(), model_params.size());
    auto same_bits = [](const Tensor &a, const Tensor &b) {
        return a.same_shape(b) &&
               std::memcmp(a.data(), b.data(),
                           size_t(a.numel()) * sizeof(float)) == 0;
    };
    for (size_t i = 0; i < loop_params.size(); ++i)
        ASSERT_TRUE(same_bits(model_params[i]->value,
                              loop_params[i]->value))
            << "initial parameter " << i;

    util::Rng rng(3);
    const Tensor x = Tensor::randn(sg.num_nodes(), cfg.in_dim, rng, 0.5f);
    std::vector<int> labels;
    for (int64_t i = 0; i < sg.num_seeds; ++i)
        labels.push_back(int(i % cfg.num_classes));

    const auto loss =
        compute::softmax_cross_entropy(model.forward(sg, x), labels);
    model.zero_grad();
    model.backward(sg, loss.grad_logits);

    const size_t n = layers.size();
    Tensor h = x;
    for (size_t l = 0; l < n; ++l)
        h = layers[l]->forward(sg.blocks[n - 1 - l], h);
    const auto loop_loss = compute::softmax_cross_entropy(h, labels);
    ASSERT_TRUE(same_bits(loss.grad_logits, loop_loss.grad_logits));
    for (compute::Parameter *p : loop_params)
        p->zero_grad();
    Tensor grad = loop_loss.grad_logits;
    for (size_t l = n; l-- > 0;)
        grad = layers[l]->backward(sg.blocks[n - 1 - l], grad);
    EXPECT_EQ(grad.rows(), sg.num_nodes());

    for (size_t i = 0; i < loop_params.size(); ++i)
        EXPECT_TRUE(
            same_bits(model_params[i]->grad, loop_params[i]->grad))
            << "parameter " << i;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelStack,
                         ::testing::Values(compute::ModelType::kGcn,
                                           compute::ModelType::kGin,
                                           compute::ModelType::kGat),
                         [](const auto &info) {
                             return compute::model_type_name(info.param);
                         });

TEST(ModelStack, LayerDimsChainCorrectly)
{
    compute::ModelConfig cfg;
    cfg.type = compute::ModelType::kGcn;
    cfg.in_dim = 100;
    cfg.hidden_dim = 64;
    cfg.num_classes = 10;
    cfg.num_layers = 3;
    compute::GnnModel model(cfg);
    const auto dims = model.layer_dims();
    ASSERT_EQ(dims.size(), 3u);
    EXPECT_EQ(dims[0], std::make_pair(int64_t(100), int64_t(64)));
    EXPECT_EQ(dims[1], std::make_pair(int64_t(64), int64_t(64)));
    EXPECT_EQ(dims[2], std::make_pair(int64_t(64), int64_t(10)));
}

TEST(ModelStack, GatHiddenDimIsHeadsTimesHeadDim)
{
    compute::ModelConfig cfg;
    cfg.type = compute::ModelType::kGat;
    cfg.in_dim = 32;
    cfg.num_classes = 6;
    cfg.num_layers = 2;
    cfg.gat_heads = 8;
    cfg.gat_head_dim = 8;
    compute::GnnModel model(cfg);
    const auto dims = model.layer_dims();
    EXPECT_EQ(dims[0].second, 64);
    EXPECT_EQ(dims[1].first, 64);
    EXPECT_EQ(dims[1].second, 6);
}

} // namespace
} // namespace fastgl
