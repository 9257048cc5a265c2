/**
 * @file
 * Extension study: training-quality vs sampling-cost trade-off across
 * the four sampling families the library implements (k-hop neighbour,
 * layer-wise importance, GraphSAINT node-induced, ClusterGCN partition).
 * All four feed the same GCN through the same public API — the point of
 * FastGL's sampler-agnostic design (paper Section 7).
 *
 * Reported per sampler: final loss/accuracy after a fixed number of
 * real training steps, plus the measured sampled-instance volume (the
 * quantity the sample phase and ID map pay for).
 */
#include <cstdio>
#include <functional>

#include "fastgl.h"
#include "sample/cluster_sampler.h"
#include "sample/layer_sampler.h"
#include "sample/saint_sampler.h"

namespace {

using namespace fastgl;

struct QualityResult
{
    double final_loss = 0.0;
    double final_accuracy = 0.0;
    int64_t instances = 0;
    int64_t unique_nodes = 0;
};

/** Train a fresh 2-layer GCN for @p steps batches drawn by @p draw. */
QualityResult
train_with(const graph::Dataset &ds,
           const std::function<sample::SampledSubgraph()> &draw,
           int steps)
{
    compute::ModelConfig cfg;
    cfg.in_dim = ds.features.dim();
    cfg.num_classes = ds.features.num_classes();
    cfg.hidden_dim = 64;
    cfg.num_layers = 2;
    cfg.seed = 1234;
    compute::GnnModel model(cfg);
    compute::Adam optimizer(5e-3f);

    QualityResult result;
    double loss_acc = 0.0, acc_acc = 0.0;
    int tail = 0;
    for (int step = 0; step < steps; ++step) {
        const sample::SampledSubgraph sg = draw();
        result.instances += sg.instances;
        result.unique_nodes += sg.num_nodes();

        compute::Tensor x(sg.num_nodes(), ds.features.dim());
        ds.features.gather_rows(sg.nodes, x.data());
        compute::Tensor logits = model.forward(sg, x);
        std::vector<int> labels(size_t(sg.num_seeds));
        for (int64_t i = 0; i < sg.num_seeds; ++i)
            labels[size_t(i)] = ds.features.label(sg.nodes[size_t(i)]);
        const auto loss = compute::softmax_cross_entropy(logits, labels);
        model.zero_grad();
        model.backward(sg, loss.grad_logits);
        optimizer.step(model.parameters());

        // Average quality over the last quarter of training.
        if (step >= steps * 3 / 4) {
            loss_acc += loss.loss;
            acc_acc += loss.accuracy;
            ++tail;
        }
    }
    result.final_loss = loss_acc / double(std::max(1, tail));
    result.final_accuracy = acc_acc / double(std::max(1, tail));
    return result;
}

} // namespace

int
main()
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.4;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);
    constexpr int kSteps = 40;

    sample::BatchSplitter splitter(ds.train_nodes, ds.batch_size, 21);
    splitter.shuffle_epoch();
    int64_t cursor = 0;
    auto next_seeds = [&]() {
        const auto batch = splitter.batch(cursor);
        cursor = (cursor + 1) % splitter.num_batches();
        if (cursor == 0)
            splitter.shuffle_epoch();
        return batch;
    };

    util::TextTable table(
        "Extension — sampler quality vs cost (2-layer GCN, Products "
        "replica, 40 steps)");
    table.set_header({"sampler", "final loss", "final acc",
                      "instances/step", "unique nodes/step"});

    auto report = [&](const char *name, const QualityResult &r) {
        table.add_row({name, util::TextTable::num(r.final_loss, 4),
                       util::TextTable::num(r.final_accuracy, 3),
                       util::human_count(double(r.instances) / kSteps),
                       util::human_count(double(r.unique_nodes) /
                                         kSteps)});
    };

    {
        sample::NeighborSamplerOptions opts;
        opts.fanouts = {10, 15};
        opts.seed = 31;
        sample::NeighborSampler sampler(ds.graph, opts);
        report("k-hop [10,15]",
               train_with(ds, [&] { return sampler.sample(next_seeds()); },
                          kSteps));
    }
    {
        cursor = 0;
        sample::LayerSamplerOptions opts;
        opts.layer_sizes = {2048, 1024};
        opts.seed = 32;
        sample::LayerSampler sampler(ds.graph, opts);
        report("layer-wise [2048,1024]",
               train_with(ds, [&] { return sampler.sample(next_seeds()); },
                          kSteps));
    }
    {
        sample::SaintSamplerOptions opts;
        opts.budget = 2000;
        opts.num_layers = 2;
        opts.seed = 33;
        sample::SaintSampler sampler(ds.graph, opts);
        report("GraphSAINT node (2000)",
               train_with(ds, [&] { return sampler.sample(); }, kSteps));
    }
    {
        sample::ClusterSamplerOptions opts;
        opts.num_parts = 24;
        opts.parts_per_batch = 2;
        opts.num_layers = 2;
        opts.seed = 34;
        sample::ClusterSampler sampler(ds.graph, opts);
        report("ClusterGCN (2/24)",
               train_with(ds, [&] { return sampler.sample(); }, kSteps));
    }
    table.print();
    std::printf("\nAll samplers train through the identical GnnModel "
                "API; the ID-map and Match mechanisms apply to each "
                "(paper Section 7).\n");
    return 0;
}
