/**
 * @file
 * Web-scale recommendation a la PinSAGE (paper Sections 6.3/7): random
 * walks define item neighbourhoods on a co-interaction graph; a GAT
 * ranks item embeddings. Demonstrates the RandomWalkSampler, the
 * Match-Reorder strategy under a non-k-hop sampling algorithm (paper
 * Table 7), and single-block GAT training.
 */
#include <cstdio>

#include "fastgl.h"

int
main()
{
    using namespace fastgl;

    // ---- Item co-interaction graph (R-MAT: strong popularity skew) ----
    graph::RmatParams gen;
    gen.num_nodes = 20000;
    gen.num_edges = 400000;
    gen.a = 0.6;
    gen.b = gen.c = (1.0 - gen.a) / 3.0;
    gen.seed = 41;
    graph::CsrGraph items = graph::generate_rmat(gen);
    std::printf("Item graph: %lld items, %lld co-interactions\n",
                (long long)items.num_nodes(),
                (long long)items.num_edges());

    graph::Dataset ds;
    ds.id = graph::DatasetId::kProducts;
    ds.name = "items-20k";
    ds.graph = std::move(items);
    ds.features = graph::FeatureStore(20000, 128, 24, 9); // 24 categories
    ds.batch_size = 200;
    ds.scale = 20000.0 / 2449029.0;
    for (graph::NodeId u = 0; u < 20000; u += 4)
        ds.train_nodes.push_back(u);

    // ---- Walk-defined neighbourhoods ----
    sample::RandomWalkOptions wopts;
    wopts.walk_length = 3; // PinSAGE's setting
    wopts.num_walks = 20;
    wopts.top_k = 20;
    wopts.seed = 3;
    sample::RandomWalkSampler sampler(ds.graph, wopts);
    sample::BatchSplitter splitter(ds.train_nodes, ds.batch_size, 8);
    splitter.shuffle_epoch();

    const auto first = sampler.sample(splitter.batch(0));
    std::printf("\nWalk neighbourhood of batch 0: %lld unique items, "
                "%lld edges (%.1f per seed)\n",
                (long long)first.num_nodes(),
                (long long)first.blocks[0].num_edges(),
                first.blocks[0].avg_degree());

    // ---- Match across consecutive walk batches (Table 7's effect) ----
    match::Matcher matcher;
    std::printf("\nMatch process across the first 5 walk batches:\n");
    for (int64_t b = 0; b < std::min<int64_t>(5, splitter.num_batches());
         ++b) {
        const auto sg = sampler.sample(splitter.batch(b));
        const auto plan = matcher.plan(match::NodeSet(sg.nodes));
        std::printf("  batch %lld: %5lld nodes, load %5lld, reuse %5lld "
                    "(%.0f%%)\n",
                    (long long)b, (long long)sg.num_nodes(),
                    (long long)plan.load_count(),
                    (long long)plan.overlap_nodes,
                    100.0 * double(plan.overlap_nodes) /
                        double(sg.num_nodes()));
    }

    // ---- Train a single-layer GAT ranker on walk neighbourhoods ----
    std::printf("\nTraining 1-layer GAT (8 heads x 8) on walk "
                "neighbourhoods:\n");
    compute::ModelConfig mcfg;
    mcfg.type = compute::ModelType::kGat;
    mcfg.in_dim = ds.features.dim();
    mcfg.num_classes = ds.features.num_classes();
    mcfg.num_layers = 1;
    mcfg.seed = 21;
    compute::GnnModel model(mcfg);
    compute::Adam optimizer(3e-3f);

    for (int epoch = 0; epoch < 3; ++epoch) {
        splitter.shuffle_epoch();
        double loss_sum = 0.0, acc_sum = 0.0;
        const int64_t batches =
            std::min<int64_t>(8, splitter.num_batches());
        for (int64_t b = 0; b < batches; ++b) {
            const auto sg = sampler.sample(splitter.batch(b));
            compute::Tensor x(sg.num_nodes(), ds.features.dim());
            ds.features.gather_rows(sg.nodes, x.data());
            compute::Tensor logits = model.forward(sg, x);
            std::vector<int> labels(size_t(sg.num_seeds));
            for (int64_t i = 0; i < sg.num_seeds; ++i)
                labels[size_t(i)] =
                    ds.features.label(sg.nodes[size_t(i)]);
            const auto loss =
                compute::softmax_cross_entropy(logits, labels);
            model.zero_grad();
            model.backward(sg, loss.grad_logits);
            optimizer.step(model.parameters());
            loss_sum += loss.loss;
            acc_sum += loss.accuracy;
        }
        std::printf("  epoch %d: loss %.4f, acc %.3f\n", epoch,
                    loss_sum / double(batches),
                    acc_sum / double(batches));
    }
    return 0;
}
