/**
 * @file
 * Extension ablation: feature-cache policy comparison. The paper's
 * baselines differ here — PaGraph caches by out-degree, GNNLab by
 * presampled hotness (Section 2.3) — and the paper notes PaGraph's hit
 * rate collapses on MAG (<20%, Section 3.1). This bench measures both
 * policies' hit rates across datasets and cache sizes on real sampled
 * batches.
 */
#include <cstdio>

#include "fastgl.h"

namespace {

/** Hit fraction of @p rows lookups of which @p misses missed. */
double
hit_rate(int64_t rows, int64_t misses)
{
    return rows ? double(rows - misses) / double(rows) : 0.0;
}

} // namespace

int
main()
{
    using namespace fastgl;

    util::TextTable table(
        "Extension — cache policy hit rates (degree vs presample)");
    table.set_header({"graph", "cache rows (frac)", "degree hit",
                      "presample hit", "winner"});

    for (graph::DatasetId id : graph::all_datasets()) {
        graph::ReplicaOptions ropts;
        ropts.materialize_features = false;
        const graph::Dataset ds = graph::load_replica(id, ropts);

        sample::NeighborSamplerOptions sopts;
        sopts.seed = 6;
        sample::NeighborSampler sampler(ds.graph, sopts);
        sample::BatchSplitter splitter(ds.train_nodes, ds.batch_size,
                                       4);
        splitter.shuffle_epoch();

        // Presample hotness from the first two batches; evaluate on the
        // next six.
        std::vector<int64_t> freq(size_t(ds.graph.num_nodes()), 0);
        for (int64_t b = 0; b < std::min<int64_t>(
                                    2, splitter.num_batches());
             ++b) {
            for (graph::NodeId u :
                 sampler.sample(splitter.batch(b)).nodes)
                ++freq[size_t(u)];
        }
        const auto degree_rank = match::degree_ranking(ds.graph);
        const auto hot_rank = match::presample_ranking(freq);

        for (double frac : {0.05, 0.2}) {
            const int64_t rows = int64_t(
                frac * double(ds.graph.num_nodes()));
            match::StaticFeatureCache by_degree(ds.graph.num_nodes(),
                                                degree_rank, rows);
            match::StaticFeatureCache by_hotness(ds.graph.num_nodes(),
                                                 hot_rank, rows);
            const int64_t eval_batches =
                std::min<int64_t>(8, splitter.num_batches());
            int64_t looked_up = 0, degree_misses = 0, hot_misses = 0;
            for (int64_t b = 2; b < eval_batches; ++b) {
                const auto sg = sampler.sample(splitter.batch(b));
                looked_up += sg.num_nodes();
                degree_misses += by_degree.lookup_batch(sg.nodes);
                hot_misses += by_hotness.lookup_batch(sg.nodes);
            }
            const double degree_hit = hit_rate(looked_up, degree_misses);
            const double hot_hit = hit_rate(looked_up, hot_misses);
            table.add_row(
                {graph::dataset_short_name(id),
                 util::TextTable::num(frac, 2),
                 util::TextTable::num(100.0 * degree_hit, 1) + "%",
                 util::TextTable::num(100.0 * hot_hit, 1) + "%",
                 hot_hit >= degree_hit ? "presample" : "degree"});
        }
    }
    table.print();
    std::printf(
        "\nOn uniformly-split replicas, sampling hotness ~ degree, so "
        "the two policies tie (degree is near-optimal).\n"
        "GNNLab's presample policy pulls ahead when the training set is "
        "*localized* — hotness then reflects proximity to the train "
        "nodes, which degree cannot see:\n\n");

    // ---- Skewed-split study: train nodes confined to one ID quarter ----
    util::TextTable skewed(
        "Extension — cache policies under a localized training split "
        "(Products)");
    skewed.set_header({"cache frac", "degree hit", "presample hit",
                       "winner"});
    {
        graph::ReplicaOptions ropts;
        ropts.materialize_features = false;
        graph::Dataset ds =
            graph::load_replica(graph::DatasetId::kProducts, ropts);
        // Localized split: only the first quarter of the ID space
        // trains (e.g. one tenant/community of the graph).
        // Use the *high-ID* quarter: R-MAT concentrates hubs at low
        // IDs, so this split trains far from the global hubs.
        ds.train_nodes.clear();
        for (graph::NodeId u = ds.graph.num_nodes() * 3 / 4;
             u < ds.graph.num_nodes(); u += 3)
            ds.train_nodes.push_back(u);

        sample::NeighborSamplerOptions sopts;
        sopts.seed = 6;
        sample::NeighborSampler sampler(ds.graph, sopts);
        sample::BatchSplitter splitter(ds.train_nodes, ds.batch_size,
                                       4);
        splitter.shuffle_epoch();

        std::vector<int64_t> freq(size_t(ds.graph.num_nodes()), 0);
        for (int64_t b = 0;
             b < std::min<int64_t>(3, splitter.num_batches()); ++b) {
            for (graph::NodeId u :
                 sampler.sample(splitter.batch(b)).nodes)
                ++freq[size_t(u)];
        }
        const auto degree_rank = match::degree_ranking(ds.graph);
        const auto hot_rank = match::presample_ranking(freq);

        for (double frac : {0.05, 0.2}) {
            const int64_t rows =
                int64_t(frac * double(ds.graph.num_nodes()));
            match::StaticFeatureCache by_degree(ds.graph.num_nodes(),
                                                degree_rank, rows);
            match::StaticFeatureCache by_hotness(ds.graph.num_nodes(),
                                                 hot_rank, rows);
            const int64_t eval_batches =
                std::min<int64_t>(10, splitter.num_batches());
            int64_t looked_up = 0, degree_misses = 0, hot_misses = 0;
            for (int64_t b = 3; b < eval_batches; ++b) {
                const auto sg = sampler.sample(splitter.batch(b));
                looked_up += sg.num_nodes();
                degree_misses += by_degree.lookup_batch(sg.nodes);
                hot_misses += by_hotness.lookup_batch(sg.nodes);
            }
            const double degree_hit = hit_rate(looked_up, degree_misses);
            const double hot_hit = hit_rate(looked_up, hot_misses);
            skewed.add_row(
                {util::TextTable::num(frac, 2),
                 util::TextTable::num(100.0 * degree_hit, 1) + "%",
                 util::TextTable::num(100.0 * hot_hit, 1) + "%",
                 hot_hit >= degree_hit ? "presample" : "degree"});
        }
    }
    skewed.print();
    std::printf(
        "\nBoundary result: on R-MAT replicas the policies tie (degree "
        "marginally ahead) even under a localized split, because every "
        "hub is 3-hop reachable from everywhere — sampling hotness "
        "degenerates to degree. GNNLab's presample edge (and PaGraph's "
        "<20%% MAG collapse, paper Section 3.1) requires the community "
        "locality of real graphs, which the synthetic replicas do not "
        "model. Both policies and the measurement harness are "
        "implemented; swap in a real edge list via graph::load_graph to "
        "reproduce the paper's gap.\n");
    return 0;
}
