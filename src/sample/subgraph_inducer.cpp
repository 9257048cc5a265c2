#include "sample/subgraph_inducer.h"

#include "util/logging.h"

namespace fastgl {
namespace sample {

SampledSubgraph
induce_subgraph(const graph::CsrGraph &graph,
                std::span<const graph::NodeId> nodes, int num_layers,
                IdMap &table, int64_t extra_instances)
{
    FASTGL_CHECK(num_layers >= 1, "need at least one layer");
    table.reset(nodes.size());

    SampledSubgraph sg;
    sg.instances = extra_instances;
    for (graph::NodeId u : nodes) {
        if (table.insert(u))
            sg.nodes.push_back(u);
        ++sg.instances;
    }
    sg.num_seeds = sg.num_nodes();

    LayerBlock block;
    const int64_t count = sg.num_nodes();
    block.targets.resize(static_cast<size_t>(count));
    block.indptr.resize(static_cast<size_t>(count) + 1);
    block.indptr[0] = 0;
    for (int64_t t = 0; t < count; ++t) {
        block.targets[static_cast<size_t>(t)] = t;
        const graph::NodeId gu = sg.nodes[static_cast<size_t>(t)];
        graph::EdgeId kept = 0;
        for (graph::NodeId gv : graph.neighbors(gu)) {
            ++sg.edges_examined;
            const graph::NodeId local = table.lookup(gv);
            if (local != graph::kInvalidNode) {
                block.sources.push_back(local);
                ++kept;
            }
        }
        // Self edge: isolated members still aggregate themselves.
        block.sources.push_back(t);
        ++kept;
        block.indptr[static_cast<size_t>(t) + 1] =
            block.indptr[static_cast<size_t>(t)] + kept;
    }

    sg.blocks.assign(static_cast<size_t>(num_layers), block);
    sg.id_map.instances = sg.instances;
    sg.id_map.uniques = table.size();
    sg.id_map.probes = static_cast<int64_t>(table.probes());
    return sg;
}

} // namespace sample
} // namespace fastgl
