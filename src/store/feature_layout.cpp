#include "store/feature_layout.h"

#include <cstring>
#include <deque>

#include "util/logging.h"

namespace fastgl {
namespace store {

FeatureLayout
identity_layout(graph::NodeId num_nodes)
{
    FeatureLayout layout;
    layout.slot_of.resize(static_cast<size_t>(num_nodes));
    layout.node_at.resize(static_cast<size_t>(num_nodes));
    for (graph::NodeId u = 0; u < num_nodes; ++u) {
        layout.slot_of[static_cast<size_t>(u)] = u;
        layout.node_at[static_cast<size_t>(u)] = u;
    }
    return layout;
}

FeatureLayout
partition_ordered_layout(const graph::CsrGraph &graph,
                         const graph::Partitioning &parts)
{
    const graph::NodeId n = graph.num_nodes();
    FASTGL_CHECK(static_cast<size_t>(n) == parts.part_of.size(),
                 "layout partitioning does not cover the graph");
    FeatureLayout layout;
    layout.slot_of.assign(static_cast<size_t>(n), graph::kInvalidNode);
    layout.node_at.reserve(static_cast<size_t>(n));

    std::vector<bool> visited(static_cast<size_t>(n), false);
    std::deque<graph::NodeId> frontier;
    for (int p = 0; p < parts.num_parts(); ++p) {
        // members[p] is sorted ascending, so "lowest unvisited member"
        // restarts are a simple scan and the whole walk is
        // deterministic.
        const std::vector<graph::NodeId> &members =
            parts.members[static_cast<size_t>(p)];
        for (graph::NodeId seed : members) {
            if (visited[static_cast<size_t>(seed)])
                continue;
            visited[static_cast<size_t>(seed)] = true;
            frontier.push_back(seed);
            while (!frontier.empty()) {
                const graph::NodeId u = frontier.front();
                frontier.pop_front();
                layout.slot_of[static_cast<size_t>(u)] =
                    static_cast<graph::NodeId>(layout.node_at.size());
                layout.node_at.push_back(u);
                for (graph::NodeId v : graph.neighbors(u)) {
                    if (visited[static_cast<size_t>(v)] ||
                        parts.part_of[static_cast<size_t>(v)] != p)
                        continue;
                    visited[static_cast<size_t>(v)] = true;
                    frontier.push_back(v);
                }
            }
        }
    }
    FASTGL_CHECK(layout.node_at.size() == static_cast<size_t>(n),
                 "partition-ordered layout missed nodes");
    return layout;
}

std::vector<float>
relayout_features(const graph::FeatureStore &features,
                  const FeatureLayout &layout)
{
    FASTGL_CHECK(layout.num_nodes() == features.num_nodes(),
                 "layout size != feature store size");
    const size_t dim = static_cast<size_t>(features.dim());
    std::vector<float> out(static_cast<size_t>(features.num_nodes()) *
                           dim);
    features.gather_rows(layout.node_at, out.data());
    return out;
}

} // namespace store
} // namespace fastgl
