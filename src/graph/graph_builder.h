/**
 * @file
 * Mutable edge-list accumulator that finalises into a CsrGraph.
 */
#pragma once

#include <utility>
#include <vector>

#include "graph/csr_graph.h"

namespace fastgl {
namespace graph {

/**
 * Collects (src, dst) pairs and builds the in-edge CSR: for each edge
 * (src, dst), src is appended to dst's neighbour list, matching the
 * message-passing orientation used by the samplers.
 */
class GraphBuilder
{
  public:
    /** @param num_nodes Fixed node count; edges must stay in range. */
    explicit GraphBuilder(NodeId num_nodes);

    /** Add a directed edge src -> dst. */
    void add_edge(NodeId src, NodeId dst);

    /** Add both directions (undirected edge). */
    void add_undirected_edge(NodeId u, NodeId v);

    NodeId num_nodes() const { return num_nodes_; }

    /**
     * Build the CSR. Neighbour lists are sorted; duplicate and self-loop
     * edges are removed when @p dedup is true.
     * The builder is left empty afterwards.
     */
    CsrGraph build(bool dedup = true);

  private:
    NodeId num_nodes_;
    std::vector<std::pair<NodeId, NodeId>> edges_;
};

} // namespace graph
} // namespace fastgl
