/**
 * @file
 * Compressed-sparse-row graph: the core topology structure shared by the
 * samplers, the matcher, and the compute layers.
 *
 * Node IDs in the full graph are "global IDs" (NodeId); sampled subgraphs
 * re-index their nodes with "local IDs" (see fastgl::sample::IdMap, the
 * samplers' table, and fastgl::sample::FusedHashTable, its concurrent
 * Algorithm 2 counterpart).
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fastgl {
namespace graph {

/** Global node identifier in the raw graph. */
using NodeId = int64_t;
/** Edge index into the CSR column array. */
using EdgeId = int64_t;

/** Sentinel for "no node". */
constexpr NodeId kInvalidNode = -1;

/**
 * Immutable CSR adjacency structure.
 *
 * Stores out-neighbours; for GNN aggregation the convention is that
 * neighbors(u) are the *source* nodes feeding target u, i.e. the graph is
 * stored in "in-edge CSR" orientation as DGL does for message passing.
 */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Construct from raw CSR arrays.
     * @param indptr  size num_nodes()+1, monotonically non-decreasing.
     * @param indices size indptr.back(); neighbour lists.
     */
    CsrGraph(std::vector<EdgeId> indptr, std::vector<NodeId> indices);

    /** Number of nodes. */
    NodeId num_nodes() const { return static_cast<NodeId>(indptr_.size()) - 1; }

    /** Number of (directed) edges. */
    EdgeId num_edges() const { return indptr_.empty() ? 0 : indptr_.back(); }

    /** In-degree of node @p u (size of its neighbour list). */
    EdgeId
    degree(NodeId u) const
    {
        return indptr_[u + 1] - indptr_[u];
    }

    /** Neighbour list of node @p u. */
    std::span<const NodeId>
    neighbors(NodeId u) const
    {
        return {indices_.data() + indptr_[u],
                static_cast<size_t>(degree(u))};
    }

    /** CSR row-pointer array (size num_nodes()+1). */
    const std::vector<EdgeId> &indptr() const { return indptr_; }

    /** CSR column-index array (size num_edges()). */
    const std::vector<NodeId> &indices() const { return indices_; }

    /** Average degree across all nodes. */
    double avg_degree() const;

    /** Maximum degree. */
    EdgeId max_degree() const;

    /** Bytes of host memory occupied by the topology arrays. */
    uint64_t topology_bytes() const;

    /**
     * Validate CSR invariants (monotone indptr, in-range indices).
     * @return empty string on success, otherwise a description.
     */
    std::string validate() const;

  private:
    std::vector<EdgeId> indptr_{0};
    std::vector<NodeId> indices_;
};

} // namespace graph
} // namespace fastgl
