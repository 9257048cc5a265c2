/**
 * @file
 * Induced-subgraph construction shared by the GraphSAINT and ClusterGCN
 * samplers: given a set of global node IDs, build the subgraph containing
 * every edge whose endpoints are both in the set, in local-ID space, with
 * the ID map performed through an IdMap (paper Section 7: every
 * sampling algorithm needs the ID-map step, so Fused-Map helps them all).
 */
#pragma once

#include <span>

#include "sample/id_map.h"
#include "sample/minibatch.h"

namespace fastgl {
namespace sample {

/**
 * Induce the subgraph of @p nodes from @p graph.
 *
 * The result has @p num_layers identical LayerBlocks (a GNN trained on an
 * induced subgraph reuses the same adjacency at every layer, as
 * GraphSAINT and ClusterGCN do), every node is a seed, and a self edge is
 * added per node so isolated members still aggregate themselves.
 *
 * @param table  scratch hash table used for the ID map (reset inside).
 * @param extra_instances sampling-phase instances to account in addition
 *        to the membership stream (e.g. edge draws), for the cost model.
 */
SampledSubgraph
induce_subgraph(const graph::CsrGraph &graph,
                std::span<const graph::NodeId> nodes, int num_layers,
                IdMap &table, int64_t extra_instances = 0);

} // namespace sample
} // namespace fastgl
