/**
 * @file
 * GraphSAINT-style subgraph samplers (paper Section 7 cites GraphSAINT
 * [47] among the ID-map users): instead of per-seed neighbourhoods, each
 * mini-batch is one induced subgraph drawn by a random-node or
 * random-edge sampler; the GNN trains on that whole subgraph.
 */
#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "sample/id_map.h"
#include "sample/minibatch.h"
#include "util/rng.h"

namespace fastgl {
namespace sample {

/** How SaintSampler draws the membership set. */
enum class SaintMethod
{
    kNode, ///< Sample nodes with probability proportional to degree.
    kEdge, ///< Sample edges uniformly; both endpoints join.
};

/** Options for SaintSampler. */
struct SaintSamplerOptions
{
    SaintMethod method = SaintMethod::kNode;
    int64_t budget = 2000;  ///< Nodes (kNode) or edges (kEdge) per batch.
    int num_layers = 3;     ///< GNN depth the subgraph will be used for.
    uint64_t seed = 1;
};

/** Draws induced-subgraph mini-batches from a fixed CSR graph. */
class SaintSampler
{
  public:
    SaintSampler(const graph::CsrGraph &graph, SaintSamplerOptions opts);

    /**
     * Draw the next subgraph. Every member node is a seed (GraphSAINT
     * computes the loss on all subgraph nodes); blocks repeat the induced
     * adjacency at each layer.
     */
    SampledSubgraph sample();

    const SaintSamplerOptions &options() const { return opts_; }

  private:
    const graph::CsrGraph &graph_;
    SaintSamplerOptions opts_;
    util::Rng rng_;
    IdMap table_;
    /** Degree-weighted alias-free sampling prefix (kNode method). */
    std::vector<double> degree_prefix_;
};

} // namespace sample
} // namespace fastgl
