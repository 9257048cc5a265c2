/**
 * @file
 * Cluster-GCN style partition sampler (paper Section 7 / [5]): the graph
 * is partitioned once; each mini-batch is the subgraph induced by the
 * union of q randomly chosen partitions. Bounds the neighbour explosion
 * structurally rather than per hop.
 */
#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/partition.h"
#include "sample/id_map.h"
#include "sample/minibatch.h"
#include "util/rng.h"

namespace fastgl {
namespace sample {

/** Options for ClusterSampler. */
struct ClusterSamplerOptions
{
    int num_parts = 32;         ///< Partitions to split the graph into.
    int parts_per_batch = 2;    ///< q partitions union per mini-batch.
    int num_layers = 3;
    uint64_t seed = 1;
};

/** Samples partition-union subgraphs from a fixed CSR graph. */
class ClusterSampler
{
  public:
    /** Partitions the graph on construction (streaming LDG). */
    ClusterSampler(const graph::CsrGraph &graph,
                   ClusterSamplerOptions opts);

    /** Draw a random q-partition batch. */
    SampledSubgraph sample();

    /** Batch over explicit partitions (deterministic schedules). */
    SampledSubgraph sample_clusters(std::span<const int> cluster_ids);

    const graph::Partitioning &partitioning() const { return parts_; }
    const ClusterSamplerOptions &options() const { return opts_; }

  private:
    const graph::CsrGraph &graph_;
    ClusterSamplerOptions opts_;
    graph::Partitioning parts_;
    util::Rng rng_;
    IdMap table_;
};

} // namespace sample
} // namespace fastgl
