/**
 * @file
 * Uniform k-hop neighbour sampler (GraphSAGE-style), the workhorse of the
 * paper's evaluation: 3-hop random neighbourhood sampling with per-layer
 * fanouts [5, 10, 15] following GNNLab's settings.
 */
#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "sample/id_map.h"
#include "sample/minibatch.h"
#include "util/arena.h"
#include "util/rng.h"

namespace fastgl {
namespace sample {

/** Options for NeighborSampler. */
struct NeighborSamplerOptions
{
    /**
     * Per-layer fanouts in the paper's order: fanouts[k] is the neighbour
     * budget of the k-th GNN layer counting from the *input* layer, so the
     * hop adjacent to the seeds uses fanouts.back(). The default is the
     * paper's [5, 10, 15].
     */
    std::vector<int> fanouts = {5, 10, 15};
    /** Add one self edge per target so Eq. 1 covers the GCN self term. */
    bool add_self_loops = true;
    /**
     * Sample neighbours with replacement (DGL supports both modes).
     * Without replacement (default) a node's sampled degree is
     * min(degree, fanout); with replacement it is always the fanout.
     */
    bool replace = false;
    uint64_t seed = 1;
};

/** Samples k-hop subgraphs from a fixed CSR graph. */
class NeighborSampler
{
  public:
    NeighborSampler(const graph::CsrGraph &graph,
                    NeighborSamplerOptions opts);

    /**
     * Sample one mini-batch subgraph rooted at @p seeds.
     *
     * Nodes are assigned dense local IDs through an IdMap in insertion
     * order (seeds first); probe counts and instance counts are
     * recorded in the result for the device model.
     */
    SampledSubgraph sample(std::span<const graph::NodeId> seeds);

    /**
     * Sample with an explicit RNG stream: reseeds the internal generator
     * with @p rng_seed before sampling, so the result is a pure function
     * of (graph, options, seeds, rng_seed) — independent of call history
     * and of which sampler instance runs it. This is the re-entrant entry
     * point the overlapped pipeline uses: every producer thread owns its
     * own NeighborSampler (instances are not shareable across threads)
     * and derives rng_seed per batch, so batches can be sampled in any
     * order on any thread and still come out bit-identical.
     */
    SampledSubgraph sample(std::span<const graph::NodeId> seeds,
                           uint64_t rng_seed);

    const NeighborSamplerOptions &options() const { return opts_; }

    /** Number of hops (== fanouts.size()). */
    int num_hops() const { return static_cast<int>(opts_.fanouts.size()); }

  private:
    /** Per-hop staging buffers, carved from the arena each call. */
    struct PendingBlock
    {
        std::span<graph::EdgeId> counts;  ///< Per-target edge count.
        std::span<graph::NodeId> sources; ///< Source local IDs.
    };

    const graph::CsrGraph &graph_;
    NeighborSamplerOptions opts_;
    util::Rng rng_;
    IdMap table_;
    /**
     * Scratch arena reset at the start of every sample() call: pending
     * blocks and large-fanout rejection buffers bump-allocate here, so
     * steady-state sampling performs no heap allocation besides the
     * returned subgraph itself.
     */
    util::ArenaAllocator arena_;
    std::vector<PendingBlock> pending_;
};

} // namespace sample
} // namespace fastgl
