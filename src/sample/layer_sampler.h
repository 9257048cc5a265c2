/**
 * @file
 * Layer-wise importance sampler in the FastGCN/LADIES family (paper
 * Section 7 cites both as ID-map users): instead of expanding every
 * target's neighbourhood independently, each hop samples a fixed budget
 * of nodes from the union of the frontier's neighbours, weighted by how
 * many frontier nodes reference them. This bounds the neighbour
 * explosion while preserving connectivity (LADIES-style conditioning).
 */
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "sample/id_map.h"
#include "sample/minibatch.h"
#include "util/bitmap.h"
#include "util/rng.h"

namespace fastgl {
namespace sample {

/** Options for LayerSampler. */
struct LayerSamplerOptions
{
    /**
     * Per-hop node budgets in the paper's fanout order (input layer
     * first; the hop adjacent to the seeds uses the last entry).
     */
    std::vector<int64_t> layer_sizes = {1024, 512, 256};
    uint64_t seed = 1;
};

/** Layer-wise importance sampling over a fixed CSR graph. */
class LayerSampler
{
  public:
    LayerSampler(const graph::CsrGraph &graph, LayerSamplerOptions opts);

    /**
     * Sample one mini-batch subgraph: one LayerBlock per hop with the
     * same monotone local-ID layout as NeighborSampler (block h targets
     * are local IDs [0, n_h)), so GnnModel consumes the result directly.
     */
    SampledSubgraph sample(std::span<const graph::NodeId> seeds);

    const LayerSamplerOptions &options() const { return opts_; }
    int num_hops() const { return int(opts_.layer_sizes.size()); }

  private:
    /** Per-hop staging buffers reused across calls (capacity sticks). */
    struct PendingBlock
    {
        std::vector<graph::EdgeId> counts;
        std::vector<graph::NodeId> sources; ///< Source local IDs.
    };

    const graph::CsrGraph &graph_;
    LayerSamplerOptions opts_;
    util::Rng rng_;
    IdMap table_;
    // Reused scratch: pending blocks, the Efraimidis-Spirakis key list,
    // and a dense membership bitmap over the graph's nodes replacing the
    // former per-hop std::unordered_set (bits are unset after each hop
    // via the key list, so no full clears). The candidate-weight
    // accumulator deliberately stays a per-call std::unordered_map: the
    // RNG draws one key per map entry *in iteration order*, so reusing
    // the map (whose bucket count, hence order, depends on history)
    // would change which node gets which draw and break bit-identical
    // replay of sampled layers.
    std::vector<PendingBlock> pending_;
    std::vector<std::pair<double, graph::NodeId>> keyed_;
    util::Bitmap chosen_;
};

} // namespace sample
} // namespace fastgl
