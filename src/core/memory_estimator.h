/**
 * @file
 * Analytic full-scale GPU-memory estimator behind the paper's Table 1
 * ("remaining GPU memory when running a 3-layer GCN") and Table 9
 * (DGL vs FastGL memory usage).
 *
 * The real datasets do not fit in this environment, so subgraph sizes at
 * the paper's scale are estimated analytically: each hop multiplies the
 * frontier by its fanout, and unique-node counts saturate against the
 * effective reachable pool (power-law graphs concentrate samples on hubs,
 * shrinking the pool below the raw node count). The resulting component
 * sums reproduce the paper's memory-pressure ordering: small graphs leave
 * >10 GB free, MAG/Papers100M leave well under 2 GB.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/datasets.h"

namespace fastgl {
namespace core {

/** Inputs to the estimate. */
struct MemoryEstimatorOptions
{
    std::vector<int> fanouts = {5, 10, 15};
    int64_t batch_size = 8000;   ///< Paper Table 1 setting.
    int64_t hidden_dim = 256;    ///< Paper Table 1 setting.
    int num_layers = 3;
    /**
     * Fraction of the graph's nodes effectively reachable by sampling
     * (hub concentration shrinks this below 1 on power-law graphs).
     */
    double reachable_fraction = 0.5;
    /** FastGL stores only the current subgraph's topology (Table 9). */
    bool fastgl_topology_only = false;
};

/** Byte breakdown of one training iteration's device residency. */
struct MemoryEstimate
{
    uint64_t features = 0;     ///< Sampled-node feature rows.
    uint64_t activations = 0;  ///< Per-layer hidden activations + grads.
    uint64_t topology = 0;     ///< Subgraph CSR structures.
    uint64_t params = 0;       ///< Model weights + grads + Adam moments.
    uint64_t workspace = 0;    ///< Allocator slack / kernels scratch.

    uint64_t
    total() const
    {
        return features + activations + topology + params + workspace;
    }

    /** Free bytes out of @p capacity (0 when oversubscribed). */
    uint64_t
    remaining(uint64_t capacity) const
    {
        const uint64_t used = total();
        return used >= capacity ? 0 : capacity - used;
    }
};

/** Expected unique nodes per hop for a full-scale sampled batch. */
std::vector<double>
expected_unique_frontier(const graph::FullScaleSpec &spec,
                         const MemoryEstimatorOptions &opts);

/** Full memory estimate for dataset @p id at paper scale. */
MemoryEstimate estimate_training_memory(
    graph::DatasetId id, const MemoryEstimatorOptions &opts = {});

} // namespace core
} // namespace fastgl
