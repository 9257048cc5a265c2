/**
 * @file
 * Synthetic graph generators used to build scaled-down replicas of the
 * paper's datasets (Reddit, Products, MAG, IGB-large, Papers100M).
 *
 * Real-world graphs are power-law and highly clustered; the generators here
 * (R-MAT and a Chung-Lu style power-law sampler) reproduce exactly the
 * properties the FastGL techniques depend on: skewed degree distribution
 * (drives match degree and cache hit behaviour) and sparse irregular
 * adjacency (drives aggregation memory irregularity).
 */
#pragma once

#include <cstdint>

#include "graph/csr_graph.h"
#include "util/rng.h"

namespace fastgl {
namespace graph {

/** Parameters for the R-MAT recursive-matrix generator. */
struct RmatParams
{
    NodeId num_nodes = 1 << 14;  ///< Rounded up to a power of two internally.
    EdgeId num_edges = 1 << 18;  ///< Directed edges before dedup.
    double a = 0.57;             ///< Top-left quadrant probability.
    double b = 0.19;             ///< Top-right quadrant probability.
    double c = 0.19;             ///< Bottom-left quadrant probability.
    bool undirected = true;      ///< Mirror every edge.
    uint64_t seed = 42;
};

/** Generate an R-MAT graph (Graph500-style parameters by default). */
CsrGraph generate_rmat(const RmatParams &params);

/** Parameters for the Chung-Lu power-law generator. */
struct PowerLawParams
{
    NodeId num_nodes = 1 << 14;
    double avg_degree = 16.0;
    double exponent = 2.1;       ///< Degree distribution exponent (>2).
    bool undirected = true;
    uint64_t seed = 42;
};

/** Generate a Chung-Lu graph with the given expected degree sequence. */
CsrGraph generate_power_law(const PowerLawParams &params);

/**
 * k-regular ring lattice with random chords — a low-variance topology used
 * by unit tests where deterministic degrees matter.
 */
CsrGraph generate_ring(NodeId num_nodes, int chords_per_node, uint64_t seed);

} // namespace graph
} // namespace fastgl
