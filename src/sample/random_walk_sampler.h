/**
 * @file
 * PinSAGE-style random-walk sampler (paper Section 6.3, Table 7).
 *
 * Each seed launches a number of fixed-length random walks; the visited
 * nodes form the seed's sampled neighbourhood, weighted by visit count.
 * The paper uses walk length 3 as PinSAGE does, to show that Match-Reorder
 * also helps under a different sampling algorithm.
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

/** Options for RandomWalkSampler. */
struct RandomWalkOptions
{
    int walk_length = 3;    ///< Steps per walk (PinSAGE setting).
    int num_walks = 20;     ///< Walks launched per seed.
    int top_k = 25;         ///< Keep the k most-visited nodes per seed.
    uint64_t seed = 1;
};

/** Samples single-block subgraphs by truncated random walks. */
class RandomWalkSampler
{
  public:
    RandomWalkSampler(const graph::CsrGraph &graph, RandomWalkOptions opts);

    /**
     * Sample the neighbourhood subgraph of @p seeds: one LayerBlock whose
     * targets are the seeds and whose sources are their top-k most visited
     * walk destinations (plus a self edge).
     */
    SampledSubgraph sample(std::span<const graph::NodeId> seeds);

    /**
     * Sample with an explicit RNG stream (see NeighborSampler::sample's
     * seeded overload): the result depends only on (graph, options,
     * seeds, rng_seed), making per-batch sampling order- and
     * thread-count-independent.
     */
    SampledSubgraph sample(std::span<const graph::NodeId> seeds,
                           uint64_t rng_seed);

    const RandomWalkOptions &options() const { return opts_; }

  private:
    const graph::CsrGraph &graph_;
    RandomWalkOptions opts_;
    util::Rng rng_;
    IdMap table_;
    /**
     * Scratch arena: the flat per-node visit-count array lives below the
     * watermark (allocated once, zeroed incrementally via the touched
     * list), per-call buffers above it (reclaimed by reset()). Replaces
     * the former per-seed std::unordered_map, which re-allocated its
     * buckets on every sample() call.
     */
    util::ArenaAllocator arena_;
    int32_t *visit_counts_ = nullptr; ///< Arena-resident, num_nodes ints.
};

} // namespace sample
} // namespace fastgl
