/**
 * @file
 * Greedy Reorder strategy (paper Algorithm 1).
 *
 * Given the n mini-batches sampled for a window, compute the match-degree
 * matrix and greedily chain batches so each successor has the maximum
 * match degree with its predecessor, maximising the Match process's reuse.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "match/match_degree.h"

namespace fastgl {
namespace match {

/** Result of one reorder window. */
struct ReorderResult
{
    /** Permutation: execution position -> original batch index. */
    std::vector<int64_t> order;
    /** Sum of consecutive match degrees under the chosen order. */
    double chained_match = 0.0;
    /** Sum of consecutive match degrees under the original order. */
    double baseline_match = 0.0;
};

/**
 * Algorithm 1: start from batch 0, repeatedly append the not-yet-inserted
 * batch with the highest match degree to the last inserted one.
 */
ReorderResult greedy_reorder(const std::vector<NodeSet> &batches);

/**
 * Same greedy chain but on a precomputed (symmetric) match matrix; used
 * when the caller already owns the matrix.
 */
ReorderResult greedy_reorder(const std::vector<std::vector<double>> &m);

/**
 * Greedy chain on raw overlap counts instead of normalised match
 * degrees. Maximising the summed consecutive overlaps minimises the total
 * feature rows loaded (Σ|b_i| is fixed, loads = Σ|b_i| - Σ overlaps), so
 * this variant targets the Match process's objective directly. The
 * pipeline uses it for Reorder windows; @p anchor (may be null) chains
 * the window to the batch already resident on the GPU.
 *
 * The pairwise overlap counts (the O(n²) part) run on @p pool when one
 * is given; the result is bit-identical with or without a pool.
 */
ReorderResult
greedy_reorder_max_overlap(const NodeSet *anchor,
                           const std::vector<NodeSet> &batches,
                           util::ThreadPool *pool = nullptr);

} // namespace match
} // namespace fastgl
