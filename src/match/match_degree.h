/**
 * @file
 * Match-degree computation (paper Section 4.1, Table 4).
 *
 * The match degree between subgraphs i and j is
 *   M_ij = N_o / min(N_i, N_j)
 * where N_o is the number of overlapping nodes. It quantifies how much
 * feature traffic the Match process can save when j runs right after i.
 *
 * Set intersections are the hot path of Match-Reorder, so they are
 * adaptive (see docs/hotpath_perf.md): a linear merge for similarly
 * sized sets, galloping (exponential search) when one set is much
 * smaller than the other, and a dense bitmap probe when one set is
 * intersected against a whole matrix row. All three compute the exact
 * same count, so every policy choice is behaviour-preserving.
 */
#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/bitmap.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace match {

namespace detail {

/** |a ∩ b| by linear merge of two sorted unique spans. */
int64_t intersect_merge(std::span<const graph::NodeId> a,
                        std::span<const graph::NodeId> b);

/**
 * |small ∩ large| by galloping: each element of @p small advances an
 * exponential search cursor through @p large. O(|small| log(|large| /
 * |small|)) — the winner when |large| >> |small|.
 */
int64_t intersect_gallop(std::span<const graph::NodeId> small,
                         std::span<const graph::NodeId> large);

/** Size ratio at which galloping beats the merge (measured, ~8). */
inline constexpr size_t kGallopRatio = 8;

/**
 * Minimum set size before a bitmap row build or a bitmap NodeSet build
 * can pay for itself.
 */
inline constexpr size_t kBitmapMinSize = 128;

/**
 * Minimum |set| / (max - min + 1) density for the bitmap paths; sparser
 * sets span too many cache lines per probe or per scan.
 */
inline constexpr double kBitmapMinDensity = 1.0 / 64.0;

} // namespace detail

/**
 * |a ∩ b| over sorted unique spans, choosing merge or galloping per the
 * size skew. Exact for any input; used by NodeSet::intersection_size.
 */
int64_t intersect_sorted(std::span<const graph::NodeId> a,
                         std::span<const graph::NodeId> b);

/** A node set prepared for fast intersection (sorted unique IDs). */
class NodeSet
{
  public:
    NodeSet() = default;

    /**
     * Build from an arbitrary node list: its ids, sorted, without
     * duplicates. Dense input (at least detail::kBitmapMinSize ids at
     * density >= detail::kBitmapMinDensity over [min, max]) is not
     * sorted: its ids mark a thread-local bitmap, which is read out in
     * ascending order and left clear. Other input is copied, sorted
     * and deduplicated. Both routes give the same set.
     */
    explicit NodeSet(const std::vector<graph::NodeId> &nodes);

    /** Number of unique nodes. */
    int64_t size() const { return int64_t(sorted_.size()); }

    /** Sorted unique node IDs. */
    const std::vector<graph::NodeId> &sorted() const { return sorted_; }

    /** |this ∩ other| via the adaptive merge/gallop kernel. */
    int64_t intersection_size(const NodeSet &other) const;

    /** this \ other, appended to @p out (sorted). */
    void difference(const NodeSet &other,
                    std::vector<graph::NodeId> &out) const;

    /** Membership test (binary search). */
    bool contains(graph::NodeId node) const;

  private:
    std::vector<graph::NodeId> sorted_;
};

/** M_ij between two node sets; 0 when either set is empty. */
double match_degree(const NodeSet &a, const NodeSet &b);

/**
 * Symmetric full match-degree matrix over @p sets (diagonal = 1),
 * computed sequentially. Rows use a thread-local bitmap when the row set
 * is large and dense enough (same counts as the merge, just faster).
 */
std::vector<std::vector<double>>
match_degree_matrix(const std::vector<NodeSet> &sets);

/**
 * Parallel match_degree_matrix: rows are strided across @p pool workers
 * (row i computes cells j > i and mirrors them), so the output is
 * bit-identical to the sequential version for any worker count.
 */
std::vector<std::vector<double>>
match_degree_matrix(const std::vector<NodeSet> &sets,
                    util::ThreadPool &pool);

/**
 * Flattened n*n matrix of raw |i ∩ j| overlap counts (diagonal = set
 * size). The Reorder chain scores hand-overs with these. Runs on
 * @p pool when given, sequentially otherwise; identical output either
 * way.
 */
std::vector<int64_t>
pairwise_overlap_counts(const std::vector<NodeSet> &sets,
                        util::ThreadPool *pool = nullptr);

/** Summary statistics of one epoch's consecutive-pair match degrees. */
struct MatchDegreeStats
{
    double average = 0.0;  ///< Avg(M_ij) over all distinct pairs.
    double min = 0.0;
    double max = 0.0;

    /** The paper's ΔM: max - min over the epoch. */
    double delta() const { return max - min; }
};

/**
 * Stats over all distinct pairs of a precomputed match-degree matrix
 * (upper triangle, row-major order — the accumulation order the
 * pairwise version always used).
 */
MatchDegreeStats
match_degree_stats(const std::vector<std::vector<double>> &matrix);

/**
 * Stats over all distinct pairs of @p sets. Computes the matrix once
 * and derives the stats from it (no pairwise recomputation).
 */
MatchDegreeStats match_degree_stats(const std::vector<NodeSet> &sets);

} // namespace match
} // namespace fastgl
