#include "match/reorder.h"

#include "util/logging.h"

namespace fastgl {
namespace match {

ReorderResult
greedy_reorder(const std::vector<NodeSet> &batches)
{
    return greedy_reorder(match_degree_matrix(batches));
}

ReorderResult
greedy_reorder(const std::vector<std::vector<double>> &m)
{
    const int64_t n = static_cast<int64_t>(m.size());
    ReorderResult result;
    if (n == 0)
        return result;
    for (const auto &row : m)
        FASTGL_CHECK(static_cast<int64_t>(row.size()) == n,
                     "match matrix must be square");

    std::vector<bool> inserted(n, false);
    result.order.reserve(n);

    // Line 4: the first sampled subgraph anchors the chain.
    result.order.push_back(0);
    inserted[0] = true;
    int64_t z = 0;

    for (int64_t i = 1; i < n; ++i) {
        // Line 7: h = argmax over not-inserted k of m[z][k].
        int64_t h = -1;
        double best = -1.0;
        for (int64_t k = 0; k < n; ++k) {
            if (inserted[k])
                continue; // Line 9: inserted rows/columns are zeroed.
            if (m[z][k] > best) {
                best = m[z][k];
                h = k;
            }
        }
        result.order.push_back(h);
        inserted[h] = true;
        result.chained_match += best;
        z = h;
    }

    for (int64_t i = 1; i < n; ++i)
        result.baseline_match += m[i - 1][i];
    return result;
}

ReorderResult
greedy_reorder_max_overlap(const NodeSet *anchor,
                           const std::vector<NodeSet> &batches,
                           util::ThreadPool *pool)
{
    const int64_t n = static_cast<int64_t>(batches.size());
    ReorderResult result;
    if (n == 0)
        return result;

    // Pairwise raw overlap counts, flattened n*n (row-sharded over the
    // pool when given; same counts either way). Note the diagonal holds
    // |b_i|, which the chain below never reads (self is always
    // "inserted" before its row is scanned).
    const std::vector<int64_t> overlap =
        pairwise_overlap_counts(batches, pool);
    const auto cell = [&overlap, n](int64_t i, int64_t j) {
        return overlap[static_cast<size_t>(i * n + j)];
    };

    int64_t head = 0;
    if (anchor != nullptr) {
        int64_t best = -1;
        for (int64_t k = 0; k < n; ++k) {
            const int64_t o = anchor->intersection_size(
                batches[static_cast<size_t>(k)]);
            if (o > best) {
                best = o;
                head = k;
            }
        }
    }

    std::vector<bool> inserted(n, false);
    result.order.push_back(head);
    inserted[head] = true;
    int64_t z = head;
    for (int64_t i = 1; i < n; ++i) {
        int64_t h = -1;
        int64_t best = -1;
        for (int64_t k = 0; k < n; ++k) {
            if (inserted[k])
                continue;
            if (cell(z, k) > best) {
                best = cell(z, k);
                h = k;
            }
        }
        result.order.push_back(h);
        inserted[h] = true;
        result.chained_match += double(best);
        z = h;
    }
    for (int64_t i = 1; i < n; ++i)
        result.baseline_match += double(cell(i - 1, i));
    return result;
}

} // namespace match
} // namespace fastgl
