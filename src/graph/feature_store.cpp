#include "graph/feature_store.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <string_view>

#include "util/isa.h"
#include "util/logging.h"

namespace fastgl {
namespace graph {

namespace {

/** Per-(seed, label, dim) class centroid component in [-0.5, 0.5]. */
float
centroid_component(uint64_t seed, int label, int dim_index)
{
    util::Rng rng(seed ^ (0xA24BAED4963EE407ULL *
                          (uint64_t(label) * 131071 + dim_index + 1)));
    return rng.next_float(-0.5f, 0.5f);
}

/** Seed of node @p u's noise stream: each row is its own stream. */
uint64_t
row_stream_seed(uint64_t seed, NodeId u)
{
    return seed ^ (0x9E3779B97f4A7C15ULL * (u + 1));
}

/**
 * The scalar generator, one row per call: the base stamp, the ragged
 * tail of the wider stamps and gather_row. Row = class centroid +
 * per-node Gaussian noise, whose scale makes the classes separable but
 * not trivially so.
 */
void
generate_scalar(uint64_t seed, int dim, const NodeId *nodes,
                const float *const *centroids, float *out)
{
    util::Rng rng(row_stream_seed(seed, nodes[0]));
    for (int i = 0; i < dim; ++i)
        out[i] = centroids[0][i] + rng.next_gaussian(0.0f, 0.35f);
}

// The lane body is stamped per ISA like compute/kernel_impl.inc. The
// avx2 stamp has no 64-bit multiply or u64 -> double conversion, so it
// shift-adds and splits; avx512dq converts in one instruction.
#ifdef FASTGL_HAVE_ISA_STAMPS
#pragma GCC push_options
#pragma GCC target("avx2")
#define FASTGL_ROW_NS avx2
#define FASTGL_ROW_LANES 4
#define FASTGL_ROW_CVTUQQ 0
#include "graph/row_lanes.inc"
#undef FASTGL_ROW_CVTUQQ
#undef FASTGL_ROW_LANES
#undef FASTGL_ROW_NS
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")
#define FASTGL_ROW_NS avx512
#define FASTGL_ROW_LANES 8
#define FASTGL_ROW_CVTUQQ 1
#include "graph/row_lanes.inc"
#undef FASTGL_ROW_CVTUQQ
#undef FASTGL_ROW_LANES
#undef FASTGL_ROW_NS
#pragma GCC pop_options
#endif

/** Lanes of the widest stamp. */
constexpr int kMaxLanes = 8;

/**
 * Smallest wall time of a few runs of @p stamp over 32 rows of 64
 * dims. The rows take well under a millisecond per stamp.
 */
double
time_stamp(const RowStamp &stamp)
{
    constexpr int kRows = 32, kDim = 64;
    std::array<NodeId, kRows> nodes;
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    const std::vector<float> centroid(kDim, 0.0f);
    std::array<const float *, kRows> centroids;
    centroids.fill(centroid.data());
    std::vector<float> out(kRows * kDim);
    double best = 1e30;
    for (int round = 0; round < 5; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < kRows; r += stamp.lanes)
            stamp.generate(0, kDim, nodes.data() + r, centroids.data() + r,
                           out.data() + r * kDim);
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
    return best;
}

} // namespace

std::span<const RowStamp>
row_stamps()
{
#ifdef FASTGL_HAVE_ISA_STAMPS
    static const std::array<RowStamp, 3> stamps = {{
        {"base", 1, true, generate_scalar},
        {"avx2", avx2::kLanes, __builtin_cpu_supports("avx2") != 0,
         avx2::generate_lanes},
        {"avx512", avx512::kLanes,
         __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq"),
         avx512::generate_lanes},
    }};
#else
    static const std::array<RowStamp, 1> stamps = {
        {{"base", 1, true, generate_scalar}}};
#endif
    return stamps;
}

const RowStamp &
selected_row_stamp()
{
    static const RowStamp *const selected = [] {
        const std::span<const RowStamp> stamps = row_stamps();
        const util::ForcedIsa forced = util::forced_isa();
        if (forced != util::ForcedIsa::kNone) {
            // forced_isa() has checked that a forced avx2 stamp runs.
            const std::string_view isa =
                forced == util::ForcedIsa::kBase ? "base" : "avx2";
            return &*std::find_if(
                stamps.begin(), stamps.end(),
                [isa](const RowStamp &s) { return s.isa == isa; });
        }
        // Every stamp gives the same bits, so the race only picks speed.
        const RowStamp *best = &stamps.front();
        double best_s = time_stamp(*best);
        for (const RowStamp &stamp : stamps.subspan(1)) {
            if (!stamp.supported)
                continue;
            const double s = time_stamp(stamp);
            if (s < best_s) {
                best = &stamp;
                best_s = s;
            }
        }
        return best;
    }();
    return *selected;
}

FeatureStore::FeatureStore(NodeId num_nodes, int dim, int num_classes,
                           uint64_t seed, bool materialize)
    : num_nodes_(num_nodes),
      dim_(dim),
      num_classes_(num_classes),
      seed_(seed),
      materialized_(materialize)
{
    FASTGL_CHECK(num_nodes >= 0 && dim > 0 && num_classes > 0,
                 "invalid feature store shape");
    // Class centroids: features carry real label signal so training
    // actually learns (loss/accuracy curves in the examples and the
    // Fig. 16 convergence experiment are meaningful).
    centroids_.resize(static_cast<size_t>(num_classes) * dim);
    for (int c = 0; c < num_classes; ++c)
        for (int d = 0; d < dim; ++d)
            centroids_[static_cast<size_t>(c) * dim + d] =
                centroid_component(seed, c, d);

    if (materialize) {
        labels_.resize(static_cast<size_t>(num_nodes));
        for (NodeId u = 0; u < num_nodes; ++u)
            labels_[static_cast<size_t>(u)] = virtual_label(u);
        // Rows in ID order through the lanes, a chunk of IDs at a time
        // so the ID list stays small next to the matrix.
        data_.resize(static_cast<size_t>(num_nodes) * dim);
        const RowStamp &stamp = selected_row_stamp();
        constexpr NodeId kChunk = 1024;
        std::vector<NodeId> ids;
        for (NodeId first = 0; first < num_nodes; first += kChunk) {
            ids.resize(
                static_cast<size_t>(std::min(kChunk, num_nodes - first)));
            std::iota(ids.begin(), ids.end(), first);
            generate_rows(ids, data_.data() + static_cast<size_t>(first) * dim,
                          stamp);
        }
    }
}

int
FeatureStore::virtual_label(NodeId u) const
{
    // Mostly block-structured labels: contiguous ID ranges share a
    // class. R-MAT edges concentrate within ID blocks (quadrant
    // recursion), so this induces the label homophily real graphs have —
    // neighbourhood aggregation then genuinely helps classification. A
    // 20% random remainder keeps the problem non-trivial.
    util::Rng rng(seed_ ^ (0xBF58476D1CE4E5B9ULL * (u + 1)));
    if (rng.next_double() < 0.2) {
        return static_cast<int>(
            rng.next_below(static_cast<uint64_t>(num_classes_)));
    }
    return static_cast<int>((__int128(u) * num_classes_) / num_nodes_);
}

const float *
FeatureStore::centroid_of(NodeId u) const
{
    const int label = materialized_ ? labels_[static_cast<size_t>(u)]
                                    : virtual_label(u);
    return centroids_.data() + static_cast<size_t>(label) * dim_;
}

void
FeatureStore::generate_row(NodeId u, float *out) const
{
    const float *centroid = centroid_of(u);
    generate_scalar(seed_, dim_, &u, &centroid, out);
}

void
FeatureStore::generate_rows(std::span<const NodeId> nodes, float *out,
                            const RowStamp &stamp) const
{
    FASTGL_CHECK(stamp.supported && stamp.lanes <= kMaxLanes,
                 "row stamp this CPU cannot run");
    const size_t lanes = static_cast<size_t>(stamp.lanes);
    const size_t stride = static_cast<size_t>(dim_);
    std::array<const float *, kMaxLanes> centroids;
    size_t r = 0;
    for (; r + lanes <= nodes.size(); r += lanes) {
        for (size_t l = 0; l < lanes; ++l)
            centroids[l] = centroid_of(nodes[r + l]);
        stamp.generate(seed_, dim_, nodes.data() + r, centroids.data(),
                       out + r * stride);
    }
    for (; r < nodes.size(); ++r)
        generate_row(nodes[r], out + r * stride);
}

std::span<const float>
FeatureStore::row(NodeId u) const
{
    FASTGL_CHECK(materialized_, "row() requires a materialised store");
    FASTGL_CHECK(u >= 0 && u < num_nodes_, "node out of range");
    return {data_.data() + static_cast<size_t>(u) * dim_,
            static_cast<size_t>(dim_)};
}

void
FeatureStore::gather_row(NodeId u, float *out) const
{
    FASTGL_CHECK(u >= 0 && u < num_nodes_, "node out of range");
    if (materialized_) {
        const float *src = row_ptr_unvalidated(u);
        std::copy(src, src + dim_, out);
    } else {
        // Regenerate deterministically: the row is a pure function of
        // (seed, node). Slower, but memory free.
        generate_row(u, out);
    }
}

void
FeatureStore::gather_rows(std::span<const NodeId> nodes, float *out) const
{
    gather_rows(nodes, out, selected_row_stamp());
}

void
FeatureStore::gather_rows(std::span<const NodeId> nodes, float *out,
                          const RowStamp &stamp) const
{
    validate_nodes(nodes);
    if (!materialized_) {
        generate_rows(nodes, out, stamp);
        return;
    }
    for (size_t r = 0; r < nodes.size(); ++r) {
        const float *src = row_ptr_unvalidated(nodes[r]);
        std::copy(src, src + dim_, out + r * static_cast<size_t>(dim_));
    }
}

void
FeatureStore::validate_nodes(std::span<const NodeId> nodes) const
{
    // One branch-predictable pass; the min/max fold keeps the loop
    // tight and the check itself out of it.
    NodeId lo = 0, hi = -1;
    if (!nodes.empty()) {
        lo = hi = nodes.front();
        for (NodeId u : nodes) {
            lo = std::min(lo, u);
            hi = std::max(hi, u);
        }
    }
    FASTGL_CHECK(lo >= 0 && hi < num_nodes_,
                 "gather node ID outside the feature matrix");
}

int
FeatureStore::label(NodeId u) const
{
    FASTGL_CHECK(u >= 0 && u < num_nodes_, "node out of range");
    if (materialized_)
        return labels_[static_cast<size_t>(u)];
    return virtual_label(u);
}

} // namespace graph
} // namespace fastgl
