/**
 * @file
 * Host-resident node feature and label storage.
 *
 * In the sampling-based training setting the feature matrix lives in CPU
 * host memory (it is far too large for the GPU); per-batch feature rows are
 * gathered and shipped over PCIe. FeatureStore is that host-side matrix.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/rng.h"

namespace fastgl {
namespace graph {

/**
 * One instruction-set stamp of the on-demand row generator. A stamp
 * regenerates `lanes` rows side by side, one per SIMD lane, and every
 * stamp's floats are bit-identical to the scalar generator's (see
 * docs/feature_gather.md).
 */
struct RowStamp
{
    const char *isa; ///< "base", "avx2" or "avx512".
    int lanes;       ///< Rows per call; base is the scalar generator.
    bool supported;  ///< This CPU runs it.
    /**
     * Generate the rows of nodes[0, lanes) into @p out (row stride
     * @p dim), row l adding the centroid row @p centroids[l].
     */
    void (*generate)(uint64_t seed, int dim, const NodeId *nodes,
                     const float *const *centroids, float *out);
};

/** Every row stamp this build carries, base first, widest last. */
std::span<const RowStamp> row_stamps();

/**
 * The stamp FeatureStore::gather_rows regenerates rows with: the one
 * FASTGL_KERNEL_ISA forces (util::forced_isa), else the fastest
 * supported stamp, raced once on a few rows at first use. CPUID
 * advertising a wide ISA does not make it fast on every host.
 */
const RowStamp &selected_row_stamp();

/** Dense row-major [num_nodes x dim] float feature matrix plus labels. */
class FeatureStore
{
  public:
    FeatureStore() = default;

    /**
     * Allocate and initialise features and labels. Each node draws a
     * label, and its feature row is that class's centroid plus Gaussian
     * node noise — so the labels are genuinely learnable from the
     * features (needed by the convergence experiment and examples).
     * @param num_nodes   row count
     * @param dim         feature dimension
     * @param num_classes label range [0, num_classes)
     * @param seed        RNG seed
     * @param materialize when false, rows are generated on demand from the
     *                    seed instead of being stored (used for the large
     *                    replicas, where 100M x 1024 floats will not fit).
     */
    FeatureStore(NodeId num_nodes, int dim, int num_classes, uint64_t seed,
                 bool materialize = true);

    NodeId num_nodes() const { return num_nodes_; }
    int dim() const { return dim_; }
    int num_classes() const { return num_classes_; }

    /** Feature row of node @p u. Valid only when materialised. */
    std::span<const float> row(NodeId u) const;

    /** Copy the feature row of node @p u into @p out (size dim()). */
    void gather_row(NodeId u, float *out) const;

    /**
     * Copy the feature rows of @p nodes into @p out ([nodes.size() x
     * dim()], row-major, in list order), bit-identical to a gather_row
     * loop. The IDs are checked in one pass up front
     * (validate_nodes). On-demand rows are regenerated
     * selected_row_stamp().lanes at a time, the ragged tail one by one.
     */
    void gather_rows(std::span<const NodeId> nodes, float *out) const;

    /**
     * gather_rows through @p stamp, which this CPU must support; lets
     * a test run every stamp against gather_row.
     */
    void gather_rows(std::span<const NodeId> nodes, float *out,
                     const RowStamp &stamp) const;

    /**
     * Check every node ID in @p nodes against [0, num_nodes()) in one
     * structural pass, panicking (FASTGL_CHECK) on the first violation.
     * Batched gathers (gather_rows, match::GatherEngine) run this once
     * up front and then read rows unchecked, hoisting the bounds check
     * out of the per-row inner loop — the same pattern as
     * sample::LayerBlock::validate().
     */
    void validate_nodes(std::span<const NodeId> nodes) const;

    /**
     * Raw row pointer without the bounds check; materialised stores
     * only. The caller must have validated @p u (validate_nodes) — an
     * out-of-range ID reads past the matrix. The SIMD fast path of
     * match::GatherEngine copies straight from here.
     */
    const float *
    row_ptr_unvalidated(NodeId u) const
    {
        return data_.data() + static_cast<size_t>(u) * dim_;
    }

    /** Label of node @p u. */
    int label(NodeId u) const;

    /** Bytes one feature row occupies (dim * sizeof(float)). */
    uint64_t row_bytes() const { return uint64_t(dim_) * sizeof(float); }

    /** Total bytes of the (possibly virtual) feature matrix. */
    uint64_t
    total_bytes() const
    {
        return uint64_t(num_nodes_) * row_bytes();
    }

    bool materialized() const { return materialized_; }

    /** Generator seed: rows/labels are a pure function of (seed, node). */
    uint64_t seed() const { return seed_; }

  private:
    /** Label of @p u as a pure function of (seed, node). */
    int virtual_label(NodeId u) const;

    /** Class centroid row of node @p u, whose label is known. */
    const float *centroid_of(NodeId u) const;

    /** Generate the feature row of @p u (centroid + node noise). */
    void generate_row(NodeId u, float *out) const;

    /** Generate the rows of @p nodes into @p out through @p stamp. */
    void generate_rows(std::span<const NodeId> nodes, float *out,
                       const RowStamp &stamp) const;

    NodeId num_nodes_ = 0;
    int dim_ = 0;
    int num_classes_ = 1;
    uint64_t seed_ = 0;
    bool materialized_ = true;
    std::vector<float> data_;
    std::vector<int32_t> labels_;
    std::vector<float> centroids_; ///< [num_classes x dim] class means.
};

} // namespace graph
} // namespace fastgl
