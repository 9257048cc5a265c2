#include "core/memory_estimator.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace fastgl {
namespace core {

namespace {

/**
 * Allocator/workspace multiplier on the per-iteration tensors (caching
 * allocators hold pools well above the live set).
 */
constexpr double kWorkspaceFactor = 2.7;

} // namespace

std::vector<double>
expected_unique_frontier(const graph::FullScaleSpec &spec,
                         const MemoryEstimatorOptions &opts)
{
    // Frontier instance counts hop by hop (self edges keep targets in the
    // next frontier, so instances accumulate), with unique counts
    // saturating against the effective pool:
    //   unique(I) = P * (1 - exp(-I / P)),  P = reachable_fraction * N.
    const double pool =
        opts.reachable_fraction * double(spec.nodes);
    std::vector<double> uniques;
    double instances = double(opts.batch_size);
    uniques.push_back(
        std::min(instances, pool * (1.0 - std::exp(-instances / pool))));
    const int hops = static_cast<int>(opts.fanouts.size());
    for (int h = 0; h < hops; ++h) {
        // The hop adjacent to the seeds uses the last fanout entry.
        const int fanout = opts.fanouts[static_cast<size_t>(
            hops - 1 - h)];
        instances += instances * double(fanout);
        const double unique =
            pool * (1.0 - std::exp(-instances / pool));
        uniques.push_back(std::min(instances, unique));
    }
    return uniques;
}

MemoryEstimate
estimate_training_memory(graph::DatasetId id,
                         const MemoryEstimatorOptions &opts)
{
    const graph::FullScaleSpec spec = graph::full_scale_spec(id);
    const std::vector<double> uniques =
        expected_unique_frontier(spec, opts);
    const double total_unique = uniques.back();
    constexpr double kCapacity = double(24ull << 30); // RTX 3090

    MemoryEstimate est;

    // --- Static residents (alive for the whole run) ---
    // GPU-based sampling (DGL/GNNLab/FastGL all sample on device) keeps
    // the full graph structure in device memory: indptr + indices.
    const double full_topology =
        double(spec.nodes) * 8.0 + double(spec.edges) * 8.0;
    // DGL hosts the full feature matrix on device when it fits in a
    // quarter of the card (Reddit/Products/MAG); larger matrices stay in
    // host memory and stream per batch (IGB/Papers100M).
    const double full_features = double(spec.nodes) *
                                 double(spec.feature_dim) *
                                 sizeof(float);
    const bool features_resident = full_features <= kCapacity / 4.0;

    // --- Per-iteration (dynamic) tensors, scaled by the allocator's
    //     workspace factor (caching allocators hold pools well above the
    //     live set) ---
    // Batch feature rows (gathered even when the matrix is resident).
    const double batch_features =
        total_unique * double(spec.feature_dim) * sizeof(float);
    // Activations: each layer's target frontier at hidden width, forward
    // + gradient, plus the input-side aggregated features.
    double act = 0.0;
    for (size_t l = 0; l + 1 < uniques.size(); ++l)
        act += uniques[l] * double(opts.hidden_dim) * sizeof(float);
    act += uniques[uniques.size() - 2] * double(spec.feature_dim) *
           sizeof(float);
    act *= 2.0;
    // Sampled-subgraph topology. DGL keeps presampled subgraphs queued on
    // device; FastGL stores only the current one (paper Section 6.5).
    double edges = 0.0;
    double frontier = double(opts.batch_size);
    const int hops = static_cast<int>(opts.fanouts.size());
    for (int h = 0; h < hops; ++h) {
        const int fanout =
            opts.fanouts[static_cast<size_t>(hops - 1 - h)];
        edges += frontier * double(fanout + 1);
        frontier *= double(fanout);
    }
    const double topo_copies = opts.fastgl_topology_only ? 1.0 : 2.0;
    const double batch_topology = edges * 12.0 * topo_copies;

    const double w = kWorkspaceFactor;
    est.features = static_cast<uint64_t>(
        (features_resident ? full_features : 0.0) + batch_features);
    est.activations = static_cast<uint64_t>(act);
    est.topology =
        static_cast<uint64_t>(full_topology + batch_topology);

    // 3-layer GCN at hidden_dim: weights + grads + two Adam moments.
    const uint64_t weights = static_cast<uint64_t>(
        (double(spec.feature_dim) * double(opts.hidden_dim) +
         double(opts.hidden_dim) * double(opts.hidden_dim) *
             std::max(0, opts.num_layers - 2) +
         double(opts.hidden_dim) * double(spec.num_classes)) *
        sizeof(float));
    est.params = weights * 4;

    // Allocator slack applies to the per-iteration tensors only; the
    // static residents are single stable allocations.
    est.workspace = static_cast<uint64_t>(
        (batch_features + act + batch_topology) * (w - 1.0));
    return est;
}

} // namespace core
} // namespace fastgl
