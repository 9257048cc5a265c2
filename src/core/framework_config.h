/**
 * @file
 * Framework strategy presets reproducing the paper's Table 5: the same
 * substrate executes five configurations that differ in sample device,
 * ID-map engine, memory-IO strategy, and compute plan.
 *
 * | Framework  | Sample | ID map    | Memory IO      | Computation  |
 * |------------|--------|-----------|----------------|--------------|
 * | PyG        | CPU    | CPU map   | prefetch       | naive        |
 * | DGL        | GPU    | sync hash | prefetch       | naive        |
 * | GNNAdvisor | GPU    | sync hash | prefetch       | 2D + preproc |
 * | GNNLab     | GPU    | sync hash | static cache   | naive        |
 * | FastGL     | GPU    | Fused-Map | Match-Reorder  | Memory-Aware |
 */
#pragma once

#include <string>

#include "compute/compute_cost.h"
#include "match/feature_cache.h"

namespace fastgl {
namespace core {

/** The five compared systems. */
enum class Framework { kPyG, kDgl, kGnnAdvisor, kGnnLab, kFastGL };

/** Where the sample-subgraph step runs. */
enum class SampleDevice { kCpu, kGpu };

/** Which ID-map implementation converts global to local IDs. */
enum class IdMapEngine
{
    kCpuMap,   ///< PyG: host-side dictionary.
    kGpuSync,  ///< DGL: GPU hash with per-instance synchronization.
    kGpuFused, ///< FastGL: Algorithm 2, no synchronization.
};

/** Memory-IO strategy for node features. */
enum class IoStrategy
{
    kFullLoad,     ///< Ship every batch node's features (PyG/DGL prefetch).
    kStaticCache,  ///< GNNLab/PaGraph software cache in spare GPU memory.
    kMatch,        ///< FastGL's Match only (no reorder) — "FastGL-nG".
    kMatchReorder, ///< Full Match-Reorder (Algorithm 1).
};

/** Full configuration of one framework run. */
struct FrameworkConfig
{
    Framework framework = Framework::kFastGL;
    std::string name = "FastGL";
    SampleDevice sample_device = SampleDevice::kGpu;
    IdMapEngine id_map = IdMapEngine::kGpuFused;
    IoStrategy io = IoStrategy::kMatchReorder;
    compute::ComputePlan compute_plan =
        compute::ComputePlan::kMemoryAware;
    /**
     * GNNLab's factored design: dedicated sampler GPUs overlap the sample
     * phase with training on the remaining GPUs.
     */
    bool pipelined_sampling = false;
    /**
     * FastGL additionally uses leftover device memory as a feature cache
     * on top of Match (paper Section 5).
     */
    bool cache_on_top_of_match = false;
    match::CachePolicy cache_policy = match::CachePolicy::kPresample;
};

/** The Table 5 preset for @p framework. */
FrameworkConfig framework_preset(Framework framework);

/** Short display name ("PyG", "DGL", ...). */
std::string framework_name(Framework framework);

} // namespace core
} // namespace fastgl
