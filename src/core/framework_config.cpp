#include "core/framework_config.h"

#include "util/logging.h"

namespace fastgl {
namespace core {

std::string
framework_name(Framework framework)
{
    switch (framework) {
      case Framework::kPyG:        return "PyG";
      case Framework::kDgl:        return "DGL";
      case Framework::kGnnAdvisor: return "GNNAdvisor";
      case Framework::kGnnLab:     return "GNNLab";
      case Framework::kFastGL:     return "FastGL";
    }
    return "?";
}

FrameworkConfig
framework_preset(Framework framework)
{
    FrameworkConfig cfg;
    cfg.framework = framework;
    cfg.name = framework_name(framework);
    switch (framework) {
      case Framework::kPyG:
        cfg.sample_device = SampleDevice::kCpu;
        cfg.id_map = IdMapEngine::kCpuMap;
        cfg.io = IoStrategy::kFullLoad;
        cfg.compute_plan = compute::ComputePlan::kNaive;
        break;
      case Framework::kDgl:
        cfg.sample_device = SampleDevice::kGpu;
        cfg.id_map = IdMapEngine::kGpuSync;
        cfg.io = IoStrategy::kFullLoad;
        cfg.compute_plan = compute::ComputePlan::kNaive;
        break;
      case Framework::kGnnAdvisor:
        // GNNAdvisor cannot sample; the paper grafts DGL's sampler on.
        cfg.sample_device = SampleDevice::kGpu;
        cfg.id_map = IdMapEngine::kGpuSync;
        cfg.io = IoStrategy::kFullLoad;
        cfg.compute_plan = compute::ComputePlan::kGnnAdvisor;
        break;
      case Framework::kGnnLab:
        cfg.sample_device = SampleDevice::kGpu;
        cfg.id_map = IdMapEngine::kGpuSync;
        cfg.io = IoStrategy::kStaticCache;
        cfg.compute_plan = compute::ComputePlan::kNaive;
        cfg.pipelined_sampling = true;
        cfg.cache_policy = match::CachePolicy::kPresample;
        break;
      case Framework::kFastGL:
        cfg.sample_device = SampleDevice::kGpu;
        cfg.id_map = IdMapEngine::kGpuFused;
        cfg.io = IoStrategy::kMatchReorder;
        cfg.compute_plan = compute::ComputePlan::kMemoryAware;
        cfg.cache_on_top_of_match = true;
        break;
    }
    return cfg;
}

} // namespace core
} // namespace fastgl
