/**
 * @file
 * Tests for the device model: GpuSpec bandwidth math, device memory
 * ledger, kernel cost model, roofline.
 */
#include <gtest/gtest.h>

#include "sim/device_memory.h"
#include "sim/gpu_spec.h"
#include "sim/kernel_model.h"
#include "sim/roofline.h"

namespace fastgl {
namespace {

TEST(GpuSpec, DefaultsMatchPaperTable3)
{
    const sim::GpuSpec spec = sim::rtx3090();
    EXPECT_DOUBLE_EQ(spec.peak_flops, 29.155e12);
    EXPECT_DOUBLE_EQ(spec.global_bw, 938e9);
    EXPECT_DOUBLE_EQ(spec.l1_bw, 12e12);
    EXPECT_EQ(spec.global_bytes, 24ull << 30);
    EXPECT_EQ(spec.l2_bytes, 6ull << 20);
    EXPECT_EQ(spec.l1_bytes_per_sm, 128ull << 10);
    EXPECT_DOUBLE_EQ(spec.pcie_bw, 32e9);
}

TEST(GpuSpec, EffectiveBandwidthBounds)
{
    const sim::GpuSpec spec = sim::rtx3090();
    // All-miss: pure global bandwidth. All-hit: pure L1 bandwidth.
    EXPECT_NEAR(spec.effective_bandwidth(0.0, 0.0), spec.global_bw, 1e-3);
    EXPECT_NEAR(spec.effective_bandwidth(1.0, 0.0), spec.l1_bw, 1e-3);
    // More hits → more bandwidth.
    EXPECT_GT(spec.effective_bandwidth(0.5, 0.5),
              spec.effective_bandwidth(0.1, 0.1));
}

TEST(GpuSpec, GraceHopperHasFatHostLink)
{
    EXPECT_GT(sim::grace_hopper_like().pcie_bw, 10 * sim::rtx3090().pcie_bw);
    EXPECT_LT(sim::rtx3090_pcie3().pcie_bw, sim::rtx3090().pcie_bw);
}

TEST(DeviceMemory, LedgerTracksAllocations)
{
    sim::DeviceMemory mem(sim::rtx3090());
    EXPECT_TRUE(mem.allocate("features", 1 << 30));
    EXPECT_TRUE(mem.allocate("features", 1 << 30));
    EXPECT_EQ(mem.tag_bytes("features"), 2ull << 30);
    EXPECT_EQ(mem.used(), 2ull << 30);
    EXPECT_EQ(mem.remaining(), (24ull - 2) << 30);
    mem.free_tag("features");
    EXPECT_EQ(mem.used(), 0u);
    EXPECT_EQ(mem.peak(), 2ull << 30);
}

TEST(DeviceMemory, RejectsOverCapacity)
{
    sim::DeviceMemory mem(sim::rtx3090());
    EXPECT_FALSE(mem.allocate("huge", 25ull << 30));
    EXPECT_EQ(mem.used(), 0u);
    EXPECT_TRUE(mem.allocate("ok", 20ull << 30));
    EXPECT_FALSE(mem.allocate("more", 5ull << 30));
}

TEST(DeviceMemory, ResizeAdjustsExactly)
{
    sim::DeviceMemory mem(sim::rtx3090());
    ASSERT_TRUE(mem.allocate("cache", 4ull << 30));
    EXPECT_TRUE(mem.resize("cache", 1ull << 30));
    EXPECT_EQ(mem.used(), 1ull << 30);
    EXPECT_TRUE(mem.resize("cache", 0));
    EXPECT_EQ(mem.tag_bytes("cache"), 0u);
}

TEST(KernelModel, MemoryAwareBeatsNaiveAggregation)
{
    const sim::KernelModel model{sim::rtx3090()};
    sim::AggregationWorkload w;
    w.num_targets = 8000;
    w.num_edges = 8000 * 12;
    w.feature_dim = 256;
    const auto naive = model.aggregation_naive(w, 0.044, 0.196);
    const auto aware = model.aggregation_memory_aware(
        w, sim::BlockGeometry{}, 12.0, 0.044, 0.196);
    EXPECT_GT(naive.seconds, aware.seconds);
    // Paper Fig. 11/12: the gain is roughly 1.1x-6.7x.
    EXPECT_LT(naive.seconds / aware.seconds, 10.0);
    EXPECT_GT(naive.seconds / aware.seconds, 1.1);
}

TEST(KernelModel, MemoryAwareFallsBackWhenSharedOverflows)
{
    const sim::KernelModel model{sim::rtx3090()};
    sim::AggregationWorkload w;
    w.num_targets = 100;
    w.num_edges = 100 * 50000; // enormous average degree
    w.feature_dim = 64;
    const auto naive = model.aggregation_naive(w, 0.05, 0.2);
    const auto aware = model.aggregation_memory_aware(
        w, sim::BlockGeometry{}, 50000.0, 0.05, 0.2);
    EXPECT_DOUBLE_EQ(naive.seconds, aware.seconds);
}

TEST(KernelModel, BlockGeometryRespectsThreadLimit)
{
    sim::BlockGeometry geometry; // paper's X=8, Y=32
    EXPECT_EQ(geometry.threads(), 256);
    EXPECT_LE(geometry.threads(), sim::rtx3090().max_threads_per_block);
    // 4XY + 4X|N| bytes.
    EXPECT_EQ(geometry.shared_bytes(10.0), 4u * 8 * 32 + 4u * 8 * 10);
}

TEST(KernelModel, FusedIdMapBeatsSyncByPaperRatio)
{
    const sim::KernelModel model{sim::rtx3090()};
    sim::IdMapWorkload w;
    w.instances = 7'000'000;
    w.uniques = 1'500'000;
    w.probes = 8'000'000;
    const double sync = model.id_map_sync(w);
    const double fused = model.id_map_fused(w);
    EXPECT_GT(sync, fused);
    // Paper Table 8 reports 2.1x-2.7x.
    EXPECT_GT(sync / fused, 1.8);
    EXPECT_LT(sync / fused, 3.2);
}

TEST(KernelModel, CpuSamplingFarSlowerThanGpu)
{
    const sim::KernelModel model{sim::rtx3090()};
    const int64_t edges = 10'000'000;
    EXPECT_GT(model.sample_cpu(edges) / model.sample_gpu(edges), 20.0);
}

TEST(KernelModel, GemmScalesWithFlops)
{
    const sim::KernelModel model{sim::rtx3090()};
    const auto small = model.gemm(1000, 64, 64);
    const auto large = model.gemm(8000, 64, 64);
    EXPECT_GT(large.seconds, small.seconds);
    EXPECT_DOUBLE_EQ(large.flops, 2.0 * 8000 * 64 * 64);
}

TEST(KernelModel, AllreduceZeroForSingleGpu)
{
    const sim::KernelModel model{sim::rtx3090()};
    EXPECT_DOUBLE_EQ(model.allreduce(1 << 20, 1), 0.0);
    EXPECT_GT(model.allreduce(1 << 20, 2), 0.0);
    EXPECT_GT(model.allreduce(1 << 20, 8), model.allreduce(1 << 20, 2));
}

TEST(Roofline, RidgeAndAttainable)
{
    sim::Roofline roofline(sim::rtx3090());
    const double ridge = roofline.ridge_intensity();
    EXPECT_NEAR(ridge, 29.155e12 / 938e9, 1e-6);
    // Below ridge: bandwidth bound; above: compute bound.
    EXPECT_LT(roofline.attainable_gflops(ridge / 10),
              29.155e3 / 10 * 1.01);
    EXPECT_NEAR(roofline.attainable_gflops(ridge * 100), 29155.0, 1.0);
}

TEST(Roofline, PointEfficiencyBounded)
{
    sim::Roofline roofline(sim::rtx3090());
    sim::KernelCost cost;
    cost.flops = 1e9;
    cost.bytes = 6e9;
    cost.seconds = 0.01;
    const auto point = roofline.add("agg", cost);
    EXPECT_GT(point.arithmetic_intensity, 0.0);
    EXPECT_GT(point.efficiency(), 0.0);
    EXPECT_LE(point.efficiency(), 1.0);
    EXPECT_EQ(roofline.points().size(), 1u);
}

} // namespace
} // namespace fastgl
