/**
 * @file
 * Google-benchmark microbenchmarks of the host-side primitives that the
 * framework's throughput depends on: Fused-Map insertion (sequential and
 * concurrent) beside the single-writer IdMap, neighbour sampling, set intersection (Match), greedy
 * reorder, and the numeric aggregation kernel.
 *
 * These measure *real host time* of the real algorithms, complementing
 * the modelled-GPU benches.
 */
#include <benchmark/benchmark.h>

#include "fastgl.h"

namespace {

using namespace fastgl;

const graph::CsrGraph &
bench_graph()
{
    static graph::CsrGraph g = [] {
        graph::RmatParams params;
        params.num_nodes = 1 << 16;
        params.num_edges = 1 << 20;
        params.seed = 1;
        return graph::generate_rmat(params);
    }();
    return g;
}

void
BM_FusedMapInsertSequential(benchmark::State &state)
{
    const size_t n = size_t(state.range(0));
    util::Rng rng(7);
    std::vector<graph::NodeId> stream(n);
    for (auto &g : stream)
        g = graph::NodeId(rng.next_below(n / 4 + 1));
    sample::FusedHashTable table(n);
    for (auto _ : state) {
        table.reset(n);
        table.insert_stream(stream);
        benchmark::DoNotOptimize(table.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_FusedMapInsertSequential)->Range(1 << 12, 1 << 18);

void
BM_IdMapInsertSequential(benchmark::State &state)
{
    const size_t n = size_t(state.range(0));
    util::Rng rng(7);
    std::vector<graph::NodeId> stream(n);
    for (auto &g : stream)
        g = graph::NodeId(rng.next_below(n / 4 + 1));
    sample::IdMap table(n);
    for (auto _ : state) {
        table.reset(n);
        for (graph::NodeId g : stream)
            table.insert(g);
        benchmark::DoNotOptimize(table.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_IdMapInsertSequential)->Range(1 << 12, 1 << 18);

void
BM_FusedMapInsertParallel(benchmark::State &state)
{
    const size_t n = 1 << 17;
    util::Rng rng(7);
    std::vector<graph::NodeId> stream(n);
    for (auto &g : stream)
        g = graph::NodeId(rng.next_below(n / 4 + 1));
    util::ThreadPool pool(size_t(state.range(0)));
    sample::FusedHashTable table(n);
    for (auto _ : state) {
        table.reset(n);
        table.insert_stream_parallel(stream, pool);
        benchmark::DoNotOptimize(table.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_FusedMapInsertParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_NeighborSample(benchmark::State &state)
{
    const graph::CsrGraph &g = bench_graph();
    sample::NeighborSamplerOptions opts;
    opts.seed = 3;
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds;
    for (int64_t i = 0; i < state.range(0); ++i)
        seeds.push_back(graph::NodeId(i * 13 % g.num_nodes()));
    for (auto _ : state) {
        auto sg = sampler.sample(seeds);
        benchmark::DoNotOptimize(sg.num_nodes());
    }
}
BENCHMARK(BM_NeighborSample)->Arg(64)->Arg(256)->Arg(1024);

void
BM_MatchIntersection(benchmark::State &state)
{
    util::Rng rng(5);
    std::vector<graph::NodeId> a, b;
    for (int64_t i = 0; i < state.range(0); ++i) {
        a.push_back(graph::NodeId(rng.next_below(1 << 20)));
        b.push_back(graph::NodeId(rng.next_below(1 << 20)));
    }
    match::NodeSet sa(a), sb(b);
    for (auto _ : state)
        benchmark::DoNotOptimize(sa.intersection_size(sb));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_MatchIntersection)->Range(1 << 10, 1 << 18);

void
BM_GreedyReorder(benchmark::State &state)
{
    util::Rng rng(9);
    std::vector<match::NodeSet> sets;
    for (int64_t i = 0; i < state.range(0); ++i) {
        std::vector<graph::NodeId> nodes;
        for (int k = 0; k < 4000; ++k)
            nodes.push_back(graph::NodeId(rng.next_below(40000)));
        sets.emplace_back(nodes);
    }
    for (auto _ : state) {
        auto result = match::greedy_reorder(sets);
        benchmark::DoNotOptimize(result.order.data());
    }
}
BENCHMARK(BM_GreedyReorder)->Arg(8)->Arg(16)->Arg(32);

void
BM_AggregateForward(benchmark::State &state)
{
    const graph::CsrGraph &g = bench_graph();
    sample::NeighborSamplerOptions opts;
    opts.seed = 11;
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds;
    for (int i = 0; i < 256; ++i)
        seeds.push_back(graph::NodeId(i * 11 + 1));
    const auto sg = sampler.sample(seeds);
    const auto &block = sg.blocks.back();
    const auto weights = compute::gcn_edge_weights(block);
    const int64_t dim = state.range(0);
    util::Rng rng(2);
    compute::Tensor in =
        compute::Tensor::randn(sg.num_nodes(), dim, rng, 1.0f);
    compute::Tensor out(block.num_targets(), dim);
    for (auto _ : state) {
        compute::aggregate_forward(block, weights, in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            block.num_edges() * dim);
}
BENCHMARK(BM_AggregateForward)->Arg(64)->Arg(128)->Arg(256);

void
BM_MemoryAwareTiled(benchmark::State &state)
{
    const graph::CsrGraph &g = bench_graph();
    sample::NeighborSamplerOptions opts;
    opts.seed = 11;
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds;
    for (int i = 0; i < 256; ++i)
        seeds.push_back(graph::NodeId(i * 11 + 1));
    const auto sg = sampler.sample(seeds);
    const auto &block = sg.blocks.back();
    const auto weights = compute::gcn_edge_weights(block);
    const int64_t dim = state.range(0);
    util::Rng rng(2);
    compute::Tensor in =
        compute::Tensor::randn(sg.num_nodes(), dim, rng, 1.0f);
    compute::Tensor out(block.num_targets(), dim);
    util::ThreadPool pool(4);
    compute::a3::Options a3opts;
    a3opts.pool = &pool;
    for (auto _ : state) {
        auto stats =
            compute::a3::forward(block, weights, in, out, a3opts);
        benchmark::DoNotOptimize(stats.blocks_launched);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            block.num_edges() * dim);
}
BENCHMARK(BM_MemoryAwareTiled)->Arg(64)->Arg(128)->Arg(256);

void
BM_CacheReplay(benchmark::State &state)
{
    const graph::CsrGraph &g = bench_graph();
    sample::NeighborSamplerOptions opts;
    opts.seed = 13;
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds;
    for (int i = 0; i < 128; ++i)
        seeds.push_back(graph::NodeId(i * 17 + 3));
    const auto sg = sampler.sample(seeds);
    for (auto _ : state) {
        auto result = compute::replay_naive_aggregation(
            sg.blocks.back(), 128, sim::rtx3090(), 2);
        benchmark::DoNotOptimize(result.l1_hit_rate);
    }
}
BENCHMARK(BM_CacheReplay);

} // namespace

BENCHMARK_MAIN();
