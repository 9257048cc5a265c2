/**
 * @file
 * Hot-path throughput: the adaptive set intersections, the parallel
 * match-degree matrix and the arena-backed samplers. Each intersection
 * row times the merge-only kernel next to the adaptive one and checks
 * that both count the same. The matrix at every pool width and both
 * samplers' output are FNV-hashed and checked against goldens pinned
 * from the pre-overhaul implementations' output on the same inputs.
 * A count mismatch or a digest divergence is fatal (exit 1).
 *
 * Output is a single JSON object on stdout so CI can archive it
 * (tools/ci.sh writes BENCH_hotpath.json). Pass --smoke for a
 * seconds-long run with small sizes (numbers are then noisy; the run
 * only has to complete).
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "graph/generators.h"
#include "match/match_degree.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "bench_witness.h"

namespace {

using namespace fastgl;
using util::fnv;
using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
hash_subgraph(const sample::SampledSubgraph &sg)
{
    uint64_t h = util::kFnvOffset;
    h = fnv(h, static_cast<uint64_t>(sg.num_seeds));
    h = fnv(h, static_cast<uint64_t>(sg.instances));
    for (graph::NodeId n : sg.nodes)
        h = fnv(h, static_cast<uint64_t>(n));
    for (const auto &blk : sg.blocks) {
        for (auto p : blk.indptr)
            h = fnv(h, static_cast<uint64_t>(p));
        for (auto s : blk.sources)
            h = fnv(h, static_cast<uint64_t>(s));
    }
    return h;
}

uint64_t
hash_matrix(const std::vector<std::vector<double>> &m)
{
    uint64_t h = util::kFnvOffset;
    for (const auto &row : m)
        for (double d : row)
            h = fnv(h, util::double_bits(d));
    return h;
}

/**
 * FNV digests of the live output in one mode, pinned from the
 * pre-overhaul implementations' output on the same inputs.
 */
struct Goldens
{
    uint64_t matrix;
    uint64_t neighbor_sampler;
    uint64_t random_walk_sampler;
};

constexpr Goldens kFullGoldens = {0x3A50955FC1C57451ULL,
                                  0x93F897C786070D51ULL,
                                  0xC7E469DB94592B60ULL};
constexpr Goldens kSmokeGoldens = {0x0499086F25991EE9ULL,
                                   0x5C9F07C49E299FDBULL,
                                   0x5732AFF6A84713D6ULL};

// ------------------------------------------------------------------
// Benchmark sections.
// ------------------------------------------------------------------

std::vector<graph::NodeId>
random_sorted_set(util::Rng &rng, size_t size, uint64_t universe)
{
    std::vector<graph::NodeId> v;
    v.reserve(size);
    for (size_t i = 0; i < size; ++i)
        v.push_back(static_cast<graph::NodeId>(rng.next_below(universe)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

struct IntersectionRow
{
    const char *name;
    size_t size_a, size_b;
    uint64_t universe;
    double merge_s = 0.0;
    double adaptive_s = 0.0;
    bool counts_match = true;
};

void
bench_intersections(bool smoke, std::vector<IntersectionRow> &rows)
{
    const int reps = smoke ? 20 : 400;
    rows = {
        {"balanced", 4000, 4000, 20000},
        {"skew_16x", 250, 4000, 20000},
        {"skew_128x", 64, 8192, 40000},
        {"tiny_vs_huge", 8, 32768, 120000},
    };
    util::Rng rng(42);
    for (IntersectionRow &row : rows) {
        const auto a = random_sorted_set(rng, row.size_a, row.universe);
        const auto b = random_sorted_set(rng, row.size_b, row.universe);
        int64_t sink = 0;
        Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            sink += match::detail::intersect_merge(a, b);
        row.merge_s = seconds_since(t0);
        int64_t sink2 = 0;
        t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            sink2 += match::intersect_sorted(a, b);
        row.adaptive_s = seconds_since(t0);
        // Both kernels must count the same; a mismatch is fatal, like
        // a digest that leaves its golden.
        row.counts_match = sink == sink2;
        if (!row.counts_match) {
            std::fprintf(stderr,
                         "FATAL: %s intersection counts %lld (merge), "
                         "%lld (adaptive)\n",
                         row.name, static_cast<long long>(sink),
                         static_cast<long long>(sink2));
            g_diverged = true;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }
    const Goldens &golden = smoke ? kSmokeGoldens : kFullGoldens;

    // ---- adaptive intersection kernels ----------------------------
    std::vector<IntersectionRow> inter_rows;
    bench_intersections(smoke, inter_rows);

    // ---- match-degree matrix --------------------------------------
    const size_t num_sets = smoke ? 16 : 96;
    std::vector<match::NodeSet> sets;
    {
        util::Rng rng(123);
        for (size_t i = 0; i < num_sets; ++i) {
            std::vector<graph::NodeId> v;
            const uint64_t sz = 400 + rng.next_below(smoke ? 400 : 2400);
            for (uint64_t k = 0; k < sz; ++k)
                v.push_back(
                    static_cast<graph::NodeId>(rng.next_below(16384)));
            sets.emplace_back(v);
        }
    }
    const int matrix_reps = smoke ? 1 : 5;

    Clock::time_point t0 = Clock::now();
    std::vector<std::vector<double>> seq_m;
    for (int r = 0; r < matrix_reps; ++r)
        seq_m = match::match_degree_matrix(sets);
    const double seq_matrix_s = seconds_since(t0) / matrix_reps;
    const bool matrix_identical = check_witness(
        "match_degree_matrix", hash_matrix(seq_m), golden.matrix);

    struct ThreadRow
    {
        size_t threads;
        double seconds;
        bool identical;
    };
    std::vector<ThreadRow> thread_rows;
    for (size_t threads : {1, 2, 4, 8}) {
        util::ThreadPool pool(threads);
        std::vector<std::vector<double>> par_m;
        t0 = Clock::now();
        for (int r = 0; r < matrix_reps; ++r)
            par_m = match::match_degree_matrix(sets, pool);
        thread_rows.push_back({threads,
                               seconds_since(t0) / matrix_reps,
                               check_witness("match_degree_matrix",
                                             hash_matrix(par_m),
                                             golden.matrix)});
    }

    // ---- neighbour sampler ----------------------------------------
    graph::RmatParams rp;
    rp.num_nodes = smoke ? (1 << 12) : (1 << 15);
    rp.num_edges = smoke ? (1 << 16) : (1 << 19);
    rp.seed = 7;
    const graph::CsrGraph g = graph::generate_rmat(rp);

    std::vector<graph::NodeId> seeds;
    {
        util::Rng rng(99);
        for (int i = 0; i < 1024; ++i)
            seeds.push_back(static_cast<graph::NodeId>(
                rng.next_below(static_cast<uint64_t>(g.num_nodes()))));
    }
    const int batches = smoke ? 8 : 64;

    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = {5, 10, 15};
    sample::NeighborSampler khop(g, nopts);
    khop.sample(seeds, 999); // warm-up, untimed
    uint64_t khop_hash = 0;
    t0 = Clock::now();
    for (int b = 0; b < batches; ++b)
        khop_hash ^= hash_subgraph(khop.sample(seeds, 1000 + uint64_t(b)));
    const double khop_s = seconds_since(t0);
    const bool khop_identical = check_witness(
        "neighbor_sampler", khop_hash, golden.neighbor_sampler);

    // ---- random-walk sampler --------------------------------------
    sample::RandomWalkOptions wopts;
    sample::RandomWalkSampler walk(g, wopts);
    walk.sample(seeds, 1999); // warm-up, untimed
    uint64_t walk_hash = 0;
    t0 = Clock::now();
    for (int b = 0; b < batches; ++b)
        walk_hash ^= hash_subgraph(walk.sample(seeds, 2000 + uint64_t(b)));
    const double walk_s = seconds_since(t0);
    const bool walk_identical = check_witness(
        "random_walk_sampler", walk_hash, golden.random_walk_sampler);

    // ---- JSON report ----------------------------------------------
    std::printf("{\n");
    std::printf("  \"bench\": \"hotpath\",\n");
    std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");

    std::printf("  \"intersection\": [\n");
    for (size_t i = 0; i < inter_rows.size(); ++i) {
        const IntersectionRow &r = inter_rows[i];
        std::printf("    {\"case\": \"%s\", \"size_a\": %zu, "
                    "\"size_b\": %zu, \"merge_s\": %.6f, "
                    "\"adaptive_s\": %.6f, \"counts_match\": %s}%s\n",
                    r.name, r.size_a, r.size_b, r.merge_s, r.adaptive_s,
                    r.counts_match ? "true" : "false",
                    i + 1 < inter_rows.size() ? "," : "");
    }
    std::printf("  ],\n");

    std::printf("  \"match_degree_matrix\": {\n");
    std::printf("    \"num_sets\": %zu,\n", num_sets);
    std::printf("    \"adaptive_seq_s\": %.6f,\n", seq_matrix_s);
    std::printf("    \"seq_identical\": %s,\n",
                matrix_identical ? "true" : "false");
    std::printf("    \"parallel\": [\n");
    for (size_t i = 0; i < thread_rows.size(); ++i) {
        const ThreadRow &r = thread_rows[i];
        std::printf("      {\"threads\": %zu, \"seconds\": %.6f, "
                    "\"identical\": %s}%s\n",
                    r.threads, r.seconds, r.identical ? "true" : "false",
                    i + 1 < thread_rows.size() ? "," : "");
    }
    std::printf("    ]\n  },\n");

    std::printf("  \"neighbor_sampler\": {\n");
    std::printf("    \"batches\": %d,\n", batches);
    std::printf("    \"batches_per_s\": %.2f,\n", batches / khop_s);
    std::printf("    \"identical\": %s\n  },\n",
                khop_identical ? "true" : "false");

    std::printf("  \"random_walk_sampler\": {\n");
    std::printf("    \"batches\": %d,\n", batches);
    std::printf("    \"batches_per_s\": %.2f,\n", batches / walk_s);
    std::printf("    \"identical\": %s\n  }\n",
                walk_identical ? "true" : "false");
    std::printf("}\n");

    return g_diverged ? 1 : 0;
}
