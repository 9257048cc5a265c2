/**
 * @file
 * Hot-path overhaul validation: before/after throughput of the adaptive
 * set intersections, the parallel match-degree matrix, and the
 * arena-backed samplers. "Before" is replicated in-bench from the
 * pre-overhaul implementations (sequential merge-only intersections,
 * per-call heap scratch, unordered_map visit counts), and every replica
 * is checked to produce bit-identical output to the live code first —
 * the speedups below compare equal work.
 *
 * Output is a single JSON object on stdout so CI can archive it
 * (tools/ci.sh writes BENCH_hotpath.json). Pass --smoke for a
 * seconds-long run with small sizes (numbers are then noisy; the run
 * only has to complete).
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/generators.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "match/match_degree.h"
#include "sample/fused_hash_table.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

// ------------------------------------------------------------------
// Legacy replicas (the pre-overhaul hot paths, verbatim algorithms).
// ------------------------------------------------------------------

/**
 * Pre-overhaul Fused-Map: unconditional CAS per probe and a full sweep
 * of both arrays on every reset (no touched-slot tracking, no
 * test-before-CAS fast path).
 */
class LegacyFusedHashTable
{
  public:
    explicit LegacyFusedHashTable(size_t capacity_hint)
    {
        reset(capacity_hint);
    }

    void
    reset(size_t capacity_hint)
    {
        size_t slots = 16;
        while (slots < capacity_hint * 2 + 1)
            slots <<= 1;
        if (slots != keys_.size()) {
            keys_ = std::vector<std::atomic<graph::NodeId>>(slots);
            values_ = std::vector<std::atomic<int64_t>>(slots);
            mask_ = slots - 1;
        }
        for (auto &key : keys_)
            key.store(-1, std::memory_order_relaxed);
        for (auto &value : values_)
            value.store(0, std::memory_order_relaxed);
        next_local_.store(0, std::memory_order_relaxed);
        probes_.store(0, std::memory_order_relaxed);
    }

    bool
    insert(graph::NodeId global)
    {
        size_t index = slot_for(global);
        uint64_t local_probes = 0;
        for (;;) {
            ++local_probes;
            graph::NodeId expected = -1;
            std::atomic<graph::NodeId> &slot = keys_[index];
            if (slot.compare_exchange_strong(
                    expected, global, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                const int64_t local = next_local_.fetch_add(
                    1, std::memory_order_acq_rel);
                values_[index].store(local, std::memory_order_release);
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return true;
            }
            if (expected == global) {
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return false;
            }
            index = (index + 1) & mask_;
        }
    }

    graph::NodeId
    lookup(graph::NodeId global) const
    {
        size_t index = slot_for(global);
        uint64_t local_probes = 0;
        for (;;) {
            ++local_probes;
            const graph::NodeId key =
                keys_[index].load(std::memory_order_acquire);
            if (key == global) {
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return values_[index].load(std::memory_order_acquire);
            }
            if (key == -1) {
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return graph::kInvalidNode;
            }
            index = (index + 1) & mask_;
        }
    }

    int64_t
    size() const
    {
        return next_local_.load(std::memory_order_acquire);
    }

    uint64_t
    probes() const
    {
        return probes_.load(std::memory_order_relaxed);
    }

  private:
    size_t
    slot_for(graph::NodeId global) const
    {
        uint64_t x = static_cast<uint64_t>(global);
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return static_cast<size_t>(x ^ (x >> 31)) & mask_;
    }

    std::vector<std::atomic<graph::NodeId>> keys_;
    std::vector<std::atomic<int64_t>> values_;
    std::atomic<int64_t> next_local_{0};
    mutable std::atomic<uint64_t> probes_{0};
    size_t mask_ = 0;
};

/** Pre-overhaul matrix: sequential, merge-join for every pair. */
std::vector<std::vector<double>>
legacy_match_degree_matrix(const std::vector<match::NodeSet> &sets)
{
    const size_t n = sets.size();
    std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i) {
        m[i][i] = 1.0;
        for (size_t j = i + 1; j < n; ++j) {
            const int64_t overlap = match::detail::intersect_merge(
                sets[i].sorted(), sets[j].sorted());
            const int64_t denom =
                std::min(sets[i].size(), sets[j].size());
            const double d =
                denom > 0 ? double(overlap) / double(denom) : 0.0;
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    return m;
}

/**
 * Pre-overhaul k-hop sampler: same algorithm and RNG draw order as
 * sample::NeighborSampler, but with the original per-call heap scratch
 * (fresh pending vectors each sample, push_back growth).
 */
class LegacyNeighborSampler
{
  public:
    LegacyNeighborSampler(const graph::CsrGraph &graph,
                          sample::NeighborSamplerOptions opts)
        : graph_(graph), opts_(std::move(opts)), rng_(opts_.seed),
          table_(1024)
    {
    }

    sample::SampledSubgraph
    sample(std::span<const graph::NodeId> seeds, uint64_t rng_seed)
    {
        rng_ = util::Rng(rng_seed);
        const int hops = static_cast<int>(opts_.fanouts.size());

        size_t estimate = seeds.size();
        size_t frontier_estimate = seeds.size();
        for (int h = 0; h < hops; ++h) {
            frontier_estimate *=
                static_cast<size_t>(opts_.fanouts[hops - 1 - h]) + 1;
            estimate += frontier_estimate;
            frontier_estimate =
                std::min(frontier_estimate,
                         static_cast<size_t>(graph_.num_nodes()));
        }
        table_.reset(estimate);

        sample::SampledSubgraph sg;
        sg.num_seeds = static_cast<int64_t>(seeds.size());
        sg.blocks.resize(static_cast<size_t>(hops));
        std::vector<graph::NodeId> &nodes = sg.nodes;
        nodes.reserve(estimate / 4);
        for (graph::NodeId s : seeds) {
            if (table_.insert(s))
                nodes.push_back(s);
            ++sg.instances;
        }

        struct PendingBlock
        {
            std::vector<graph::EdgeId> counts;
            std::vector<graph::NodeId> src_globals;
        };
        std::vector<PendingBlock> pending(
            static_cast<size_t>(hops));
        graph::EdgeId chosen[64];

        for (int h = 0; h < hops; ++h) {
            const int fanout = opts_.fanouts[hops - 1 - h];
            const size_t frontier_size = nodes.size();
            PendingBlock &blk = pending[static_cast<size_t>(h)];
            blk.counts.reserve(frontier_size);
            blk.src_globals.reserve(
                frontier_size * (static_cast<size_t>(fanout) + 1));

            for (size_t t = 0; t < frontier_size; ++t) {
                const graph::NodeId u = nodes[t];
                const auto nbrs = graph_.neighbors(u);
                const graph::EdgeId deg =
                    static_cast<graph::EdgeId>(nbrs.size());
                graph::EdgeId count = 0;
                if (opts_.replace && deg > 0) {
                    for (int k = 0; k < fanout; ++k) {
                        const auto idx =
                            static_cast<graph::EdgeId>(rng_.next_below(
                                static_cast<uint64_t>(deg)));
                        blk.src_globals.push_back(nbrs[idx]);
                        ++count;
                        ++sg.edges_examined;
                    }
                } else if (deg <= fanout) {
                    for (graph::NodeId v : nbrs) {
                        blk.src_globals.push_back(v);
                        ++count;
                    }
                    sg.edges_examined += deg;
                } else {
                    int picked = 0;
                    while (picked < fanout) {
                        const auto idx =
                            static_cast<graph::EdgeId>(rng_.next_below(
                                static_cast<uint64_t>(deg)));
                        ++sg.edges_examined;
                        bool dup = false;
                        for (int c = 0; c < picked; ++c) {
                            if (chosen[c] == idx) {
                                dup = true;
                                break;
                            }
                        }
                        if (dup)
                            continue;
                        chosen[picked++] = idx;
                        blk.src_globals.push_back(nbrs[idx]);
                        ++count;
                    }
                }
                if (opts_.add_self_loops) {
                    blk.src_globals.push_back(u);
                    ++count;
                }
                blk.counts.push_back(count);
            }

            for (graph::NodeId v : blk.src_globals) {
                if (table_.insert(v))
                    nodes.push_back(v);
            }
            sg.instances +=
                static_cast<int64_t>(blk.src_globals.size()) -
                (opts_.add_self_loops
                     ? static_cast<int64_t>(frontier_size)
                     : 0);
        }

        for (int h = 0; h < hops; ++h) {
            PendingBlock &blk = pending[static_cast<size_t>(h)];
            sample::LayerBlock &out = sg.blocks[static_cast<size_t>(h)];
            const size_t num_targets = blk.counts.size();
            out.targets.resize(num_targets);
            std::iota(out.targets.begin(), out.targets.end(), 0);
            out.indptr.resize(num_targets + 1);
            out.indptr[0] = 0;
            for (size_t t = 0; t < num_targets; ++t)
                out.indptr[t + 1] = out.indptr[t] + blk.counts[t];
            out.sources.resize(blk.src_globals.size());
            for (size_t e = 0; e < blk.src_globals.size(); ++e) {
                const graph::NodeId local =
                    table_.lookup(blk.src_globals[e]);
                FASTGL_CHECK(local != graph::kInvalidNode,
                             "sampled node missing from ID map");
                out.sources[e] = local;
            }
        }

        sg.id_map.instances = sg.instances;
        sg.id_map.uniques = table_.size();
        sg.id_map.probes = static_cast<int64_t>(table_.probes());
        return sg;
    }

  private:
    const graph::CsrGraph &graph_;
    sample::NeighborSamplerOptions opts_;
    util::Rng rng_;
    LegacyFusedHashTable table_;
};

/**
 * Pre-overhaul random-walk sampler: unordered_map visit counts rebuilt
 * per seed, per-call heap vectors. Same RNG order and tie-break mix.
 */
class LegacyRandomWalkSampler
{
  public:
    LegacyRandomWalkSampler(const graph::CsrGraph &graph,
                            sample::RandomWalkOptions opts)
        : graph_(graph), opts_(std::move(opts)), rng_(opts_.seed),
          table_(1024)
    {
    }

    sample::SampledSubgraph
    sample(std::span<const graph::NodeId> seeds, uint64_t rng_seed)
    {
        rng_ = util::Rng(rng_seed);
        const size_t estimate =
            seeds.size() * (1 + static_cast<size_t>(opts_.top_k));
        table_.reset(estimate);

        sample::SampledSubgraph sg;
        sg.num_seeds = static_cast<int64_t>(seeds.size());
        sg.blocks.resize(1);
        for (graph::NodeId s : seeds) {
            if (table_.insert(s))
                sg.nodes.push_back(s);
            ++sg.instances;
        }

        sample::LayerBlock &blk = sg.blocks[0];
        std::vector<graph::NodeId> src_globals;
        std::vector<graph::EdgeId> counts;
        counts.reserve(seeds.size());
        std::unordered_map<graph::NodeId, int> visits;
        std::vector<std::pair<int, graph::NodeId>> ranked;

        for (graph::NodeId s : seeds) {
            visits.clear();
            for (int w = 0; w < opts_.num_walks; ++w) {
                graph::NodeId cur = s;
                for (int step = 0; step < opts_.walk_length; ++step) {
                    const auto nbrs = graph_.neighbors(cur);
                    if (nbrs.empty())
                        break;
                    cur = nbrs[rng_.next_below(nbrs.size())];
                    ++sg.edges_examined;
                    if (cur != s)
                        ++visits[cur];
                }
            }
            ranked.clear();
            for (const auto &[node, count] : visits)
                ranked.emplace_back(count, node);
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto &a, const auto &b) {
                          if (a.first != b.first)
                              return a.first > b.first;
                          auto mix = [](graph::NodeId id) {
                              uint64_t x = static_cast<uint64_t>(id);
                              x ^= x >> 33;
                              x *= 0xFF51AFD7ED558CCDULL;
                              x ^= x >> 33;
                              return x;
                          };
                          return mix(a.second) < mix(b.second);
                      });
            graph::EdgeId count = 0;
            const size_t keep = std::min(
                ranked.size(), static_cast<size_t>(opts_.top_k));
            for (size_t i = 0; i < keep; ++i) {
                src_globals.push_back(ranked[i].second);
                ++count;
                ++sg.instances;
            }
            src_globals.push_back(s);
            ++count;
            counts.push_back(count);
        }

        for (graph::NodeId v : src_globals) {
            if (table_.insert(v))
                sg.nodes.push_back(v);
        }
        const size_t num_targets = counts.size();
        blk.targets.resize(num_targets);
        std::iota(blk.targets.begin(), blk.targets.end(), 0);
        blk.indptr.resize(num_targets + 1);
        blk.indptr[0] = 0;
        for (size_t t = 0; t < num_targets; ++t)
            blk.indptr[t + 1] = blk.indptr[t] + counts[t];
        blk.sources.resize(src_globals.size());
        for (size_t e = 0; e < src_globals.size(); ++e) {
            blk.sources[e] = table_.lookup(src_globals[e]);
            FASTGL_CHECK(blk.sources[e] != graph::kInvalidNode,
                         "walk node missing from ID map");
        }

        sg.id_map.instances = sg.instances;
        sg.id_map.uniques = table_.size();
        sg.id_map.probes = static_cast<int64_t>(table_.probes());
        return sg;
    }

  private:
    const graph::CsrGraph &graph_;
    sample::RandomWalkOptions opts_;
    util::Rng rng_;
    LegacyFusedHashTable table_;
};

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
    int64_t checksum = 0;
};

void
bench_intersections(bool smoke, std::vector<IntersectionRow> &rows)
{
    const int reps = smoke ? 20 : 400;
    rows = {
        {"balanced", 4000, 4000, 20000, 0, 0, 0},
        {"skew_16x", 250, 4000, 20000, 0, 0, 0},
        {"skew_128x", 64, 8192, 40000, 0, 0, 0},
        {"tiny_vs_huge", 8, 32768, 120000, 0, 0, 0},
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
        row.checksum = sink - sink2; // must be zero: same counts
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
    std::vector<std::vector<double>> legacy_m;
    for (int r = 0; r < matrix_reps; ++r)
        legacy_m = legacy_match_degree_matrix(sets);
    const double legacy_matrix_s = seconds_since(t0) / matrix_reps;

    t0 = Clock::now();
    std::vector<std::vector<double>> seq_m;
    for (int r = 0; r < matrix_reps; ++r)
        seq_m = match::match_degree_matrix(sets);
    const double seq_matrix_s = seconds_since(t0) / matrix_reps;
    const bool matrix_identical = legacy_m == seq_m;

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
                               par_m == legacy_m});
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

    // Legacy and hot-path runs are interleaved in short rounds so slow
    // machine drift (frequency scaling, co-tenant noise) hits both
    // sides equally; each side samples the same batch-seed sequence.
    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = {5, 10, 15};

    LegacyNeighborSampler legacy_khop(g, nopts);
    sample::NeighborSampler khop(g, nopts);
    legacy_khop.sample(seeds, 999); // warm-up, untimed
    khop.sample(seeds, 999);
    uint64_t legacy_hash = 0, hotpath_hash = 0;
    double legacy_khop_s = 0.0, hotpath_khop_s = 0.0;
    const int rounds = smoke ? 2 : 8;
    const int per_round = batches / rounds;
    for (int r = 0; r < rounds; ++r) {
        t0 = Clock::now();
        for (int i = 0; i < per_round; ++i)
            legacy_hash ^= hash_subgraph(legacy_khop.sample(
                seeds, 1000 + uint64_t(r * per_round + i)));
        legacy_khop_s += seconds_since(t0);
        t0 = Clock::now();
        for (int i = 0; i < per_round; ++i)
            hotpath_hash ^= hash_subgraph(khop.sample(
                seeds, 1000 + uint64_t(r * per_round + i)));
        hotpath_khop_s += seconds_since(t0);
    }

    // ---- random-walk sampler --------------------------------------
    sample::RandomWalkOptions wopts;
    LegacyRandomWalkSampler legacy_walk(g, wopts);
    sample::RandomWalkSampler walk(g, wopts);
    legacy_walk.sample(seeds, 1999); // warm-up, untimed
    walk.sample(seeds, 1999);
    uint64_t legacy_walk_hash = 0, hotpath_walk_hash = 0;
    double legacy_walk_s = 0.0, hotpath_walk_s = 0.0;
    for (int r = 0; r < rounds; ++r) {
        t0 = Clock::now();
        for (int i = 0; i < per_round; ++i)
            legacy_walk_hash ^= hash_subgraph(legacy_walk.sample(
                seeds, 2000 + uint64_t(r * per_round + i)));
        legacy_walk_s += seconds_since(t0);
        t0 = Clock::now();
        for (int i = 0; i < per_round; ++i)
            hotpath_walk_hash ^= hash_subgraph(walk.sample(
                seeds, 2000 + uint64_t(r * per_round + i)));
        hotpath_walk_s += seconds_since(t0);
    }

    // ---- JSON report ----------------------------------------------
    std::printf("{\n");
    std::printf("  \"bench\": \"hotpath\",\n");
    std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");

    std::printf("  \"intersection\": [\n");
    for (size_t i = 0; i < inter_rows.size(); ++i) {
        const IntersectionRow &r = inter_rows[i];
        std::printf("    {\"case\": \"%s\", \"size_a\": %zu, "
                    "\"size_b\": %zu, \"merge_s\": %.6f, "
                    "\"adaptive_s\": %.6f, \"speedup\": %.3f, "
                    "\"counts_match\": %s}%s\n",
                    r.name, r.size_a, r.size_b, r.merge_s,
                    r.adaptive_s,
                    r.adaptive_s > 0 ? r.merge_s / r.adaptive_s : 0.0,
                    r.checksum == 0 ? "true" : "false",
                    i + 1 < inter_rows.size() ? "," : "");
    }
    std::printf("  ],\n");

    std::printf("  \"match_degree_matrix\": {\n");
    std::printf("    \"num_sets\": %zu,\n", num_sets);
    std::printf("    \"legacy_merge_seq_s\": %.6f,\n", legacy_matrix_s);
    std::printf("    \"adaptive_seq_s\": %.6f,\n", seq_matrix_s);
    std::printf("    \"adaptive_seq_speedup\": %.3f,\n",
                seq_matrix_s > 0 ? legacy_matrix_s / seq_matrix_s : 0.0);
    std::printf("    \"seq_identical\": %s,\n",
                matrix_identical ? "true" : "false");
    std::printf("    \"parallel\": [\n");
    for (size_t i = 0; i < thread_rows.size(); ++i) {
        const ThreadRow &r = thread_rows[i];
        std::printf("      {\"threads\": %zu, \"seconds\": %.6f, "
                    "\"speedup_vs_legacy\": %.3f, \"identical\": %s}%s\n",
                    r.threads, r.seconds,
                    r.seconds > 0 ? legacy_matrix_s / r.seconds : 0.0,
                    r.identical ? "true" : "false",
                    i + 1 < thread_rows.size() ? "," : "");
    }
    std::printf("    ]\n  },\n");

    std::printf("  \"neighbor_sampler\": {\n");
    std::printf("    \"batches\": %d,\n", batches);
    std::printf("    \"legacy_batches_per_s\": %.2f,\n",
                batches / legacy_khop_s);
    std::printf("    \"hotpath_batches_per_s\": %.2f,\n",
                batches / hotpath_khop_s);
    std::printf("    \"speedup\": %.3f,\n",
                legacy_khop_s / hotpath_khop_s);
    std::printf("    \"identical\": %s\n  },\n",
                legacy_hash == hotpath_hash ? "true" : "false");

    std::printf("  \"random_walk_sampler\": {\n");
    std::printf("    \"batches\": %d,\n", batches);
    std::printf("    \"legacy_batches_per_s\": %.2f,\n",
                batches / legacy_walk_s);
    std::printf("    \"hotpath_batches_per_s\": %.2f,\n",
                batches / hotpath_walk_s);
    std::printf("    \"speedup\": %.3f,\n",
                legacy_walk_s / hotpath_walk_s);
    std::printf("    \"identical\": %s\n  }\n",
                legacy_walk_hash == hotpath_walk_hash ? "true"
                                                      : "false");
    std::printf("}\n");

    // Replica divergence means the comparison was not apples-to-apples.
    if (legacy_hash != hotpath_hash ||
        legacy_walk_hash != hotpath_walk_hash || !matrix_identical) {
        std::fprintf(stderr,
                     "FATAL: legacy replica output diverged from the "
                     "live implementation\n");
        return 1;
    }
    return 0;
}
