#include "match/feature_cache.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace fastgl {
namespace match {

int64_t
cache_fill_budget(int64_t capacity_rows, int64_t ranking_rows)
{
    return std::max<int64_t>(
        0, std::min<int64_t>(capacity_rows, ranking_rows));
}

void
check_cache_budget(int64_t resident_rows, int64_t capacity_rows,
                   const char *what)
{
    FASTGL_CHECK(resident_rows >= 0,
                 std::string(what) + ": negative resident rows");
    FASTGL_CHECK(resident_rows <= std::max<int64_t>(0, capacity_rows),
                 std::string(what) + ": resident rows exceed capacity");
}

StaticFeatureCache::StaticFeatureCache(
    graph::NodeId num_nodes, const std::vector<graph::NodeId> &ranking,
    int64_t capacity_rows)
    : cached_(static_cast<size_t>(num_nodes), false),
      capacity_rows_(capacity_rows)
{
    const int64_t fill =
        cache_fill_budget(capacity_rows, int64_t(ranking.size()));
    for (int64_t i = 0; i < fill; ++i) {
        const graph::NodeId node = ranking[static_cast<size_t>(i)];
        FASTGL_CHECK(node >= 0 && node < num_nodes,
                     "ranking node out of range");
        if (!cached_[static_cast<size_t>(node)]) {
            cached_[static_cast<size_t>(node)] = true;
            ++resident_rows_;
        }
    }
    check_cache_budget(resident_rows_, capacity_rows_,
                       "StaticFeatureCache");
}

int64_t
StaticFeatureCache::lookup_batch(std::span<const graph::NodeId> nodes) const
{
    int64_t miss = 0;
    for (graph::NodeId node : nodes)
        miss += contains(node) ? 0 : 1;
    return miss;
}

std::vector<graph::NodeId>
degree_ranking(const graph::CsrGraph &graph)
{
    std::vector<graph::NodeId> ranking(
        static_cast<size_t>(graph.num_nodes()));
    std::iota(ranking.begin(), ranking.end(), 0);
    std::stable_sort(ranking.begin(), ranking.end(),
                     [&graph](graph::NodeId a, graph::NodeId b) {
                         return graph.degree(a) > graph.degree(b);
                     });
    return ranking;
}

namespace {

/** File-format magic of the warmup-trace text format. */
constexpr const char *kWarmupMagic = "fastgl-warmup-v1";

} // namespace

bool
save_warmup_trace(const std::string &path, const WarmupTrace &trace)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        util::warn("cannot write warmup trace to " + path);
        return false;
    }
    std::fprintf(f, "%s %zu\n", kWarmupMagic,
                 trace.frequencies.size());
    for (int64_t count : trace.frequencies)
        std::fprintf(f, "%" PRId64 "\n", count);
    std::fclose(f);
    return true;
}

WarmupTrace
load_warmup_trace(const std::string &path)
{
    WarmupTrace trace;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f) {
        util::warn("cannot read warmup trace from " + path);
        return trace;
    }
    char magic[32] = {0};
    size_t n = 0;
    if (std::fscanf(f, "%31s %zu", magic, &n) != 2 ||
        std::string(magic) != kWarmupMagic) {
        util::warn("not a warmup trace: " + path);
        std::fclose(f);
        return trace;
    }
    trace.frequencies.resize(n, 0);
    for (size_t i = 0; i < n; ++i) {
        int64_t count = 0;
        if (std::fscanf(f, "%" SCNd64, &count) != 1) {
            util::warn("truncated warmup trace: " + path);
            trace.frequencies.clear();
            std::fclose(f);
            return trace;
        }
        trace.frequencies[i] = count;
    }
    std::fclose(f);
    return trace;
}

std::vector<graph::NodeId>
presample_ranking(const std::vector<int64_t> &frequencies)
{
    std::vector<graph::NodeId> ranking(frequencies.size());
    std::iota(ranking.begin(), ranking.end(), 0);
    std::stable_sort(ranking.begin(), ranking.end(),
                     [&frequencies](graph::NodeId a, graph::NodeId b) {
                         return frequencies[static_cast<size_t>(a)] >
                                frequencies[static_cast<size_t>(b)];
                     });
    return ranking;
}

std::vector<graph::NodeId>
presample_ranking(std::span<const graph::NodeId> uniques,
                  std::span<const int64_t> counts, graph::NodeId num_nodes)
{
    FASTGL_CHECK(uniques.size() == counts.size(),
                 "uniques/counts size mismatch");
    // The dense overload is a stable sort of an ascending iota by
    // frequency descending: count groups descend, ties inside a group
    // keep ascending node-ID order, and the zero-frequency remainder is
    // one big ascending tie group at the end. Reproducing that from the
    // sparse pairs therefore needs exactly (a) counted nodes sorted by
    // (count desc, id asc) and (b) every uncounted node appended in
    // ascending ID order.
    std::vector<std::pair<int64_t, graph::NodeId>> counted;
    counted.reserve(uniques.size());
    std::vector<bool> has_count(static_cast<size_t>(num_nodes), false);
    for (size_t i = 0; i < uniques.size(); ++i) {
        const graph::NodeId node = uniques[i];
        FASTGL_CHECK(node >= 0 && node < num_nodes,
                     "presample node out of range");
        FASTGL_CHECK(!has_count[static_cast<size_t>(node)],
                     "duplicate node in presample uniques");
        if (counts[i] > 0) {
            counted.emplace_back(counts[i], node);
            has_count[static_cast<size_t>(node)] = true;
        }
    }
    std::sort(counted.begin(), counted.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });
    std::vector<graph::NodeId> ranking;
    ranking.reserve(static_cast<size_t>(num_nodes));
    for (const auto &[count, node] : counted)
        ranking.push_back(node);
    for (graph::NodeId u = 0; u < num_nodes; ++u)
        if (!has_count[static_cast<size_t>(u)])
            ranking.push_back(u);
    return ranking;
}

} // namespace match
} // namespace fastgl
