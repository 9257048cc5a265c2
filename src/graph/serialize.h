/**
 * @file
 * Binary serialization for graphs and datasets — the "data loader" role
 * DGL plays in the original system (paper Section 5). Replica generation
 * is deterministic but not free; persisting a dataset makes repeated
 * benchmark runs and external tooling cheap.
 *
 * Format: little-endian, magic + version header, then raw arrays. Not
 * intended to be portable across endianness.
 */
#pragma once

#include <cstdint>
#include <string>

#include "graph/csr_graph.h"
#include "graph/datasets.h"

namespace fastgl {
namespace graph {

/** Write @p graph to @p path. @return false on IO failure. */
bool save_graph(const CsrGraph &graph, const std::string &path);

/**
 * Read a graph written by save_graph.
 * @param[out] graph destination
 * @return false on IO failure, bad magic, or failed validation.
 */
bool load_graph(CsrGraph &graph, const std::string &path);

/**
 * Write a whole dataset (topology + feature/label parameters + split).
 * Features are stored by their generator seed (they are a pure function
 * of it), so files stay small even for wide features.
 */
bool save_dataset(const Dataset &dataset, const std::string &path);

/**
 * Largest feature allocation load_dataset makes: the classes x dim
 * centroid floats, plus nodes x dim floats when features are
 * materialised. That is 8x the largest built-in replica at 100% scale
 * (IGB-large, 120,000 x 1,024 floats = 469 MiB). A header that asks for
 * more is rejected before anything is allocated.
 */
inline constexpr uint64_t kMaxLoadedFeatureBytes = uint64_t(1) << 32;

/** Read a dataset written by save_dataset. @return false on IO
 *  failure, bad magic, failed validation, or a feature shape past
 *  kMaxLoadedFeatureBytes. */
bool load_dataset(Dataset &dataset, const std::string &path,
                  bool materialize_features = true);

} // namespace graph
} // namespace fastgl
