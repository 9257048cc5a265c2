/**
 * @file
 * Dataset registry: scaled-down synthetic replicas of the five graphs the
 * paper evaluates on (Table 6), plus their full-scale specifications for
 * the analytic memory experiments (Tables 1 and 9).
 *
 * Substitution note (see DESIGN.md): the real datasets are tens to hundreds
 * of GB and are not available offline. Each replica preserves the feature
 * dimension, class count, degree *shape* (power-law skew), and the ratio of
 * batch size to graph size, which are the quantities FastGL's three
 * techniques interact with. Full-scale node/edge/feature statistics are
 * retained in FullScaleSpec for capacity analytics.
 */
#pragma once

#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/feature_store.h"

namespace fastgl {
namespace graph {

/** Identifiers for the five evaluation graphs. */
enum class DatasetId { kReddit, kProducts, kMag, kIgbLarge, kPapers100M };

/** All dataset ids in the paper's presentation order. */
const std::vector<DatasetId> &all_datasets();

/** Short name as used in the paper's tables ("RD", "PR", ...). */
std::string dataset_short_name(DatasetId id);

/** Full name ("Reddit", "Products", ...). */
std::string dataset_name(DatasetId id);

/** Statistics of the real dataset (paper Table 6). */
struct FullScaleSpec
{
    int64_t nodes;       ///< Node count of the real graph.
    int64_t edges;       ///< Directed edge count of the real graph.
    int feature_dim;     ///< Node feature dimension.
    int num_classes;     ///< Label classes.
    int64_t batch_size;  ///< Paper's batch size (8000).
    double train_fraction; ///< Fraction of nodes that are training nodes.
};

/** Full-scale statistics for @p id (paper Table 6). */
FullScaleSpec full_scale_spec(DatasetId id);

/** A loaded dataset: topology + features + train split. */
struct Dataset
{
    DatasetId id;
    std::string name;
    CsrGraph graph;
    FeatureStore features;
    std::vector<NodeId> train_nodes;
    std::vector<NodeId> val_nodes;  ///< Held-out validation nodes.
    std::vector<NodeId> test_nodes; ///< Held-out test nodes.
    int64_t batch_size;   ///< Replica batch size (scaled from 8000).
    double scale;         ///< nodes(replica) / nodes(full).
};

/** Options controlling replica construction. */
struct ReplicaOptions
{
    /**
     * Global size multiplier on the default replica size; 1.0 gives the
     * standard sizes (documented in datasets.cpp), smaller values give
     * faster unit-test graphs.
     */
    double size_factor = 1.0;
    uint64_t seed = 20240427; ///< ASPLOS'24 conference date.
    bool materialize_features = true;
};

/** Build the scaled-down replica of dataset @p id. */
Dataset load_replica(DatasetId id, const ReplicaOptions &opts = {});

} // namespace graph
} // namespace fastgl
