#include "sample/frequency_hashmap.h"

#include "util/logging.h"

namespace fastgl {
namespace sample {

FrequencyHashmap::FrequencyHashmap(size_t capacity_hint)
    : table_(capacity_hint)
{
    uniques_.reserve(capacity_hint);
    counts_.reserve(capacity_hint);
}

bool
FrequencyHashmap::add(graph::NodeId node)
{
    // The stream being counted is fan-out expanded, so its unique count
    // routinely exceeds any up-front hint. Keep the table's load factor
    // under the 0.5 it was designed for by rebuilding at double size
    // before it can fill: re-inserting uniques_ in first-seen order
    // reassigns the exact same dense local IDs, so counts_ stays valid.
    if (static_cast<size_t>(table_.size()) * 2 >= table_.capacity()) {
        table_.reset(uniques_.size() * 2 + 16);
        for (graph::NodeId u : uniques_)
            table_.insert(u);
    }
    ++total_;
    // Sequential insertion assigns dense local IDs in first-seen order,
    // so a new entry's local ID is exactly the index its push_back
    // lands on.
    const graph::NodeId local = table_.find_or_insert(node);
    if (local == size()) {
        uniques_.push_back(node);
        counts_.push_back(1);
        return true;
    }
    ++counts_[static_cast<size_t>(local)];
    return false;
}

void
FrequencyHashmap::add_stream(std::span<const graph::NodeId> stream)
{
    for (graph::NodeId node : stream)
        add(node);
}

void
FrequencyHashmap::reset(size_t capacity_hint)
{
    table_.reset(capacity_hint);
    uniques_.clear();
    counts_.clear();
    total_ = 0;
}

std::vector<int64_t>
FrequencyHashmap::dense_frequencies(graph::NodeId num_nodes) const
{
    std::vector<int64_t> frequencies(static_cast<size_t>(num_nodes), 0);
    for (size_t i = 0; i < uniques_.size(); ++i) {
        const graph::NodeId node = uniques_[i];
        FASTGL_CHECK(node >= 0 && node < num_nodes,
                     "counted node outside the graph");
        frequencies[static_cast<size_t>(node)] = counts_[i];
    }
    return frequencies;
}

} // namespace sample
} // namespace fastgl
