/**
 * @file
 * Lock-free global-to-local ID map — the paper's Fused-Map (Algorithm 2).
 *
 * The table fuses hash-table construction with local-ID assignment in one
 * pass built purely from atomic operations: an atomicCAS claims a slot for
 * a global ID (linear probing on conflict) and, when the claim is fresh, an
 * atomicAdd draws the next dense local ID. No thread synchronization is
 * required. The translate step (global->local) runs afterwards, exactly as
 * the paper launches a second kernel after construction.
 *
 * This is a real concurrent data structure (std::atomic compare_exchange),
 * not a model: the property tests insert from many threads and verify the
 * resulting mapping is a dense bijection. The samplers and the serve
 * batcher each have one writer and use sample::IdMap, which shares this
 * table's slot count and hash, so both walk the same probe sequence.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace sample {

/** Open-addressing insert-only hash map assigning dense local IDs. */
class FusedHashTable
{
  public:
    /** @param capacity_hint expected instances (see id_map_slots()). */
    explicit FusedHashTable(size_t capacity_hint);

    /**
     * Clear all entries by sweeping the key array; re-sizes when
     * @p capacity_hint gives another slot count.
     */
    void reset(size_t capacity_hint);

    /**
     * Insert-or-find @p global (Algorithm 2 Fused_Map). Thread safe.
     * @return true when this call created the entry (Flag == False path).
     */
    bool insert(graph::NodeId global);

    /** Insert a whole stream sequentially. */
    void insert_stream(std::span<const graph::NodeId> stream);

    /** Insert a stream with genuine concurrency via @p pool. */
    void insert_stream_parallel(std::span<const graph::NodeId> stream,
                                util::ThreadPool &pool);

    /**
     * Translate a global ID to its local ID. Must not run concurrently
     * with inserts (the paper's second kernel): insert() publishes the
     * key before its value, so only after the insert phase quiesces
     * (e.g. a thread-pool join) is every visible key's value valid —
     * a racing lookup could read a stale value from a previous epoch,
     * since reset() deliberately does not sweep the value array.
     * @return local ID, or graph::kInvalidNode when absent.
     */
    graph::NodeId lookup(graph::NodeId global) const;

    /** Number of unique IDs inserted, i.e. the next local ID. */
    int64_t size() const { return next_local_.load(std::memory_order_acquire); }

    /** Total linear probes performed by all insert/lookup calls. */
    uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }

    /** Slot count (power of two). */
    size_t capacity() const { return keys_.size(); }

    /**
     * Local-to-global table: result[local] = global. Requires quiescence.
     */
    std::vector<graph::NodeId> local_to_global() const;

  private:
    std::vector<std::atomic<graph::NodeId>> keys_;
    std::vector<std::atomic<int64_t>> values_;
    std::atomic<int64_t> next_local_{0};
    mutable std::atomic<uint64_t> probes_{0};
    size_t mask_ = 0;
};

} // namespace sample
} // namespace fastgl
