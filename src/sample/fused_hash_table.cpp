#include "sample/fused_hash_table.h"

#include "sample/id_map.h"
#include "util/logging.h"

namespace fastgl {
namespace sample {

FusedHashTable::FusedHashTable(size_t capacity_hint)
{
    reset(capacity_hint);
}

void
FusedHashTable::reset(size_t capacity_hint)
{
    const size_t slots = id_map_slots(capacity_hint);
    if (slots != keys_.size()) {
        // std::atomic is not movable; rebuild the arrays.
        keys_ = std::vector<std::atomic<graph::NodeId>>(slots);
        values_ = std::vector<std::atomic<int64_t>>(slots);
        mask_ = slots - 1;
    }
    for (auto &key : keys_)
        key.store(kEmptySlot, std::memory_order_relaxed);
    // values_ needs no sweep — but only because of the API contract
    // that lookups run after the insert phase has quiesced (see
    // lookup()): a slot's value is only read after its key matched,
    // and by quiescence every fresh insert's value store is visible.
    // insert() publishes the key (CAS) *before* storing the value, so
    // under a forbidden concurrent insert+lookup a matched key could
    // pair with a stale value from a previous epoch — an in-range,
    // silently wrong local ID, not the zero the old full sweep gave.
    next_local_.store(0, std::memory_order_relaxed);
    probes_.store(0, std::memory_order_relaxed);
}

bool
FusedHashTable::insert(graph::NodeId global)
{
    FASTGL_CHECK(global >= 0, "negative global ID");
    size_t index = id_map_home(global, mask_);
    uint64_t local_probes = 0;
    for (;;) {
        ++local_probes;
        std::atomic<graph::NodeId> &slot = keys_[index];
        // Cheap test before the CAS: most probes in a sampling batch
        // land on an already-claimed slot (duplicate instances), and a
        // plain acquire load avoids the atomic RMW entirely. Keys are
        // write-once, so a non-empty observation is final and the probe
        // walk is the one the CAS-only version would take.
        graph::NodeId seen = slot.load(std::memory_order_acquire);
        if (seen == kEmptySlot) {
            graph::NodeId expected = kEmptySlot;
            // Algorithm 2 line 13:
            // Val = atomicCAS(HashIndex, -1, GlobalID).
            if (slot.compare_exchange_strong(expected, global,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
                // Flag == False: fresh insertion — draw the next local
                // ID (line 28-29: value <- LocalID; atomicAdd(...)).
                const int64_t local =
                    next_local_.fetch_add(1, std::memory_order_acq_rel);
                values_[index].store(local, std::memory_order_release);
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return true;
            }
            seen = expected; // Lost the race; expected holds the owner.
        }
        if (seen == global) {
            // Flag == True: another thread owns this global ID; no-op.
            probes_.fetch_add(local_probes, std::memory_order_relaxed);
            return false;
        }
        // Conflict: linear probing (line 20).
        index = (index + 1) & mask_;
        FASTGL_CHECK(local_probes <= keys_.size(),
                     "hash table is full — capacity hint too small");
    }
}

void
FusedHashTable::insert_stream(std::span<const graph::NodeId> stream)
{
    for (graph::NodeId global : stream)
        insert(global);
}

void
FusedHashTable::insert_stream_parallel(
    std::span<const graph::NodeId> stream, util::ThreadPool &pool)
{
    pool.parallel_for(stream.size(), [this, stream](size_t begin,
                                                    size_t end) {
        for (size_t i = begin; i < end; ++i)
            insert(stream[i]);
    });
}

graph::NodeId
FusedHashTable::lookup(graph::NodeId global) const
{
    size_t index = id_map_home(global, mask_);
    uint64_t local_probes = 0;
    for (;;) {
        ++local_probes;
        const graph::NodeId key = keys_[index].load(std::memory_order_acquire);
        // Empty first, so a negative ID never matches an empty slot.
        if (key == kEmptySlot) {
            probes_.fetch_add(local_probes, std::memory_order_relaxed);
            return graph::kInvalidNode;
        }
        if (key == global) {
            probes_.fetch_add(local_probes, std::memory_order_relaxed);
            return values_[index].load(std::memory_order_acquire);
        }
        index = (index + 1) & mask_;
        if (local_probes > keys_.size())
            return graph::kInvalidNode;
    }
}

std::vector<graph::NodeId>
FusedHashTable::local_to_global() const
{
    std::vector<graph::NodeId> result(
        static_cast<size_t>(size()), graph::kInvalidNode);
    for (size_t i = 0; i < keys_.size(); ++i) {
        const graph::NodeId key = keys_[i].load(std::memory_order_acquire);
        if (key != kEmptySlot) {
            const int64_t local =
                values_[i].load(std::memory_order_acquire);
            FASTGL_CHECK(local >= 0 &&
                             local < static_cast<int64_t>(result.size()),
                         "local ID out of range");
            result[static_cast<size_t>(local)] = key;
        }
    }
    return result;
}

} // namespace sample
} // namespace fastgl
