/**
 * @file
 * Single-writer global-to-local ID map: the table every sampler, the
 * presample FrequencyHashmap and the serve batcher use.
 *
 * Each of those tables has exactly one writer, so IdMap keeps the
 * Fused-Map's open-addressing insert-only design (linear probing, dense
 * local IDs in insertion order) without the atomics FusedHashTable needs
 * for concurrent inserts: slots and the probe counter are plain. Both
 * tables take their slot count and home slot from id_map_slots() and
 * id_map_home(), so one insert/lookup sequence walks the identical probe
 * sequence in either and reports the same probes(), which feeds
 * sim::KernelModel::id_map_fused and through it every modelled second.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"
#include "util/logging.h"

namespace fastgl {
namespace sample {

/** Key of an empty slot; global IDs are non-negative. */
inline constexpr graph::NodeId kEmptySlot = -1;

/**
 * Slot count for @p capacity_hint expected *instances*: the next power
 * of two (at least 16) of twice the hint, bounding the load factor at
 * 0.5 even if every instance were unique.
 */
size_t id_map_slots(size_t capacity_hint);

/** Home slot of @p global in a table of @p mask + 1 slots. */
inline size_t
id_map_home(graph::NodeId global, size_t mask)
{
    // Finalizer-style hash spreading global IDs across slots.
    uint64_t x = static_cast<uint64_t>(global);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(x ^ (x >> 31)) & mask;
}

/** Open-addressing insert-only map assigning dense local IDs; one writer. */
class IdMap
{
  public:
    /** @param capacity_hint expected instances (see id_map_slots()). */
    explicit IdMap(size_t capacity_hint) { reset(capacity_hint); }

    /**
     * Empty the map. Only the slots filled since the last reset are
     * cleared, so the cost follows the uniques, not the table; the
     * table is rebuilt when @p capacity_hint gives another slot count.
     */
    void reset(size_t capacity_hint);

    /**
     * Insert-or-find @p global in one probe walk.
     * @return its local ID, size() - 1 when this call inserted it.
     */
    graph::NodeId find_or_insert(graph::NodeId global);

    /** Insert-or-find @p global. @return true when this call inserted it. */
    bool
    insert(graph::NodeId global)
    {
        const graph::NodeId fresh = next_local_;
        return find_or_insert(global) == fresh;
    }

    /** @return the local ID of @p global, or graph::kInvalidNode. */
    graph::NodeId lookup(graph::NodeId global) const;

    /** Number of unique IDs inserted, i.e. the next local ID. */
    int64_t size() const { return next_local_; }

    /** Probes walked by every insert and lookup since the last reset. */
    uint64_t probes() const { return probes_; }

    /** Slot count (power of two). */
    size_t capacity() const { return slots_.size(); }

    /** result[local] = global, read from the filled slots in O(size()). */
    std::vector<graph::NodeId> local_to_global() const;

  private:
    /** Key and local ID share a slot, so a hit reads one cache line. */
    struct Slot
    {
        graph::NodeId key;
        graph::NodeId local;
    };

    std::vector<Slot> slots_;
    std::vector<size_t> filled_; ///< filled_[local] = that ID's slot.
    int64_t next_local_ = 0;
    mutable uint64_t probes_ = 0;
    size_t mask_ = 0;
};

inline graph::NodeId
IdMap::find_or_insert(graph::NodeId global)
{
    FASTGL_CHECK(global >= 0, "negative global ID");
    size_t index = id_map_home(global, mask_);
    uint64_t walk = 0;
    for (;;) {
        ++walk;
        Slot &slot = slots_[index];
        if (slot.key == global) {
            probes_ += walk;
            return slot.local;
        }
        if (slot.key == kEmptySlot) {
            slot = {global, next_local_};
            filled_.push_back(index);
            probes_ += walk;
            return next_local_++;
        }
        // Conflict: linear probing.
        index = (index + 1) & mask_;
        FASTGL_CHECK(walk <= slots_.size(),
                     "hash table is full — capacity hint too small");
    }
}

inline graph::NodeId
IdMap::lookup(graph::NodeId global) const
{
    size_t index = id_map_home(global, mask_);
    uint64_t walk = 0;
    for (;;) {
        ++walk;
        const Slot &slot = slots_[index];
        // Empty first, so a negative ID never matches an empty slot.
        if (slot.key == kEmptySlot) {
            probes_ += walk;
            return graph::kInvalidNode;
        }
        if (slot.key == global) {
            probes_ += walk;
            return slot.local;
        }
        index = (index + 1) & mask_;
        if (walk > slots_.size())
            return graph::kInvalidNode;
    }
}

} // namespace sample
} // namespace fastgl
