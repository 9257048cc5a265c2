/**
 * @file
 * In-order reassembly ring: the single-writer sequencer stage of an
 * overlapped executor.
 *
 * Producer threads finish items out of order, but the stage after them
 * is stateful and must consume items strictly by sequence number —
 * serve::Server replays requests through its virtual-clock event
 * machine. The sequencer parks each delivered item at slot
 * `seq % capacity` until every earlier sequence number has arrived,
 * then releases the run of consecutive items:
 *
 *   ring.put(item.seq, std::move(item));
 *   while (ring.ready())
 *       consume(ring.pop());
 *
 * Capacity is seeded with the usual number of items in flight, but that
 * is an estimate, not a bound: items already parked widen the gap to
 * next(), and one slow item lets the producers run arbitrarily far
 * ahead. A put at least one capacity past next() therefore doubles the
 * ring and re-homes the parked items, so the common path stays
 * allocation-free while the semantics stay unbounded.
 *
 * Not thread-safe: one sequencer thread owns the ring, or callers
 * serialise on their own lock.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace fastgl {
namespace util {

/** Releases out-of-order items in sequence order 0, 1, 2, ... */
template <typename T>
class InOrderRing
{
  public:
    /** @param capacity initial slot count (>= 1; grows on demand). */
    explicit InOrderRing(size_t capacity = 1)
        : slots_(std::max<size_t>(1, capacity))
    {
    }

    /**
     * Park @p item under sequence number @p seq. Panics when @p seq was
     * already released; grows the ring when @p seq lies a full
     * capacity or more past next().
     */
    void
    put(size_t seq, T item)
    {
        FASTGL_CHECK(seq >= next_, "sequence number regressed");
        if (seq - next_ >= slots_.size())
            grow(seq - next_ + 1);
        slots_[seq % slots_.size()].emplace(std::move(item));
    }

    /** True when the item with sequence number next() is parked. */
    bool
    ready() const
    {
        return slots_[next_ % slots_.size()].has_value();
    }

    /** Release the item numbered next() and advance; requires ready(). */
    T
    pop()
    {
        std::optional<T> &slot = slots_[next_ % slots_.size()];
        FASTGL_CHECK(slot.has_value(), "pop() before the next item");
        T item = std::move(*slot);
        slot.reset();
        ++next_;
        return item;
    }

    /** Sequence number the next pop() releases (= items popped). */
    size_t next() const { return next_; }

    /** Current slot count. */
    size_t capacity() const { return slots_.size(); }

  private:
    /** Double until @p min_cap slots fit. Every parked item lies in
     *  the window [next_, next_ + capacity), so it is re-homed by its
     *  offset in that window — no key needed from the item. */
    void
    grow(size_t min_cap)
    {
        const size_t cap = slots_.size();
        size_t bigger = cap;
        while (bigger < min_cap)
            bigger *= 2;
        std::vector<std::optional<T>> grown(bigger);
        for (size_t k = 0; k < cap; ++k) {
            std::optional<T> &slot = slots_[(next_ + k) % cap];
            if (slot)
                grown[(next_ + k) % bigger] = std::move(slot);
        }
        slots_.swap(grown);
    }

    std::vector<std::optional<T>> slots_;
    size_t next_ = 0;
};

} // namespace util
} // namespace fastgl
