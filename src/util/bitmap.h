/**
 * @file
 * Dense bitmap over an integer ID range, used as the third leg of the
 * adaptive set-intersection policy (see docs/hotpath_perf.md): when one
 * sorted node set is intersected against many others, loading it into a
 * bitmap once turns each intersection into O(|other|) probes instead of
 * an O(|a| + |b|) merge.
 *
 * The bitmap supports "touched reset": a consumer that set the bits of a
 * sorted ID list can unset exactly those bits afterwards, returning the
 * bitmap to all-zero in O(|list|) instead of O(universe / 64). That is
 * what lets one thread-local bitmap serve every row of a match-degree
 * matrix without per-row memsets. drain() is the dense counterpart: it
 * reads the set bits out in ascending order and zeroes the words as it
 * goes, which is how match::NodeSet sorts a dense ID list.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fastgl {
namespace util {

/** Fixed-universe bitset with cheap bulk load/unload of sorted IDs. */
class Bitmap
{
  public:
    Bitmap() = default;

    /** Construct with @p num_bits bits, all zero. */
    explicit Bitmap(size_t num_bits) { resize(num_bits); }

    /**
     * Ensure capacity for @p num_bits bits. Grows only (new words are
     * zeroed); never shrinks, so a reused bitmap keeps its allocation.
     */
    void
    resize(size_t num_bits)
    {
        const size_t words = (num_bits + 63) / 64;
        if (words > words_.size())
            words_.resize(words, 0);
        if (num_bits > num_bits_)
            num_bits_ = num_bits;
    }

    size_t size() const { return num_bits_; }

    void
    set(size_t bit)
    {
        words_[bit >> 6] |= (uint64_t(1) << (bit & 63));
    }

    void
    unset(size_t bit)
    {
        words_[bit >> 6] &= ~(uint64_t(1) << (bit & 63));
    }

    bool
    test(size_t bit) const
    {
        return (words_[bit >> 6] >> (bit & 63)) & 1;
    }

    /** Zero every word (O(size/64)). */
    void
    clear()
    {
        std::fill(words_.begin(), words_.end(), uint64_t(0));
    }

    /** Number of set bits. */
    int64_t
    count() const
    {
        int64_t total = 0;
        for (uint64_t w : words_)
            total += std::popcount(w);
        return total;
    }

    /**
     * Set bit (id - base) for every id in @p ids with
     * base <= id < base + size(). IDs outside the range are ignored.
     */
    template <typename Id>
    void
    load(std::span<const Id> ids, Id base)
    {
        for (Id id : ids) {
            const uint64_t rel =
                static_cast<uint64_t>(id) - static_cast<uint64_t>(base);
            if (id >= base && rel < num_bits_)
                set(static_cast<size_t>(rel));
        }
    }

    /** Undo a previous load() of the same @p ids / @p base. */
    template <typename Id>
    void
    unload(std::span<const Id> ids, Id base)
    {
        for (Id id : ids) {
            const uint64_t rel =
                static_cast<uint64_t>(id) - static_cast<uint64_t>(base);
            if (id >= base && rel < num_bits_)
                unset(static_cast<size_t>(rel));
        }
    }

    /**
     * Append base + i for every set bit i below @p num_bits to @p out,
     * ascending, and zero every word it reads. After a load of ids that
     * all lie in [base, base + num_bits) the bitmap is all-zero again:
     * the touched reset of a dense load, with no per-id unload pass.
     */
    template <typename Id>
    void
    drain(size_t num_bits, Id base, std::vector<Id> &out)
    {
        const size_t words = (num_bits + 63) / 64;
        for (size_t w = 0; w < words; ++w) {
            uint64_t word = words_[w];
            words_[w] = 0;
            while (word != 0) {
                const uint64_t bit =
                    uint64_t(w) * 64 + uint64_t(std::countr_zero(word));
                out.push_back(static_cast<Id>(
                    static_cast<uint64_t>(base) + bit));
                word &= word - 1;
            }
        }
    }

    /**
     * Count how many ids in sorted @p ids have their (id - base) bit set.
     * Stops early once ids exceed the universe (ids must be ascending).
     */
    template <typename Id>
    int64_t
    probe_count_sorted(std::span<const Id> ids, Id base) const
    {
        int64_t hits = 0;
        for (Id id : ids) {
            if (id < base)
                continue;
            const uint64_t rel =
                static_cast<uint64_t>(id) - static_cast<uint64_t>(base);
            if (rel >= num_bits_)
                break;
            hits += test(static_cast<size_t>(rel)) ? 1 : 0;
        }
        return hits;
    }

    /** |this AND other| over the shared word prefix. */
    int64_t
    intersect_count(const Bitmap &other) const
    {
        const size_t words =
            std::min(words_.size(), other.words_.size());
        int64_t total = 0;
        for (size_t w = 0; w < words; ++w)
            total += std::popcount(words_[w] & other.words_[w]);
        return total;
    }

  private:
    std::vector<uint64_t> words_;
    size_t num_bits_ = 0;
};

} // namespace util
} // namespace fastgl
