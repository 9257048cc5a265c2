/**
 * @file
 * Epoch-scoped bump allocator for hot-path scratch memory.
 *
 * The samplers and the Match set algebra need large, short-lived buffers
 * on every call (pending-block edge lists, visit-count arrays, overlap
 * matrices). Allocating them from the general-purpose heap each call
 * costs mmap/munmap churn and page faults at exactly the frequency the
 * overlapped pipeline runs its stages. ArenaAllocator replaces that with
 * pointer bumps over memory that is allocated once and reused forever:
 *
 *   - allocate() bumps a cursor inside a chain of blocks, growing the
 *     chain geometrically when a request does not fit;
 *   - set_watermark() freezes everything allocated so far as persistent
 *     (e.g. a sampler's flat visit-count array sized to the graph);
 *   - reset() rewinds the cursor to the watermark, instantly reclaiming
 *     all per-call scratch without touching the persistent prefix. When
 *     the scratch overflowed into multiple blocks, reset() coalesces the
 *     overflow into one block so steady state is a single bump region.
 *
 * Not thread safe: each consumer (sampler instance, worker thread) owns
 * its own arena, matching core::Pipeline's one sampler per window-pool
 * shard.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace fastgl {
namespace util {

/** Bump allocator with watermark reset; see file comment. */
class ArenaAllocator
{
  public:
    /** @param initial_bytes Capacity of the first block (min 64). */
    explicit ArenaAllocator(size_t initial_bytes = 1 << 16)
    {
        add_block(initial_bytes < 64 ? 64 : initial_bytes);
    }

    ArenaAllocator(const ArenaAllocator &) = delete;
    ArenaAllocator &operator=(const ArenaAllocator &) = delete;

    /**
     * Allocate @p bytes aligned to @p align (a power of two). Never
     * returns nullptr; grows the block chain on demand. A zero-byte
     * request yields a valid, unique-per-call pointer.
     */
    void *
    allocate(size_t bytes, size_t align = alignof(std::max_align_t))
    {
        // Align the address, not the offset: block bases only carry the
        // default operator-new alignment, so over-aligned requests need
        // the base folded in.
        Block &blk = blocks_[current_];
        const auto base = reinterpret_cast<uintptr_t>(blk.data.get());
        const size_t aligned = align_up(base + offset_, align) - base;
        if (aligned + bytes <= blk.capacity) {
            offset_ = aligned + bytes;
            return blk.data.get() + aligned;
        }
        return allocate_slow(bytes, align);
    }

    /**
     * Allocate an uninitialised array of @p count trivially-destructible
     * elements (the arena never runs destructors).
     */
    template <typename T>
    T *
    alloc_array(size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without destructors");
        return static_cast<T *>(
            allocate(count * sizeof(T), alignof(T)));
    }

    /** alloc_array + memset to zero. */
    template <typename T>
    T *
    alloc_zeroed(size_t count)
    {
        T *ptr = alloc_array<T>(count);
        std::memset(static_cast<void *>(ptr), 0, count * sizeof(T));
        return ptr;
    }

    /**
     * Freeze the current cursor as the reset floor. Everything allocated
     * before this call survives reset(); everything after is scratch.
     */
    void
    set_watermark()
    {
        wm_block_ = current_;
        wm_offset_ = offset_;
    }

    /**
     * Rewind to the watermark (block 0, offset 0 when none was set).
     * Existing blocks are kept, so steady-state epochs never touch the
     * heap; when scratch spilled past the watermark block, the overflow
     * blocks are coalesced into one sized to the spill high-water mark.
     */
    void
    reset()
    {
        if (current_ > wm_block_ + 1) {
            // Fragmented overflow: replace everything past the watermark
            // block with a single block big enough for the whole spill,
            // so the next epoch bumps through one contiguous region.
            size_t spill = 0;
            for (size_t b = wm_block_ + 1; b < blocks_.size(); ++b)
                spill += blocks_[b].capacity;
            blocks_.resize(wm_block_ + 1);
            add_block(spill);
        }
        current_ = wm_block_;
        offset_ = wm_offset_;
    }

    /** Total bytes reserved from the heap across all blocks. */
    size_t
    capacity() const
    {
        size_t total = 0;
        for (const Block &blk : blocks_)
            total += blk.capacity;
        return total;
    }

    /** Number of blocks in the chain (1 in steady state). */
    size_t block_count() const { return blocks_.size(); }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        size_t capacity = 0;
    };

    static uintptr_t
    align_up(uintptr_t value, size_t align)
    {
        return (value + align - 1) & ~(uintptr_t(align) - 1);
    }

    void
    add_block(size_t capacity)
    {
        Block blk;
        blk.capacity = capacity;
        // Uninitialised on purpose: allocate() makes no zeroing promise
        // (alloc_zeroed exists for that), and value-initialising here
        // would touch every page of e.g. a 32 MB feature panel before
        // the first real write.
        blk.data = std::make_unique_for_overwrite<std::byte[]>(capacity);
        blocks_.push_back(std::move(blk));
    }

    void *
    allocate_slow(size_t bytes, size_t align)
    {
        // Advance to the next block that fits, growing geometrically
        // from the largest existing block so chains stay short.
        for (;;) {
            if (current_ + 1 >= blocks_.size()) {
                size_t grow = blocks_.back().capacity * 2;
                if (grow < bytes + align)
                    grow = bytes + align;
                add_block(grow);
            }
            ++current_;
            offset_ = 0;
            Block &blk = blocks_[current_];
            const auto base =
                reinterpret_cast<uintptr_t>(blk.data.get());
            const size_t aligned = align_up(base, align) - base;
            if (aligned + bytes <= blk.capacity) {
                offset_ = aligned + bytes;
                return blk.data.get() + aligned;
            }
        }
    }

    std::vector<Block> blocks_;
    size_t current_ = 0;   ///< Index of the block the cursor is in.
    size_t offset_ = 0;    ///< Bump offset inside blocks_[current_].
    size_t wm_block_ = 0;  ///< Watermark block index.
    size_t wm_offset_ = 0; ///< Watermark offset.
};

} // namespace util
} // namespace fastgl
