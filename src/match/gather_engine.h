/**
 * @file
 * The batched feature-gather fast path — the Match stage's data-movement
 * engine, given the same treatment compute::KernelEngine gave the
 * numeric kernels.
 *
 * Every consumer of gathered features (core::Trainer, serve::Server's
 * real forwards) historically called graph::FeatureStore::gather_row
 * one node at a time: a cross-TU call plus a bounds check per row, into
 * a freshly heap-allocated tensor per batch. GatherEngine replaces that
 * loop with
 *
 *   - one hoisted structural pass (FeatureStore::validate_nodes) instead
 *     of a bounds check per row — the LayerBlock::validate() pattern;
 *   - a 128-bit-vector column-chunked row copy from the store's matrix
 *     into an output panel (same explicit-vector idiom as
 *     compute/kernel_impl.inc; a row copy moves the identical bytes, so
 *     the fast path is trivially bit-identical to the per-row loop);
 *     an on-demand store instead regenerates each shard's rows through
 *     FeatureStore::gather_rows, several rows at a time in SIMD lanes,
 *     bit-identical to the scalar generator;
 *   - row-sharding over util::ThreadPool — shards are disjoint row
 *     ranges of the panel, so output is **bit-identical at any thread
 *     count** (the KernelEngine contract);
 *   - optionally, some rows copied from a panel gathered earlier
 *     instead of regenerated — the server's batches regenerate each
 *     row their members share once;
 *   - FeaturePanel outputs leased from a pool of buffers, one buffer
 *     per panel: steady-state gathers never touch the heap, and panels
 *     are *handed off* through queues / wrapped as
 *     compute::Tensor::view instead of copied. A panel returns its
 *     buffer to the pool on destruction, from any thread, even after
 *     the engine is gone.
 *
 * The engine only copies rows. Which of them a device cache already
 * holds is store::FeatureResidency::charge's call, not the gather's.
 *
 * See docs/feature_gather.md for the contract and the panel
 * lifetime/ownership rules.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/feature_store.h"

namespace fastgl {
namespace util {
class ThreadPool;
} // namespace util

namespace match {

class GatherEngine;

/**
 * One gathered feature panel: rows() x dim() floats, row-major and
 * contiguous, living in one buffer leased from the engine's panel
 * pool.
 *
 * Ownership rules (docs/feature_gather.md):
 *  - a panel is move-only; moving transfers the lease, never the bytes;
 *  - the data pointer stays valid until the panel (and every span or
 *    Tensor::view derived from it) is done — consumers receive the
 *    panel itself, not a copy;
 *  - destruction (or release()) returns the buffer to the pool, from
 *    any thread; the pool outlives its engine for as long as any
 *    panel is alive, so handing panels down a queue past the engine's
 *    lifetime is safe;
 *  - the engine may not be destroyed while a gather call is in flight,
 *    but outstanding panels never pin it.
 */
class FeaturePanel
{
  public:
    FeaturePanel() = default;
    ~FeaturePanel() = default;

    FeaturePanel(FeaturePanel &&) = default;
    FeaturePanel &operator=(FeaturePanel &&) = default;
    FeaturePanel(const FeaturePanel &) = delete;
    FeaturePanel &operator=(const FeaturePanel &) = delete;

    int64_t rows() const { return rows_; }
    int64_t dim() const { return dim_; }
    bool empty() const { return rows_ * dim_ == 0; }

    float *data() { return data_; }
    const float *data() const { return data_; }

    std::span<float>
    row(int64_t r)
    {
        return {data_ + r * dim_, static_cast<size_t>(dim_)};
    }
    std::span<const float>
    row(int64_t r) const
    {
        return {data_ + r * dim_, static_cast<size_t>(dim_)};
    }

    /** Bytes the panel occupies. */
    uint64_t
    bytes() const
    {
        return static_cast<uint64_t>(rows_) * static_cast<uint64_t>(dim_) *
               sizeof(float);
    }

    /** Return the lease early (panel becomes empty). */
    void release();

  private:
    friend class GatherEngine;
    struct Lease;

    float *data_ = nullptr;
    int64_t rows_ = 0;
    int64_t dim_ = 0;
    std::shared_ptr<Lease> lease_;
};

/** Measured counters of one engine (one caller thread at a time). */
struct GatherStats
{
    double seconds = 0.0; ///< Wall seconds inside gather calls.
    int64_t rows = 0;     ///< Feature rows gathered.
    uint64_t bytes = 0;   ///< Bytes written into panels.
    int64_t calls = 0;    ///< Batched gather calls.

    /** Measured gather bandwidth in GB/s. */
    double
    gb_per_s() const
    {
        return seconds > 0.0 ? double(bytes) / seconds / 1e9 : 0.0;
    }
};

/**
 * Batched feature gather engine; see the file comment. Like
 * compute::KernelEngine, an instance is driven by one caller thread at
 * a time (stats are unsynchronised); the worker threads it fans out to
 * are internal, and separate engines may share one FeatureStore
 * concurrently (an immutable read). Panels may be released on any
 * thread.
 */
class GatherEngine
{
  public:
    /**
     * Engine over @p threads workers: 1 = sequential, 0 = hardware
     * concurrency, n = n workers (owned pool).
     */
    explicit GatherEngine(int threads = 1);

    ~GatherEngine();

    GatherEngine(const GatherEngine &) = delete;
    GatherEngine &operator=(const GatherEngine &) = delete;

    /** Parallel width (1 when sequential). */
    int threads() const;

    /**
     * Gather one feature row per node into a fresh panel
     * ([nodes.size() x store.dim()], local order = @p nodes order),
     * copying some rows from a panel gathered earlier: row i is
     * @p shared's row @p shared_rows[i] when that is >= 0, else node
     * i's row from @p store (every row, when @p shared_rows is empty).
     * On an on-demand store the rows from @p store are regenerated
     * packed together, so the SIMD lanes stay full, then moved into
     * place. Each shared row must hold its node's row, as a gather
     * wrote it; the panel is then bit-identical to the sequential
     * per-row gather_row loop at any thread count. Panics when a node
     * ID or a shared row is out of range (validated once, up front),
     * the two lists differ in length, or the dims differ.
     */
    FeaturePanel gather(const graph::FeatureStore &store,
                        std::span<const graph::NodeId> nodes,
                        const FeaturePanel &shared = {},
                        std::span<const int64_t> shared_rows = {});

    const GatherStats &stats() const { return stats_; }
    void reset_stats() { stats_ = GatherStats{}; }

    /**
     * Bytes of panel memory the pool holds, leased or free. A gather
     * reuses the most recently returned buffer that fits its panel;
     * when none fits, it replaces that buffer with one 1/8 larger than
     * the panel. One panel alive at a time therefore holds at most
     * 9/8 of the largest panel gathered.
     */
    uint64_t pooled_bytes() const;

  private:
    struct PanelPool;
    friend struct FeaturePanel::Lease; ///< Leases return buffers to the pool.

    FeaturePanel acquire_panel(int64_t rows, int64_t dim);

    std::unique_ptr<util::ThreadPool> pool_; ///< Null = sequential.
    std::shared_ptr<PanelPool> panels_;      ///< Kept alive by leases too.
    GatherStats stats_;
    /** On-demand gathers: the IDs of the rows each shard regenerates,
     *  packed at the front of the shard's range. */
    std::vector<graph::NodeId> own_ids_;
};

} // namespace match
} // namespace fastgl
