#include "match/gather_engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace match {

namespace {

/**
 * 128-bit float vector — the same explicit-vector idiom as
 * compute/kernel_impl.inc. Loads/stores go through __builtin_memcpy so
 * alignment never matters and the copy is exactly the scalar bytes.
 */
typedef float vf4 __attribute__((vector_size(16)));

/**
 * Copy one feature row in column chunks: 4 vectors (16 floats) per
 * main-loop step, then a vector tail, then scalars. A copy moves the
 * identical bytes the per-element loop would, so the fast path is
 * bit-identical to FeatureStore::gather_row by construction.
 */
inline void
copy_row_simd(const float *src, float *dst, int64_t dim)
{
    int64_t d = 0;
    for (; d + 16 <= dim; d += 16) {
        vf4 a, b, c, e;
        __builtin_memcpy(&a, src + d, sizeof(vf4));
        __builtin_memcpy(&b, src + d + 4, sizeof(vf4));
        __builtin_memcpy(&c, src + d + 8, sizeof(vf4));
        __builtin_memcpy(&e, src + d + 12, sizeof(vf4));
        __builtin_memcpy(dst + d, &a, sizeof(vf4));
        __builtin_memcpy(dst + d + 4, &b, sizeof(vf4));
        __builtin_memcpy(dst + d + 8, &c, sizeof(vf4));
        __builtin_memcpy(dst + d + 12, &e, sizeof(vf4));
    }
    for (; d + 4 <= dim; d += 4) {
        vf4 v;
        __builtin_memcpy(&v, src + d, sizeof(vf4));
        __builtin_memcpy(dst + d, &v, sizeof(vf4));
    }
    for (; d < dim; ++d)
        dst[d] = src[d];
}

} // namespace

/**
 * Free list of panel buffers behind an engine's panels. Held by
 * shared_ptr from the engine AND from every outstanding lease, so
 * returning a panel after the engine died still has a pool to return
 * to.
 */
struct GatherEngine::PanelPool
{
    /** One panel's memory: cache-line aligned (shard boundaries rarely
     *  split a line, and the vector copies hit aligned stores) and
     *  uninitialised — the gather writes every byte it hands out. */
    struct Buffer
    {
        static constexpr std::align_val_t kAlign{64};

        struct Free
        {
            void
            operator()(std::byte *p) const
            {
                ::operator delete(p, kAlign);
            }
        };

        std::unique_ptr<std::byte, Free> data;
        size_t capacity = 0;

        explicit Buffer(size_t bytes)
            : data(static_cast<std::byte *>(::operator new(bytes, kAlign))),
              capacity(bytes)
        {}
    };

    std::mutex mu;
    std::vector<Buffer> free; ///< LIFO: the back is the warmest buffer.
    uint64_t held_bytes = 0;  ///< Every buffer, free or leased.
};

/**
 * The lease a live panel holds: the buffer its bytes live in plus the
 * pool to return it to. Destruction may happen on any thread (panels
 * travel through queues); the buffer is pushed back under the pool
 * mutex.
 */
struct FeaturePanel::Lease
{
    GatherEngine::PanelPool::Buffer buffer;
    std::shared_ptr<GatherEngine::PanelPool> pool;

    Lease(GatherEngine::PanelPool::Buffer b,
          std::shared_ptr<GatherEngine::PanelPool> p)
        : buffer(std::move(b)), pool(std::move(p))
    {}

    ~Lease()
    {
        std::lock_guard<std::mutex> lock(pool->mu);
        pool->free.push_back(std::move(buffer));
    }
};

void
FeaturePanel::release()
{
    data_ = nullptr;
    rows_ = 0;
    dim_ = 0;
    lease_.reset();
}

GatherEngine::GatherEngine(int threads)
    : panels_(std::make_shared<PanelPool>())
{
    FASTGL_CHECK(threads >= 0, "negative gather thread count");
    if (threads != 1)
        pool_ = std::make_unique<util::ThreadPool>(
            static_cast<size_t>(threads));
}

GatherEngine::~GatherEngine() = default;

int
GatherEngine::threads() const
{
    return pool_ ? static_cast<int>(pool_->size()) : 1;
}

uint64_t
GatherEngine::pooled_bytes() const
{
    std::lock_guard<std::mutex> lock(panels_->mu);
    return panels_->held_bytes;
}

FeaturePanel
GatherEngine::acquire_panel(int64_t rows, int64_t dim)
{
    const size_t bytes =
        static_cast<size_t>(rows) * static_cast<size_t>(dim) *
        sizeof(float);
    // The warmest free buffer that fits is reused whole. When none
    // fits, the warmest is dropped and replaced by one with 1/8 slack,
    // so each buffer tracks the largest panel it served instead of
    // keeping every size it ever grew through. The dropped buffer is
    // freed, and its replacement allocated, outside the pool lock that
    // releasing panels take.
    std::optional<PanelPool::Buffer> buffer, dropped;
    size_t capacity = bytes + bytes / 8;
    {
        std::lock_guard<std::mutex> lock(panels_->mu);
        std::vector<PanelPool::Buffer> &free = panels_->free;
        auto fit = std::find_if(free.rbegin(), free.rend(),
                                [bytes](const PanelPool::Buffer &b) {
                                    return b.capacity >= bytes;
                                });
        if (fit != free.rend()) {
            buffer.emplace(std::move(*fit));
            free.erase(std::next(fit).base());
        } else {
            if (!free.empty()) {
                panels_->held_bytes -= free.back().capacity;
                dropped.emplace(std::move(free.back()));
                free.pop_back();
            }
            panels_->held_bytes += capacity;
        }
    }
    if (!buffer)
        buffer.emplace(capacity);
    FeaturePanel panel;
    panel.data_ = reinterpret_cast<float *>(buffer->data.get());
    panel.rows_ = rows;
    panel.dim_ = dim;
    panel.lease_ = std::make_shared<FeaturePanel::Lease>(
        std::move(*buffer), panels_);
    return panel;
}

FeaturePanel
GatherEngine::gather(const graph::FeatureStore &store,
                     std::span<const graph::NodeId> nodes,
                     const FeaturePanel &shared,
                     std::span<const int64_t> shared_rows)
{
    const auto t0 = std::chrono::steady_clock::now();

    // Hoisted structural pass: one bounds sweep here buys unvalidated
    // row access in the sharded inner loops below.
    store.validate_nodes(nodes);
    const bool with_shared = !shared_rows.empty();
    if (with_shared) {
        FASTGL_CHECK(shared_rows.size() == nodes.size(),
                     "one shared-row index per gathered node");
        const int64_t top =
            *std::max_element(shared_rows.begin(), shared_rows.end());
        FASTGL_CHECK(top < shared.rows() &&
                         (top < 0 || shared.dim() == store.dim()),
                     "shared row outside the shared panel");
    }

    const int64_t rows = static_cast<int64_t>(nodes.size());
    const int64_t dim = store.dim();
    FeaturePanel panel = acquire_panel(rows, dim);
    if (!store.materialized())
        own_ids_.resize(nodes.size());

    float *dst = panel.data();
    const graph::NodeId *ids = nodes.data();
    auto is_shared = [&](size_t i) {
        return with_shared && shared_rows[i] >= 0;
    };
    auto shared_row = [&](size_t i) {
        return shared.data() + shared_rows[i] * dim;
    };
    auto run_shard = [&](size_t begin, size_t end) {
        if (store.materialized()) {
            for (size_t i = begin; i < end; ++i)
                copy_row_simd(is_shared(i)
                                  ? shared_row(i)
                                  : store.row_ptr_unvalidated(ids[i]),
                              dst + static_cast<int64_t>(i) * dim, dim);
            return;
        }
        // Regenerate the rows no shared panel holds in SIMD lanes,
        // packed at the front of the shard, then place every row, last
        // first. The k-th regenerated row moves to a row i >= k, and
        // every packed row still to move lies below i, so a move or a
        // shared copy never overwrites a row still to be read. With
        // nothing shared, every row is already in place.
        size_t own = begin;
        for (size_t i = begin; i < end; ++i) {
            if (!is_shared(i))
                own_ids_[own++] = ids[i];
        }
        store.gather_rows(std::span<const graph::NodeId>(own_ids_).subspan(
                              begin, own - begin),
                          dst + static_cast<int64_t>(begin) * dim);
        for (size_t i = end; i-- > begin;) {
            float *row = dst + static_cast<int64_t>(i) * dim;
            if (is_shared(i))
                copy_row_simd(shared_row(i), row, dim);
            else if (--own != i)
                copy_row_simd(dst + static_cast<int64_t>(own) * dim, row,
                              dim);
        }
    };

    if (pool_ && rows > 0)
        pool_->parallel_for(static_cast<size_t>(rows), run_shard);
    else
        run_shard(0, static_cast<size_t>(rows));

    stats_.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    stats_.rows += rows;
    stats_.bytes += panel.bytes();
    stats_.calls += 1;
    return panel;
}

} // namespace match
} // namespace fastgl
