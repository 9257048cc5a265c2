#include "store/io_scheduler.h"

#include <algorithm>

#include "util/logging.h"

namespace fastgl {
namespace store {

IoScheduler::IoScheduler(sim::StorageLink *link, int64_t num_blocks,
                         IoSchedulerOptions opts)
    : link_(link), num_blocks_(num_blocks), opts_(opts)
{
    FASTGL_CHECK(link_ != nullptr, "IoScheduler needs a StorageLink");
    FASTGL_CHECK(num_blocks_ >= 0, "negative block count");
    opts_.staging_blocks = std::max<int64_t>(1, opts_.staging_blocks);
    staged_.assign(static_cast<size_t>(num_blocks_), 0);
    seen_stamp_.assign(static_cast<size_t>(num_blocks_), 0);
}

double
IoScheduler::submit(std::span<const int64_t> blocks, bool prefetch)
{
    if (blocks.empty())
        return 0.0;
    // One stamp per submission: seen_stamp_[b] == stamp_ marks b as
    // already handled in THIS submission without clearing the array.
    ++stamp_;
    fresh_.clear();
    for (int64_t block : blocks) {
        FASTGL_CHECK(block >= 0 && block < num_blocks_,
                     "block id out of range");
        ++stats_.requested_blocks;
        if (seen_stamp_[static_cast<size_t>(block)] == stamp_) {
            ++stats_.coalesced_blocks;
            continue;
        }
        seen_stamp_[static_cast<size_t>(block)] = stamp_;
        if (staged_[static_cast<size_t>(block)] != 0) {
            ++stats_.staged_hits;
            if (!prefetch &&
                staged_[static_cast<size_t>(block)] == 2) {
                // First demand touch of a prefetched block: credit the
                // prefetcher once, then treat it as plain staged.
                ++prefetch_hits_;
                staged_[static_cast<size_t>(block)] = 1;
            }
            continue;
        }
        fresh_.push_back(block);
    }
    if (fresh_.empty())
        return 0.0;

    const double seconds = link_->read_blocks(
        static_cast<int64_t>(fresh_.size()), kBlockBytes);
    stats_.fetched_blocks += static_cast<int64_t>(fresh_.size());
    if (prefetch)
        stats_.prefetch_seconds += seconds;
    else
        stats_.demand_seconds += seconds;

    // Stage the fetched blocks, FIFO-evicting the oldest beyond the
    // staging capacity (a bounded bounce buffer, not a second cache).
    for (int64_t block : fresh_) {
        staged_[static_cast<size_t>(block)] =
            prefetch ? uint8_t{2} : uint8_t{1};
        staging_fifo_.push_back(block);
    }
    while (static_cast<int64_t>(staging_fifo_.size()) >
           opts_.staging_blocks) {
        const int64_t victim = staging_fifo_.front();
        staging_fifo_.pop_front();
        staged_[static_cast<size_t>(victim)] = 0;
    }
    return seconds;
}

void
IoScheduler::reset()
{
    std::fill(staged_.begin(), staged_.end(), uint8_t{0});
    staging_fifo_.clear();
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0u);
    stamp_ = 0;
    prefetch_hits_ = 0;
    stats_ = IoStats{};
}

} // namespace store
} // namespace fastgl
