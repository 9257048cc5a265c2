#include "sim/cache_model.h"

#include "util/logging.h"

namespace fastgl {
namespace sim {

namespace {

int
log2_exact(uint64_t value)
{
    int shift = 0;
    while ((1ull << shift) < value)
        ++shift;
    FASTGL_CHECK((1ull << shift) == value, "value must be a power of two");
    return shift;
}

} // namespace

CacheModel::CacheModel(uint64_t capacity_bytes, int line_bytes,
                       int associativity)
    : line_bytes_(line_bytes),
      line_shift_(log2_exact(static_cast<uint64_t>(line_bytes))),
      associativity_(associativity)
{
    FASTGL_CHECK(associativity > 0, "associativity must be positive");
    num_sets_ = capacity_bytes /
                (static_cast<uint64_t>(line_bytes) * associativity);
    FASTGL_CHECK(num_sets_ > 0, "cache too small for one set");
    ways_.assign(num_sets_ * associativity_, Way{});
}

bool
CacheModel::access(uint64_t address)
{
    const uint64_t line = address >> line_shift_;
    const uint64_t set = line % num_sets_;
    Way *base = &ways_[set * associativity_];
    ++tick_;

    int victim = 0;
    uint64_t oldest = ~0ull;
    for (int w = 0; w < associativity_; ++w) {
        if (base[w].valid && base[w].tag == line) {
            base[w].lru = tick_;
            ++hits_;
            return true;
        }
        if (!base[w].valid) {
            victim = w;
            oldest = 0;
        } else if (base[w].lru < oldest) {
            victim = w;
            oldest = base[w].lru;
        }
    }
    base[victim].valid = true;
    base[victim].tag = line;
    base[victim].lru = tick_;
    ++misses_;
    return false;
}

void
CacheModel::access_range(uint64_t address, uint64_t bytes)
{
    if (bytes == 0)
        return;
    const uint64_t first = address >> line_shift_;
    const uint64_t last = (address + bytes - 1) >> line_shift_;
    for (uint64_t line = first; line <= last; ++line)
        access(line << line_shift_);
}

double
CacheModel::hit_rate() const
{
    const uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
}

void
CacheModel::reset()
{
    ways_.assign(ways_.size(), Way{});
    tick_ = hits_ = misses_ = 0;
}

void
CacheHierarchy::access(uint64_t address)
{
    if (!l1_.access(address))
        l2_.access(address);
}

void
CacheHierarchy::access_range(uint64_t address, uint64_t bytes)
{
    if (bytes == 0)
        return;
    const int line = l1_.line_bytes();
    const uint64_t first = address / line;
    const uint64_t last = (address + bytes - 1) / line;
    for (uint64_t l = first; l <= last; ++l)
        access(l * line);
}

void
CacheHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
}

} // namespace sim
} // namespace fastgl
