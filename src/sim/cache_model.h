/**
 * @file
 * Set-associative LRU cache simulator.
 *
 * Used to reproduce the paper's Table 2: the L1/L2 hit rates observed
 * during GNN aggregation. The aggregation kernels replay their real memory
 * access streams (addresses derived from the sampled subgraph's CSR) through
 * a two-level cache hierarchy and report hit rates, which in turn drive the
 * naive kernel's effective bandwidth in the timing model.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace fastgl {
namespace sim {

/** One level of set-associative cache with LRU replacement. */
class CacheModel
{
  public:
    /**
     * @param capacity_bytes total capacity
     * @param line_bytes     line size (power of two)
     * @param associativity  ways per set
     */
    CacheModel(uint64_t capacity_bytes, int line_bytes, int associativity);

    /**
     * Access one byte-address; tracks hit/miss and updates LRU state.
     * @return true on hit.
     */
    bool access(uint64_t address);

    /** Access @p bytes consecutive bytes starting at @p address. */
    void access_range(uint64_t address, uint64_t bytes);

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }

    /** Hit fraction in [0,1]; 0 when no accesses were made. */
    double hit_rate() const;

    /** Drop all cached lines and reset counters. */
    void reset();

    int line_bytes() const { return line_bytes_; }

  private:
    struct Way
    {
        uint64_t tag = ~0ull;
        uint64_t lru = 0;
        bool valid = false;
    };

    int line_bytes_;
    int line_shift_;
    int associativity_;
    uint64_t num_sets_;
    std::vector<Way> ways_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** Two-level hierarchy: accesses filter through L1 then L2. */
class CacheHierarchy
{
  public:
    /**
     * @param l1 per-SM L1 model (the replay is per-thread-block, so one
     *           SM's L1 is representative)
     * @param l2 device-wide L2 model
     */
    CacheHierarchy(CacheModel l1, CacheModel l2)
        : l1_(std::move(l1)), l2_(std::move(l2))
    {}

    /** Access a word; on L1 miss the line is looked up in L2. */
    void access(uint64_t address);

    /** Access a contiguous range line by line. */
    void access_range(uint64_t address, uint64_t bytes);

    const CacheModel &l1() const { return l1_; }
    const CacheModel &l2() const { return l2_; }

    void reset();

  private:
    CacheModel l1_;
    CacheModel l2_;
};

} // namespace sim
} // namespace fastgl
