/**
 * @file
 * Per-phase time accounting for the sampling-based training loop — the
 * structure behind every breakdown figure in the paper (Figs. 1, 3, 15).
 */
#pragma once

#include <cstdint>

namespace fastgl {
namespace core {

/** Modelled seconds spent in each training phase. */
struct PhaseBreakdown
{
    double sample = 0.0;   ///< Subgraph sampling (traversal).
    double id_map = 0.0;   ///< Global->local ID conversion.
    double io = 0.0;       ///< Host->device feature + topology transfer.
    double compute = 0.0;  ///< Forward + backward (+ preprocess).
    double allreduce = 0.0;///< Gradient synchronization.

    /** Sample phase as the paper reports it (traversal + ID map). */
    double sample_total() const { return sample + id_map; }

    double
    total() const
    {
        return sample + id_map + io + compute + allreduce;
    }

    PhaseBreakdown &
    operator+=(const PhaseBreakdown &other)
    {
        sample += other.sample;
        id_map += other.id_map;
        io += other.io;
        compute += other.compute;
        allreduce += other.allreduce;
        return *this;
    }
};

/** One epoch's modelled outcome plus traffic statistics. */
struct EpochResult
{
    PhaseBreakdown phases;   ///< Summed across iterations (work view).
    double epoch_seconds = 0.0; ///< Wall-clock epoch time (overlap-aware).
    int64_t batches = 0;
    int64_t nodes_loaded = 0;   ///< Feature rows that crossed PCIe.
    int64_t nodes_reused = 0;   ///< Rows saved by Match.
    int64_t cache_hits = 0;     ///< Rows saved by the static cache.
    uint64_t bytes_loaded = 0;
    int64_t sampled_instances = 0;
    int64_t unique_nodes = 0;

    /** Fraction of feature rows that did not cross PCIe. */
    double
    reuse_fraction() const
    {
        const int64_t total = nodes_loaded + nodes_reused + cache_hits;
        return total ? double(nodes_reused + cache_hits) / double(total)
                     : 0.0;
    }
};

} // namespace core
} // namespace fastgl
