/**
 * @file
 * Deterministic per-stage pipeline profiler (fastgl::prof).
 *
 * Every number the profiler records is a *virtual-clock* quantity —
 * modelled seconds produced by sim::KernelModel / the PCIe constants
 * from measured counts, or exact integer counts (batch occupancy,
 * shed/drop tallies). The profiler never reads a wall clock and never
 * feeds anything back into the modelled world, which makes its two
 * contracts structural rather than aspirational:
 *
 *  - profiling on vs off leaves losses, latencies and fingerprints
 *    bit-identical (recording is observation only);
 *  - the same run profiles identically at any worker-thread count,
 *    because only virtual quantities are recorded and the recorders
 *    are driven by the single-writer sequencer/epoch loop in
 *    deterministic replay order.
 *
 * The stage taxonomy follows the serving/training stage graph
 * (docs/profiling.md): feeder -> sampler -> gather -> compute ->
 * sequencer, plus an explicit storage stage for the out-of-core tier.
 * The Server additionally records per-model-tier and per-device
 * breakdowns through the same instance.
 *
 * Threading: a Profiler instance is single-writer, exactly like the
 * serving sequencer's virtual state — one thread records during a run,
 * other threads may read only after the owner's join.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace fastgl {
namespace prof {

/** Pipeline stages the profiler can attribute time to. */
enum class Stage
{
    kFeeder = 0, ///< Request/batch intake (admission lives here).
    kSampler,    ///< Ego-net sampling + fused ID mapping.
    kGather,     ///< Feature gather + PCIe/interconnect transfer.
    kCompute,    ///< Modelled forward (+backward) device time.
    kSequencer,  ///< Batching delay in the in-order event machine.
    kStorage,    ///< Out-of-core tier demand reads (stall only).
};

/** Number of stages (size of every per-stage array). */
constexpr size_t kNumStages = 6;

/** Printable stage name ("feeder", "sampler", ...). */
const char *stage_name(Stage stage);

/**
 * Raw accumulator of one stage (or one serve tier): queue waits and
 * service times keep every sample for exact percentiles, the rest are
 * plain counters. All times are virtual seconds.
 */
struct StageProfile
{
    /** Items that passed through the stage (requests or batches). */
    int64_t items = 0;
    /** Sum of per-item occupancy (requests per batch, rows, ...). */
    int64_t occupancy_sum = 0;
    /** Virtual seconds items waited before the stage started them. */
    util::SampleStat queue_wait;
    /** Virtual seconds of stage service per item. */
    util::SampleStat service;
    /** Running sum of service (same accumulation order as recorded). */
    double busy_seconds = 0.0;
    /** Requests refused at this stage by queue-depth shedding. */
    int64_t shed = 0;
    /** Requests refused at this stage by deadline early-drop. */
    int64_t dropped = 0;

    double
    mean_occupancy() const
    {
        return items ? static_cast<double>(occupancy_sum) /
                           static_cast<double>(items)
                     : 0.0;
    }
};

/** Per-modelled-device accounting (serve dispatches, train batches). */
struct DeviceProfile
{
    int64_t batches = 0;
    /** Device service seconds, summed in dispatch order. */
    double busy_seconds = 0.0;
    /** Idle gaps between consecutive dispatches on this device. */
    double idle_seconds = 0.0;
    /** Virtual time the device finished its last batch. */
    double last_free = 0.0;
};

/** Percentile snapshot of one stage/tier, ready for tables and JSON. */
struct StageSummary
{
    std::string name;
    int64_t items = 0;
    double mean_occupancy = 0.0;
    double busy_seconds = 0.0;
    double wait_mean = 0.0;
    double wait_p50 = 0.0;
    double wait_p95 = 0.0;
    double wait_p99 = 0.0;
    double service_mean = 0.0;
    double service_p50 = 0.0;
    double service_p95 = 0.0;
    double service_p99 = 0.0;
    int64_t shed = 0;
    int64_t dropped = 0;
};

/**
 * Aggregated profile of one epoch / one serving run — the value that
 * rides in core::TrainEpochStats / serve::ServingStats and feeds the
 * CLI `--profile` table, `--profile-json`, and the bench archives.
 */
struct ProfileReport
{
    bool enabled = false;
    /** Virtual makespan the stage times are conserved against. */
    double makespan = 0.0;
    /** Pipeline stages, indexed by Stage (always kNumStages entries
     *  when enabled; stages with zero items are kept for schema
     *  stability). */
    std::vector<StageSummary> stages;
    /** Serve model tiers (empty for training epochs). */
    std::vector<StageSummary> tiers;
    /** Modelled devices (empty when the run recorded none). */
    std::vector<DeviceProfile> devices;
    /** Total device busy seconds, summed in global dispatch order —
     *  bit-comparable against ServingStats::gpu_busy_seconds. */
    double device_busy_seconds = 0.0;

    /**
     * Order-sensitive FNV-1a digest of every field above (counts and
     * raw double bit patterns). Two runs profile identically iff this
     * agrees — the golden-hash tests' one-number witness.
     */
    uint64_t fingerprint() const;

    /** Compact JSON object (docs/profiling.md documents the schema). */
    std::string to_json() const;

    /** Human-readable fixed-width table for the CLI `--profile` flag. */
    std::string to_table() const;
};

/**
 * The recorder. Construct enabled or disabled; a disabled profiler is
 * a no-op on every record call (and report() returns an empty,
 * disabled ProfileReport), so call sites never need their own guards
 * for correctness — only for skipping record-argument computation.
 */
class Profiler
{
  public:
    explicit Profiler(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Drop all recorded samples (start of a new epoch / run). */
    void reset();

    /**
     * Record one item serviced by @p stage: it waited @p queue_wait
     * virtual seconds, was serviced in @p service virtual seconds, and
     * carried @p occupancy units of payload (requests in a batch,
     * feature rows, ...).
     */
    void record(Stage stage, double queue_wait, double service,
                int64_t occupancy = 1);

    /** Record a queue-depth shed attributed to @p stage. */
    void count_shed(Stage stage);

    /** Record a deadline drop attributed to @p stage. */
    void count_drop(Stage stage);

    /** Per-serve-tier record (same semantics as record()). */
    void record_tier(size_t tier, double queue_wait, double service,
                     int64_t occupancy);

    /**
     * Record one batch on modelled device @p device: it started
     * @p idle_gap seconds after the device went free, ran @p service
     * seconds, and the device is busy until @p free_at.
     */
    void record_device(int device, double idle_gap, double service,
                       double free_at);

    /** Name tier @p tier in the report (defaults to "tier-N"). */
    void set_tier_name(size_t tier, std::string name);

    /** Set the virtual makespan reported for conservation checks. */
    void set_makespan(double makespan) { makespan_ = makespan; }

    /** Raw accumulator of @p stage (tests / conservation checks). */
    const StageProfile &
    stage(Stage stage) const
    {
        return stages_[static_cast<size_t>(stage)];
    }

    /** Snapshot the percentile report (sorts the sample buffers). */
    ProfileReport report();

  private:
    bool enabled_ = false;
    double makespan_ = 0.0;
    std::array<StageProfile, kNumStages> stages_;
    std::vector<StageProfile> tiers_;
    std::vector<std::string> tier_names_;
    std::vector<DeviceProfile> devices_;
    double device_busy_seconds_ = 0.0;
};

} // namespace prof
} // namespace fastgl
