/**
 * @file
 * Multi-GPU epoch execution over the deterministic device timeline.
 *
 * core::simulate_epoch models one trainer GPU and historically punted
 * on the rest ("data-parallel trainers are symmetric; simulate one and
 * take the max"). This layer generalizes it three ways:
 *
 *  - **Symmetric data parallelism, N asymmetric trainers**: every
 *    device runs its own batch list under the usual overlap structure;
 *    a per-iteration ring allreduce synchronizes the trainers on the
 *    shared timeline (ranks block at their next compute launch until
 *    every rank's previous iteration — compute plus allreduce — has
 *    finished). With one device, or symmetric per-device inputs, the
 *    makespan reproduces core::simulate_epoch bit for bit
 *    (regression-tested).
 *  - **Factored mode** (FGNN/GNNLab): some devices run sampling only,
 *    the rest train. Sampled batches cross the sampler->trainer peer
 *    link (sim::PeerTopology) before the trainer's transfer+compute.
 *  - **Factored + switcher**: FGNN's dynamic rebalancer as a
 *    deterministic scheduling policy — a starving trainer (empty
 *    sample queue, sampling work left) flips to sampling, a sampler
 *    facing a deep ready queue flips to training, and samplers join
 *    the trainers once the epoch's sampling is done. Every flip pays a
 *    modelled switch latency.
 *
 * Everything runs on the virtual clock: results are a pure function of
 * the inputs, witnessed by an FNV fingerprint over the event sequence
 * (the multi-GPU benches are divergence-fatal on it).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/timeline.h"
#include "sim/peer_link.h"
#include "sim/task_schedule.h"

namespace fastgl {
namespace core {

/** Execution structure of the multi-device epoch. */
enum class MultiGpuMode
{
    kSymmetric,        ///< All devices train their own batch list.
    kFactored,         ///< Fixed sampler/trainer role split.
    kFactoredSwitcher, ///< Factored with dynamic role rebalancing.
};

/** Printable mode name ("symmetric", "factored", "factored+switcher"). */
const char *multi_gpu_mode_name(MultiGpuMode mode);

/** What a device is doing in a factored schedule. */
enum class DeviceRole
{
    kSampler,
    kTrainer,
};

/** One batch of work assigned to the multi-device epoch. */
struct MultiGpuBatch
{
    BatchStageTimes times;
    /**
     * Payload a trainer must pull from the producing sampler device in
     * factored mode (subgraph topology + gathered features); charged
     * to the sampler->trainer peer link when the two differ.
     */
    uint64_t io_bytes = 0;
    /** Owning graph partition for affinity routing; -1 = none. */
    int32_t partition = -1;
};

/** Knobs of the multi-device epoch. */
struct MultiGpuConfig
{
    MultiGpuMode mode = MultiGpuMode::kSymmetric;
    /**
     * Per-device overlap structure and the per-iteration ring-allreduce
     * seconds (KernelModel::allreduce for the trainer count), exactly
     * as the single-device simulate_epoch takes them.
     */
    TimelineConfig base;
    int num_devices = 2;
    /** Factored modes: devices [0, num_samplers) start as samplers. */
    int num_samplers = 1;
    /** Modelled cost of one role flip (context + weights reload). */
    double switch_latency = 2e-3;
};

/** Per-device outcome of one multi-GPU epoch. */
struct MultiGpuDeviceStats
{
    DeviceRole final_role = DeviceRole::kTrainer;
    int64_t batches_sampled = 0;
    int64_t batches_trained = 0;
    /** Seconds the device spent executing stages (not idle/switching). */
    double busy_seconds = 0.0;
    /** Trainer seconds spent waiting on an empty sample queue. */
    double starved_seconds = 0.0;
    int role_switches = 0;
};

/** One dynamic role flip (switcher mode). */
struct RoleSwitchEvent
{
    double at = 0.0;
    int device = 0;
    DeviceRole to = DeviceRole::kTrainer;
};

/** Outcome of one multi-device epoch execution. */
struct MultiGpuEpochResult
{
    double makespan = 0.0;
    std::vector<MultiGpuDeviceStats> devices;
    std::vector<RoleSwitchEvent> switches;
    /** Total allreduce seconds charged across devices. */
    double allreduce_seconds = 0.0;
    /**
     * FNV-1a digest of the full event sequence (batch placements,
     * finish-time bit patterns, role flips): two runs agree iff this
     * agrees.
     */
    uint64_t fingerprint = 0;
    /**
     * The executed schedule (symmetric mode only; factored modes run a
     * dynamic event loop and leave it empty). run() has been called;
     * use write_chrome_trace for a per-device timeline.
     */
    sim::TaskSchedule schedule;
};

/**
 * Execute one multi-device epoch.
 *
 * Symmetric mode: @p per_device holds each trainer's batch list
 * (asymmetric lengths allowed). Factored modes: the lists are
 * concatenated in device order into one global sampling queue; initial
 * samplers produce from it, trainers consume in commit order.
 *
 * @param topo optional interconnect; factored modes charge each
 *             cross-device batch handoff to it (per-link traffic
 *             accumulates), null models free peer hops.
 */
MultiGpuEpochResult
simulate_epoch_multi(const std::vector<std::vector<MultiGpuBatch>> &per_device,
                     const MultiGpuConfig &config,
                     sim::PeerTopology *topo = nullptr);

/** Wrap plain stage times into MultiGpuBatch lists (tests, benches). */
std::vector<MultiGpuBatch>
to_multi_gpu_batches(const std::vector<BatchStageTimes> &batches);

/**
 * Partition-affinity batch routing: batch i goes to device
 * batch_partition[i] % num_devices (its partition's cache shard), then
 * overloaded devices shed their latest batches round-robin to the
 * underloaded ones so no device exceeds ceil(B / num_devices). Batches
 * with partition -1 are dealt round-robin. Each returned list is
 * sorted ascending.
 */
std::vector<std::vector<int64_t>>
route_by_affinity(const std::vector<int32_t> &batch_partition,
                  int num_devices);

} // namespace core
} // namespace fastgl
