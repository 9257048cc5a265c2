#include "core/multi_gpu.h"

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <string>

#include "util/fnv.h"
#include "util/logging.h"

namespace fastgl {
namespace core {

namespace {

using util::double_bits;
using util::fnv;
using util::kFnvOffset;

/**
 * Symmetric data parallelism on the static list scheduler: each device
 * gets its own sampler/copy/compute resource triple and the exact
 * per-batch dependency structure of core::simulate_epoch. Allreduce
 * stays folded into the compute task's duration (as in the
 * single-device model); the ring barrier is expressed as cross-device
 * dependencies — device d's iteration-i compute waits for every
 * device's iteration-(i-1) folded compute+allreduce task. For
 * symmetric inputs the cross deps finish simultaneously, `max` is
 * exact on doubles, and the single rounding operation (start +
 * duration) is unchanged, so the makespan reproduces the legacy model
 * bit for bit.
 */
MultiGpuEpochResult
simulate_symmetric(const std::vector<std::vector<MultiGpuBatch>> &per_device,
                   const MultiGpuConfig &config)
{
    const int num_devices = static_cast<int>(per_device.size());
    MultiGpuEpochResult result;
    result.devices.assign(static_cast<size_t>(num_devices),
                          MultiGpuDeviceStats{});

    sim::TaskSchedule &schedule = result.schedule;
    std::vector<int> res_sample, res_copy, res_compute;
    for (int d = 0; d < num_devices; ++d) {
        const std::string tag = "gpu" + std::to_string(d);
        res_sample.push_back(schedule.add_resource(
            config.base.dedicated_sampler ? tag + "-sampler"
                                          : tag + "-sample"));
        res_copy.push_back(schedule.add_resource(tag + "-copy"));
        res_compute.push_back(schedule.add_resource(tag + "-compute"));
    }

    size_t iterations = 0;
    for (const auto &batches : per_device)
        iterations = std::max(iterations, batches.size());

    std::vector<int> prev_sample(static_cast<size_t>(num_devices), -1);
    std::vector<int> prev_copy(static_cast<size_t>(num_devices), -1);
    std::vector<int> prev_compute(static_cast<size_t>(num_devices),
                                  -1);
    // Iteration-(i-1) folded compute tasks of every device: the ring
    // allreduce barrier for iteration i.
    std::vector<int> barrier;
    std::vector<int> next_barrier;
    // Per-device (sample, copy, compute) task ids, for the digest.
    std::vector<std::vector<std::array<int, 3>>> tasks(
        static_cast<size_t>(num_devices));

    for (size_t i = 0; i < iterations; ++i) {
        next_barrier.clear();
        for (int d = 0; d < num_devices; ++d) {
            const auto &batches = per_device[static_cast<size_t>(d)];
            if (i >= batches.size())
                continue;
            const BatchStageTimes &t = batches[i].times;
            const size_t sd = static_cast<size_t>(d);
            const std::string tag =
                "g" + std::to_string(d) + "-b" + std::to_string(i);

            std::vector<int> sample_deps;
            if (prev_sample[sd] >= 0)
                sample_deps.push_back(prev_sample[sd]);
            if (!config.base.dedicated_sampler && prev_compute[sd] >= 0)
                sample_deps.push_back(prev_compute[sd]);
            const int s = schedule.add_task(res_sample[sd], t.sample,
                                            sample_deps,
                                            "sample-" + tag);

            std::vector<int> copy_deps = {s};
            if (prev_copy[sd] >= 0)
                copy_deps.push_back(prev_copy[sd]);
            if (!config.base.overlap_copy_compute &&
                prev_compute[sd] >= 0)
                copy_deps.push_back(prev_compute[sd]);
            const int c = schedule.add_task(res_copy[sd], t.io,
                                            copy_deps, "io-" + tag);

            std::vector<int> compute_deps = {c};
            if (prev_compute[sd] >= 0)
                compute_deps.push_back(prev_compute[sd]);
            // Data-parallel ranks cannot launch iteration i before
            // every rank's iteration-(i-1) gradients are reduced.
            if (num_devices > 1 && config.base.allreduce > 0.0) {
                for (int b : barrier) {
                    if (b != prev_compute[sd])
                        compute_deps.push_back(b);
                }
            }
            const int k = schedule.add_task(
                res_compute[sd], t.compute + config.base.allreduce,
                compute_deps, "compute-" + tag);

            prev_sample[sd] = s;
            prev_copy[sd] = c;
            prev_compute[sd] = k;
            next_barrier.push_back(k);
            tasks[sd].push_back({s, c, k});

            MultiGpuDeviceStats &stats = result.devices[sd];
            stats.busy_seconds +=
                t.sample + t.io + t.compute + config.base.allreduce;
            ++stats.batches_sampled;
            ++stats.batches_trained;
            result.allreduce_seconds += config.base.allreduce;
        }
        barrier.swap(next_barrier);
    }

    result.makespan = schedule.run();

    const std::vector<sim::TaskTiming> &timings = schedule.timings();
    uint64_t h = kFnvOffset;
    h = fnv(h, static_cast<uint64_t>(num_devices));
    for (int d = 0; d < num_devices; ++d) {
        for (const auto &ids : tasks[static_cast<size_t>(d)]) {
            for (int id : ids)
                h = fnv(h, double_bits(
                               timings[static_cast<size_t>(id)]
                                   .finish));
        }
        result.devices[static_cast<size_t>(d)].final_role =
            DeviceRole::kTrainer;
    }
    result.fingerprint = fnv(h, double_bits(result.makespan));
    return result;
}

/** A sampled batch waiting for a trainer, ordered by commit time. */
struct ReadyBatch
{
    double ready_at = 0.0;
    int64_t batch = 0;
    int src_device = 0;

    bool operator>(const ReadyBatch &o) const
    {
        if (ready_at != o.ready_at)
            return ready_at > o.ready_at;
        return batch > o.batch;
    }
};

/**
 * Factored sampler/trainer execution: a deterministic discrete-event
 * loop (decisions depend on realized virtual times, so the static list
 * scheduler cannot express it). Devices are activated in ascending
 * free-time order; ties process samplers before trainers, then lower
 * device IDs — so producers commit before consumers decide at the same
 * instant, and the event order (hence the fingerprint) is a pure
 * function of the inputs.
 */
MultiGpuEpochResult
simulate_factored(const std::vector<std::vector<MultiGpuBatch>> &per_device,
                  const MultiGpuConfig &config, sim::PeerTopology *topo)
{
    const int num_devices = static_cast<int>(per_device.size());
    FASTGL_CHECK(num_devices >= 2,
                 "factored mode needs >= 2 devices");
    const bool switcher = config.mode == MultiGpuMode::kFactoredSwitcher;

    // One global sampling queue, concatenated in device order.
    std::vector<const MultiGpuBatch *> batches;
    for (const auto &list : per_device)
        for (const MultiGpuBatch &b : list)
            batches.push_back(&b);
    const int64_t total = static_cast<int64_t>(batches.size());

    MultiGpuEpochResult result;
    result.devices.assign(static_cast<size_t>(num_devices),
                          MultiGpuDeviceStats{});
    uint64_t h = kFnvOffset;
    h = fnv(h, static_cast<uint64_t>(num_devices));
    h = fnv(h, static_cast<uint64_t>(total));
    if (total == 0) {
        result.fingerprint = h;
        return result;
    }

    const int num_samplers =
        std::clamp(config.num_samplers, 1, num_devices - 1);
    const double cooldown = config.switch_cooldown > 0.0
                                ? config.switch_cooldown
                                : 8.0 * config.switch_latency;

    std::vector<DeviceRole> role(static_cast<size_t>(num_devices),
                                 DeviceRole::kTrainer);
    for (int d = 0; d < num_samplers; ++d)
        role[static_cast<size_t>(d)] = DeviceRole::kSampler;
    int samplers_alive = num_samplers;
    int trainers_alive = num_devices - num_samplers;

    constexpr double kIdle = std::numeric_limits<double>::infinity();
    std::vector<double> free_at(static_cast<size_t>(num_devices), 0.0);
    std::vector<double> cool_until(static_cast<size_t>(num_devices),
                                   0.0);
    std::priority_queue<ReadyBatch, std::vector<ReadyBatch>,
                        std::greater<ReadyBatch>>
        ready;
    int64_t next_unsampled = 0;
    int64_t trained = 0;
    double makespan = 0.0;

    auto flip = [&](int d, double now, DeviceRole to) {
        const size_t sd = static_cast<size_t>(d);
        if (role[sd] == DeviceRole::kSampler) {
            --samplers_alive;
            ++trainers_alive;
        } else {
            --trainers_alive;
            ++samplers_alive;
        }
        role[sd] = to;
        free_at[sd] = now + config.switch_latency;
        cool_until[sd] = now + cooldown;
        ++result.devices[sd].role_switches;
        result.switches.push_back(RoleSwitchEvent{now, d, to});
        h = fnv(h, 0xF11Full);
        h = fnv(h, static_cast<uint64_t>(d));
        h = fnv(h, double_bits(now));
        h = fnv(h, to == DeviceRole::kTrainer ? 1ull : 0ull);
    };

    auto high_watermark = [&]() {
        if (config.queue_high_watermark > 0)
            return static_cast<int64_t>(config.queue_high_watermark);
        return static_cast<int64_t>(2 * std::max(1, trainers_alive));
    };

    std::vector<int> order(static_cast<size_t>(num_devices));
    while (trained < total) {
        double now = kIdle;
        for (int d = 0; d < num_devices; ++d)
            now = std::min(now, free_at[static_cast<size_t>(d)]);
        FASTGL_CHECK(now != kIdle,
                     "factored schedule deadlocked with work left");

        // Activation sweep at `now`: samplers first so commits land
        // before trainer decisions, then ascending device ID.
        int count = 0;
        for (int d = 0; d < num_devices; ++d)
            if (free_at[static_cast<size_t>(d)] == now &&
                role[static_cast<size_t>(d)] == DeviceRole::kSampler)
                order[static_cast<size_t>(count++)] = d;
        for (int d = 0; d < num_devices; ++d)
            if (free_at[static_cast<size_t>(d)] == now &&
                role[static_cast<size_t>(d)] == DeviceRole::kTrainer)
                order[static_cast<size_t>(count++)] = d;

        for (int idx = 0; idx < count; ++idx) {
            const int d = order[static_cast<size_t>(idx)];
            const size_t sd = static_cast<size_t>(d);
            if (free_at[sd] != now)
                continue; // flipped or rescheduled earlier this sweep
            MultiGpuDeviceStats &stats = result.devices[sd];

            if (role[sd] == DeviceRole::kSampler) {
                if (next_unsampled >= total) {
                    // Sampling is done: join the trainers (switcher)
                    // or go idle for the rest of the epoch.
                    if (switcher)
                        flip(d, now, DeviceRole::kTrainer);
                    else
                        free_at[sd] = kIdle;
                    continue;
                }
                if (switcher && samplers_alive > 1 &&
                    now >= cool_until[sd] &&
                    static_cast<int64_t>(ready.size()) >=
                        high_watermark()) {
                    flip(d, now, DeviceRole::kTrainer);
                    continue;
                }
                const int64_t b = next_unsampled++;
                const double finish =
                    now + batches[static_cast<size_t>(b)]->times.sample;
                ready.push(ReadyBatch{finish, b, d});
                free_at[sd] = finish;
                stats.busy_seconds +=
                    batches[static_cast<size_t>(b)]->times.sample;
                ++stats.batches_sampled;
                makespan = std::max(makespan, finish);
                h = fnv(h, 0x5A11ull);
                h = fnv(h, static_cast<uint64_t>(d));
                h = fnv(h, static_cast<uint64_t>(b));
                h = fnv(h, double_bits(finish));
                continue;
            }

            // Trainer.
            if (!ready.empty()) {
                const ReadyBatch next = ready.top();
                // Waiting on a commit that is further out than a role
                // switch costs is dead time a switcher converts into
                // sampling throughput (the watermark flips it back
                // once the queue refills).
                if (switcher && trainers_alive > 1 &&
                    next.ready_at > now + config.switch_latency &&
                    (samplers_alive == 0 || now >= cool_until[sd])) {
                    flip(d, now, DeviceRole::kSampler);
                    continue;
                }
                ready.pop();
                const MultiGpuBatch &b =
                    *batches[static_cast<size_t>(next.batch)];
                if (next.ready_at > now)
                    stats.starved_seconds += next.ready_at - now;
                const double start = std::max(now, next.ready_at);
                double io = b.times.io;
                if (topo && next.src_device != d)
                    io += topo->transfer(next.src_device, d,
                                         b.io_bytes);
                const double work =
                    io + b.times.compute + config.base.allreduce;
                const double finish = start + work;
                free_at[sd] = finish;
                stats.busy_seconds += work;
                ++stats.batches_trained;
                ++trained;
                result.allreduce_seconds += config.base.allreduce;
                makespan = std::max(makespan, finish);
                h = fnv(h, 0x7124ull);
                h = fnv(h, static_cast<uint64_t>(d));
                h = fnv(h, static_cast<uint64_t>(next.batch));
                h = fnv(h, double_bits(finish));
                continue;
            }
            if (next_unsampled >= total) {
                // Nothing in flight for this trainer to wait on only
                // if no sampler holds an uncommitted batch; otherwise
                // wait for the earliest commit.
                double wake = kIdle;
                for (int s = 0; s < num_devices; ++s)
                    if (role[static_cast<size_t>(s)] ==
                            DeviceRole::kSampler &&
                        free_at[static_cast<size_t>(s)] != kIdle)
                        wake = std::min(
                            wake, free_at[static_cast<size_t>(s)]);
                free_at[sd] = wake; // kIdle = retire
                continue;
            }
            // Starved with sampling work left: flip to sampling
            // (switcher, cooldown permitting, never the last trainer)
            // or park until the earliest in-flight sample commits.
            const bool no_samplers = samplers_alive == 0;
            if (switcher && trainers_alive > 1 &&
                (no_samplers || now >= cool_until[sd])) {
                flip(d, now, DeviceRole::kSampler);
                continue;
            }
            double wake = kIdle;
            for (int s = 0; s < num_devices; ++s)
                if (role[static_cast<size_t>(s)] ==
                        DeviceRole::kSampler &&
                    free_at[static_cast<size_t>(s)] != kIdle)
                    wake = std::min(wake,
                                    free_at[static_cast<size_t>(s)]);
            FASTGL_CHECK(wake != kIdle,
                         "starved trainer with no live sampler");
            // Samplers at `now` ran before us in this sweep, so any
            // live sampler's free time is strictly later (or it
            // committed a batch and `ready` would be non-empty).
            free_at[sd] = wake;
        }
    }

    result.makespan = makespan;
    for (int d = 0; d < num_devices; ++d)
        result.devices[static_cast<size_t>(d)].final_role =
            role[static_cast<size_t>(d)];
    result.fingerprint = fnv(h, double_bits(makespan));
    return result;
}

} // namespace

const char *
multi_gpu_mode_name(MultiGpuMode mode)
{
    switch (mode) {
    case MultiGpuMode::kSymmetric:
        return "symmetric";
    case MultiGpuMode::kFactored:
        return "factored";
    default:
        return "factored+switcher";
    }
}

MultiGpuEpochResult
simulate_epoch_multi(const std::vector<std::vector<MultiGpuBatch>> &per_device,
                     const MultiGpuConfig &config,
                     sim::PeerTopology *topo)
{
    FASTGL_CHECK(!per_device.empty(),
                 "multi-GPU epoch needs >= 1 device");
    FASTGL_CHECK(config.num_devices ==
                     static_cast<int>(per_device.size()),
                 "config.num_devices must match the batch lists");
    if (config.mode == MultiGpuMode::kSymmetric)
        return simulate_symmetric(per_device, config);
    return simulate_factored(per_device, config, topo);
}

std::vector<MultiGpuBatch>
to_multi_gpu_batches(const std::vector<BatchStageTimes> &batches)
{
    std::vector<MultiGpuBatch> out;
    out.reserve(batches.size());
    for (const BatchStageTimes &t : batches)
        out.push_back(MultiGpuBatch{t, 0, -1});
    return out;
}

std::vector<std::vector<int64_t>>
route_by_affinity(const std::vector<int32_t> &batch_partition,
                  int num_devices)
{
    FASTGL_CHECK(num_devices >= 1, "routing needs >= 1 device");
    std::vector<std::vector<int64_t>> per_device(
        static_cast<size_t>(num_devices));
    const int64_t total =
        static_cast<int64_t>(batch_partition.size());
    for (int64_t i = 0; i < total; ++i) {
        const int32_t p = batch_partition[static_cast<size_t>(i)];
        const int dev = p >= 0 ? static_cast<int>(p % num_devices)
                               : static_cast<int>(i % num_devices);
        per_device[static_cast<size_t>(dev)].push_back(i);
    }
    // Shed overflow so no device holds more than ceil(B / N): pull the
    // latest-routed batches off overloaded devices and deal them to
    // the underloaded ones in device order.
    const int64_t cap = (total + num_devices - 1) / num_devices;
    std::vector<int64_t> spill;
    for (auto &list : per_device) {
        while (static_cast<int64_t>(list.size()) > cap) {
            spill.push_back(list.back());
            list.pop_back();
        }
    }
    size_t next = 0;
    for (auto &list : per_device) {
        while (next < spill.size() &&
               static_cast<int64_t>(list.size()) < cap) {
            list.push_back(spill[next++]);
        }
    }
    for (auto &list : per_device)
        std::sort(list.begin(), list.end());
    return per_device;
}

} // namespace core
} // namespace fastgl
