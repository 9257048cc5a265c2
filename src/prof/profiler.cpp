#include "prof/profiler.h"

#include <cstdio>

#include "util/fnv.h"

namespace fastgl {
namespace prof {

namespace {

using util::double_bits;
using util::fnv;

/** Percentile snapshot of one raw accumulator. */
StageSummary
summarize(std::string name, StageProfile &p)
{
    StageSummary s;
    s.name = std::move(name);
    s.items = p.items;
    s.mean_occupancy = p.mean_occupancy();
    s.busy_seconds = p.busy_seconds;
    s.shed = p.shed;
    s.dropped = p.dropped;
    const double ps[] = {50.0, 95.0, 99.0};
    if (p.queue_wait.count()) {
        s.wait_mean = p.queue_wait.mean();
        const std::vector<double> w = p.queue_wait.percentiles(ps);
        s.wait_p50 = w[0];
        s.wait_p95 = w[1];
        s.wait_p99 = w[2];
    }
    if (p.service.count()) {
        s.service_mean = p.service.mean();
        const std::vector<double> v = p.service.percentiles(ps);
        s.service_p50 = v[0];
        s.service_p95 = v[1];
        s.service_p99 = v[2];
    }
    return s;
}

uint64_t
fold_summary(uint64_t h, const StageSummary &s)
{
    h = fnv(h, static_cast<uint64_t>(s.items));
    h = fnv(h, double_bits(s.mean_occupancy));
    h = fnv(h, double_bits(s.busy_seconds));
    h = fnv(h, double_bits(s.wait_mean));
    h = fnv(h, double_bits(s.wait_p50));
    h = fnv(h, double_bits(s.wait_p95));
    h = fnv(h, double_bits(s.wait_p99));
    h = fnv(h, double_bits(s.service_mean));
    h = fnv(h, double_bits(s.service_p50));
    h = fnv(h, double_bits(s.service_p95));
    h = fnv(h, double_bits(s.service_p99));
    h = fnv(h, static_cast<uint64_t>(s.shed));
    h = fnv(h, static_cast<uint64_t>(s.dropped));
    return h;
}

void
append_summary_json(std::string &out, const StageSummary &s)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"items\":%lld,\"mean_occupancy\":%.17g,"
        "\"busy_seconds\":%.17g,"
        "\"wait\":{\"mean\":%.17g,\"p50\":%.17g,\"p95\":%.17g,"
        "\"p99\":%.17g},"
        "\"service\":{\"mean\":%.17g,\"p50\":%.17g,\"p95\":%.17g,"
        "\"p99\":%.17g},"
        "\"shed\":%lld,\"dropped\":%lld}",
        s.name.c_str(), static_cast<long long>(s.items),
        s.mean_occupancy, s.busy_seconds, s.wait_mean, s.wait_p50,
        s.wait_p95, s.wait_p99, s.service_mean, s.service_p50,
        s.service_p95, s.service_p99, static_cast<long long>(s.shed),
        static_cast<long long>(s.dropped));
    out += buf;
}

void
append_summary_row(std::string &out, const StageSummary &s)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %8lld %7.2f %12s %12s %12s %12s %6lld %6lld\n",
                  s.name.c_str(), static_cast<long long>(s.items),
                  s.mean_occupancy,
                  util::human_seconds(s.busy_seconds).c_str(),
                  util::human_seconds(s.wait_p50).c_str(),
                  util::human_seconds(s.wait_p99).c_str(),
                  util::human_seconds(s.service_p99).c_str(),
                  static_cast<long long>(s.shed),
                  static_cast<long long>(s.dropped));
    out += buf;
}

} // namespace

const char *
stage_name(Stage stage)
{
    switch (stage) {
      case Stage::kFeeder:
        return "feeder";
      case Stage::kSampler:
        return "sampler";
      case Stage::kGather:
        return "gather";
      case Stage::kCompute:
        return "compute";
      case Stage::kSequencer:
        return "sequencer";
      case Stage::kStorage:
        return "storage";
    }
    return "?";
}

void
Profiler::reset()
{
    for (StageProfile &s : stages_)
        s = StageProfile{};
    tiers_.clear();
    tier_names_.clear();
    devices_.clear();
    device_busy_seconds_ = 0.0;
    makespan_ = 0.0;
}

void
Profiler::record(Stage stage, double queue_wait, double service,
                 int64_t occupancy)
{
    if (!enabled_)
        return;
    StageProfile &s = stages_[static_cast<size_t>(stage)];
    ++s.items;
    s.occupancy_sum += occupancy;
    s.queue_wait.add(queue_wait);
    s.service.add(service);
    s.busy_seconds += service;
}

void
Profiler::count_shed(Stage stage)
{
    if (!enabled_)
        return;
    ++stages_[static_cast<size_t>(stage)].shed;
}

void
Profiler::count_drop(Stage stage)
{
    if (!enabled_)
        return;
    ++stages_[static_cast<size_t>(stage)].dropped;
}

void
Profiler::record_tier(size_t tier, double queue_wait, double service,
                      int64_t occupancy)
{
    if (!enabled_)
        return;
    if (tier >= tiers_.size())
        tiers_.resize(tier + 1);
    StageProfile &s = tiers_[tier];
    ++s.items;
    s.occupancy_sum += occupancy;
    s.queue_wait.add(queue_wait);
    s.service.add(service);
    s.busy_seconds += service;
}

void
Profiler::record_device(int device, double idle_gap, double service,
                        double free_at)
{
    if (!enabled_)
        return;
    const size_t d = static_cast<size_t>(device);
    if (d >= devices_.size())
        devices_.resize(d + 1);
    DeviceProfile &dev = devices_[d];
    ++dev.batches;
    dev.busy_seconds += service;
    dev.idle_seconds += idle_gap;
    dev.last_free = free_at;
    device_busy_seconds_ += service;
}

void
Profiler::set_tier_name(size_t tier, std::string name)
{
    if (!enabled_)
        return;
    if (tier >= tier_names_.size())
        tier_names_.resize(tier + 1);
    tier_names_[tier] = std::move(name);
}

ProfileReport
Profiler::report()
{
    ProfileReport r;
    r.enabled = enabled_;
    if (!enabled_)
        return r;
    r.makespan = makespan_;
    r.stages.reserve(kNumStages);
    for (size_t i = 0; i < kNumStages; ++i)
        r.stages.push_back(summarize(
            stage_name(static_cast<Stage>(i)), stages_[i]));
    for (size_t t = 0; t < tiers_.size(); ++t) {
        std::string name = t < tier_names_.size() && !tier_names_[t].empty()
                               ? tier_names_[t]
                               : "tier-" + std::to_string(t);
        r.tiers.push_back(summarize(std::move(name), tiers_[t]));
    }
    r.devices = devices_;
    r.device_busy_seconds = device_busy_seconds_;
    return r;
}

uint64_t
ProfileReport::fingerprint() const
{
    uint64_t h = util::kFnvOffset;
    h = fnv(h, enabled ? 1 : 0);
    h = fnv(h, double_bits(makespan));
    h = fnv(h, stages.size());
    for (const StageSummary &s : stages)
        h = fold_summary(h, s);
    h = fnv(h, tiers.size());
    for (const StageSummary &s : tiers)
        h = fold_summary(h, s);
    h = fnv(h, devices.size());
    for (const DeviceProfile &d : devices) {
        h = fnv(h, static_cast<uint64_t>(d.batches));
        h = fnv(h, double_bits(d.busy_seconds));
        h = fnv(h, double_bits(d.idle_seconds));
        h = fnv(h, double_bits(d.last_free));
    }
    h = fnv(h, double_bits(device_busy_seconds));
    return h;
}

std::string
ProfileReport::to_json() const
{
    std::string out = "{";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"enabled\":%s,\"makespan\":%.17g,",
                  enabled ? "true" : "false", makespan);
    out += buf;
    out += "\"stages\":[";
    for (size_t i = 0; i < stages.size(); ++i) {
        if (i)
            out += ",";
        append_summary_json(out, stages[i]);
    }
    out += "],\"tiers\":[";
    for (size_t i = 0; i < tiers.size(); ++i) {
        if (i)
            out += ",";
        append_summary_json(out, tiers[i]);
    }
    out += "],\"devices\":[";
    for (size_t i = 0; i < devices.size(); ++i) {
        if (i)
            out += ",";
        std::snprintf(
            buf, sizeof(buf),
            "{\"batches\":%lld,\"busy\":%.17g,\"idle\":%.17g,"
            "\"last_free\":%.17g}",
            static_cast<long long>(devices[i].batches),
            devices[i].busy_seconds, devices[i].idle_seconds,
            devices[i].last_free);
        out += buf;
    }
    out += "],";
    std::snprintf(buf, sizeof(buf),
                  "\"device_busy_seconds\":%.17g,"
                  "\"fingerprint\":\"%016llx\"}",
                  device_busy_seconds,
                  static_cast<unsigned long long>(fingerprint()));
    out += buf;
    return out;
}

std::string
ProfileReport::to_table() const
{
    std::string out;
    if (!enabled) {
        out = "  (profiling disabled)\n";
        return out;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  makespan %s\n",
                  util::human_seconds(makespan).c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %8s %7s %12s %12s %12s %12s %6s %6s\n",
                  "stage", "items", "occ", "busy", "wait-p50",
                  "wait-p99", "svc-p99", "shed", "drop");
    out += buf;
    for (const StageSummary &s : stages) {
        if (s.items == 0 && s.shed == 0 && s.dropped == 0)
            continue; // stage not exercised by this run
        append_summary_row(out, s);
    }
    for (const StageSummary &s : tiers)
        append_summary_row(out, s);
    for (size_t d = 0; d < devices.size(); ++d) {
        std::snprintf(
            buf, sizeof(buf),
            "  device-%-3zu %8lld %7s %12s %12s\n", d,
            static_cast<long long>(devices[d].batches), "",
            util::human_seconds(devices[d].busy_seconds).c_str(),
            util::human_seconds(devices[d].idle_seconds).c_str());
        out += buf;
    }
    return out;
}

} // namespace prof
} // namespace fastgl
