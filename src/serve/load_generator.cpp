#include "serve/load_generator.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace fastgl {
namespace serve {

namespace {

/** Stream tags for derive_seed (arbitrary, fixed forever). */
constexpr uint64_t kArrivalStream = 0x5E21;
constexpr uint64_t kTargetStream = 0x5E22;
constexpr uint64_t kClassStream = 0x5E23;
constexpr uint64_t kModelStream = 0x5E24;
constexpr uint64_t kThinkStream = 0x5E25;

/** Virtual seconds per diurnal cycle (kDiurnal). */
constexpr double kDiurnalPeriod = 200e-3;
/** Peak-to-mean swing of the diurnal rate (kDiurnal). */
constexpr double kDiurnalAmplitude = 0.6;

/** Skew: the first kHotFraction of the population receives
 *  kHotTraffic of all target draws. */
constexpr double kHotFraction = 0.10;
constexpr double kHotTraffic = 0.80;

/**
 * Draw an index from normalised @p shares with one uniform variate;
 * degenerate shares (sum <= 0) fall back to @p fallback.
 */
template <typename Shares>
size_t
draw_share(const Shares &shares, double u, size_t fallback)
{
    double total = 0.0;
    for (double s : shares)
        total += s > 0.0 ? s : 0.0;
    if (total <= 0.0)
        return fallback;
    double acc = 0.0;
    size_t last = fallback;
    for (size_t i = 0; i < shares.size(); ++i) {
        if (shares[i] <= 0.0)
            continue;
        acc += shares[i] / total;
        last = i;
        if (u < acc)
            return i;
    }
    return last; // u == 1.0 rounding tail
}

} // namespace

const char *
arrival_trace_name(ArrivalTrace trace)
{
    switch (trace) {
      case ArrivalTrace::kConstant:
        return "constant";
      case ArrivalTrace::kDiurnal:
        return "diurnal";
      case ArrivalTrace::kFlashCrowd:
        return "flash-crowd";
    }
    return "?";
}

const char *
priority_name(Priority priority)
{
    switch (priority) {
      case Priority::kPaid:
        return "paid";
      case Priority::kStandard:
        return "standard";
      case Priority::kBestEffort:
        return "best-effort";
    }
    return "?";
}

const char *
outcome_name(Outcome outcome)
{
    switch (outcome) {
      case Outcome::kUnprocessed:
        return "unprocessed";
      case Outcome::kServed:
        return "served";
      case Outcome::kServedLate:
        return "served-late";
      case Outcome::kEmbeddingHit:
        return "embedding-hit";
      case Outcome::kShedQueue:
        return "shed-queue";
      case Outcome::kDroppedDeadline:
        return "dropped-deadline";
    }
    return "?";
}

LoadGenerator::LoadGenerator(std::span<const graph::NodeId> population,
                             LoadGeneratorOptions opts)
    : population_(population.begin(), population.end()),
      opts_(opts)
{
    FASTGL_CHECK(!population_.empty(),
                 "LoadGenerator needs a non-empty population");
    FASTGL_CHECK(opts_.rate_rps > 0.0,
                 "LoadGenerator rate must be positive");
    FASTGL_CHECK(opts_.targets_per_request >= 1 &&
                     static_cast<size_t>(opts_.targets_per_request) <=
                         population_.size(),
                 "LoadGenerator targets_per_request must be in "
                 "[1, population size]");
    for (double &scale : opts_.class_slo_scale)
        scale = std::max(1e-9, scale);
}

double
LoadGenerator::rate_at(double t) const
{
    switch (opts_.trace) {
      case ArrivalTrace::kConstant:
        return opts_.rate_rps;
      case ArrivalTrace::kDiurnal:
        return opts_.rate_rps *
               (1.0 + kDiurnalAmplitude *
                          std::sin(2.0 * 3.14159265358979323846 * t /
                                   kDiurnalPeriod));
      case ArrivalTrace::kFlashCrowd:
        return t >= opts_.flash_start &&
                       t < opts_.flash_start + opts_.flash_duration
                   ? opts_.rate_rps * opts_.flash_multiplier
                   : opts_.rate_rps;
    }
    return opts_.rate_rps;
}

InferenceRequest
LoadGenerator::draw_request(int64_t id) const
{
    const size_t pop = population_.size();
    const size_t hot =
        std::max<size_t>(1, static_cast<size_t>(
                                std::llround(kHotFraction *
                                             static_cast<double>(pop))));

    InferenceRequest req;
    req.id = id;

    // Class and model draws use their own per-request streams so the
    // arrival and target sequences are identical whatever mix is
    // configured (single-class traces from earlier PRs replay
    // bit-identically).
    util::Rng class_rng(util::derive_seed(
        opts_.seed, kClassStream, static_cast<uint64_t>(id)));
    req.priority = static_cast<Priority>(draw_share(
        opts_.class_mix, class_rng.next_double(),
        static_cast<size_t>(Priority::kStandard)));
    if (opts_.model_mix.size() > 1) {
        util::Rng model_rng(util::derive_seed(
            opts_.seed, kModelStream, static_cast<uint64_t>(id)));
        req.model = static_cast<int>(draw_share(
            opts_.model_mix, model_rng.next_double(), 0));
    }
    // The *relative* SLO budget; callers add the arrival time.
    req.deadline = opts_.slo_deadline *
                   opts_.class_slo_scale[static_cast<size_t>(
                       req.priority)];

    util::Rng rng(util::derive_seed(opts_.seed, kTargetStream,
                                    static_cast<uint64_t>(id)));
    req.targets.reserve(
        static_cast<size_t>(opts_.targets_per_request));
    while (req.targets.size() <
           static_cast<size_t>(opts_.targets_per_request)) {
        const bool from_hot = rng.next_double() < kHotTraffic;
        const size_t bound = from_hot ? hot : pop;
        const graph::NodeId node = population_[rng.next_below(bound)];
        // Targets are distinct within a request (the embedding is
        // computed once anyway); draws are few, linear scan is fine.
        if (std::find(req.targets.begin(), req.targets.end(), node) ==
            req.targets.end())
            req.targets.push_back(node);
    }
    return req;
}

std::vector<InferenceRequest>
LoadGenerator::generate() const
{
    // Arrival gaps draw from one dedicated stream; each request's
    // targets draw from its own derived stream, so the trace for
    // request i never depends on how many targets earlier requests
    // consumed.
    util::Rng arrivals(
        util::derive_seed(opts_.seed, kArrivalStream, 0));

    std::vector<InferenceRequest> trace;
    trace.reserve(static_cast<size_t>(opts_.num_requests));
    double now = 0.0;
    for (int64_t i = 0; i < opts_.num_requests; ++i) {
        // Exponential interarrival at the instantaneous trace rate;
        // 1 - U keeps log()'s argument in (0, 1] (next_double may
        // return exactly 0). Constant traces divide by exactly
        // rate_rps, so earlier PRs' arrival times replay bit-for-bit.
        now += -std::log(1.0 - arrivals.next_double()) / rate_at(now);

        InferenceRequest req = draw_request(i);
        req.arrival = now;
        req.deadline += now;
        trace.push_back(std::move(req));
    }
    return trace;
}

ClosedLoopScript
LoadGenerator::generate_closed(const ClosedLoopOptions &closed) const
{
    FASTGL_CHECK(closed.num_clients > 0,
                 "closed loop needs >= 1 client");
    FASTGL_CHECK(closed.requests_per_client > 0,
                 "closed loop needs >= 1 request per client");
    ClosedLoopScript script;
    script.num_clients = closed.num_clients;
    const int64_t total =
        closed.requests_per_client *
        static_cast<int64_t>(closed.num_clients);
    script.requests.reserve(static_cast<size_t>(total));
    script.think.reserve(static_cast<size_t>(total));
    const double mean_think = std::max(0.0, closed.think_time);
    for (int64_t id = 0; id < total; ++id) {
        script.requests.push_back(draw_request(id));
        // Per-request think stream: a client's k-th think gap never
        // depends on how many requests other clients issued.
        util::Rng think_rng(util::derive_seed(
            opts_.seed, kThinkStream, static_cast<uint64_t>(id)));
        script.think.push_back(
            mean_think > 0.0
                ? -std::log(1.0 - think_rng.next_double()) * mean_think
                : 0.0);
    }
    return script;
}

} // namespace serve
} // namespace fastgl
