/**
 * @file
 * Open-loop Poisson request generator for the serving benchmarks.
 *
 * Open loop means arrivals do not wait for the server: the offered rate
 * is fixed and an overloaded server falls behind, which is the regime
 * where admission control earns its keep. Arrival gaps are exponential
 * (Poisson process) and targets follow a hot/cold skew over a caller-
 * supplied popularity order, so a hotness-ranked cache can actually hit:
 * the first 10% of the population receives 80% of all target draws, and
 * the rest is uniform over the whole population.
 *
 * The whole trace is a pure function of the options (every stochastic
 * choice draws from util::Rng streams derived via util::derive_seed),
 * making serving runs exactly reproducible.
 */
#pragma once

#include <array>
#include <span>
#include <vector>

#include "serve/request.h"

namespace fastgl {
namespace serve {

/**
 * Shape of the open-loop arrival-rate curve over virtual time. The
 * interarrival gap at time t is exponential with the instantaneous
 * rate lambda(t) — a deterministic thinning-free approximation of an
 * inhomogeneous Poisson process (exact when the rate is constant over
 * a gap, and the gaps here are far shorter than the rate's timescale).
 */
enum class ArrivalTrace
{
    /** lambda(t) = rate_rps (the classic Poisson trace). */
    kConstant,
    /**
     * lambda(t) = rate_rps * (1 + 0.6 * sin(2*pi*t / 200 ms)) — a
     * day/night cycle compressed to the virtual horizon.
     */
    kDiurnal,
    /**
     * lambda(t) = rate_rps, except rate_rps * flash_multiplier inside
     * [flash_start, flash_start + flash_duration) — a flash crowd the
     * autoscaler must absorb.
     */
    kFlashCrowd,
};

/** Printable trace name ("constant", "diurnal", "flash-crowd"). */
const char *arrival_trace_name(ArrivalTrace trace);

/** Workload knobs of LoadGenerator. */
struct LoadGeneratorOptions
{
    /** Offered load in requests per virtual second. */
    double rate_rps = 2000.0;
    /** Arrival-rate curve; kConstant replays earlier PRs' traces
     *  bit-identically. */
    ArrivalTrace trace = ArrivalTrace::kConstant;
    /** Flash-crowd window start on the virtual clock (kFlashCrowd). */
    double flash_start = 50e-3;
    /** Flash-crowd window length in virtual seconds (kFlashCrowd). */
    double flash_duration = 50e-3;
    /** Rate multiplier inside the flash window (kFlashCrowd). */
    double flash_multiplier = 6.0;
    /** Trace length in requests. */
    int64_t num_requests = 1024;
    /** Distinct target nodes per request, in [1, population size]. */
    int targets_per_request = 1;
    /** Per-request latency budget; deadline = arrival + this. */
    double slo_deadline = 50e-3;
    /**
     * Share of requests in each priority class, indexed by Priority
     * (paid, standard, best-effort); normalised internally. The
     * default sends everything as kStandard — the single-class
     * workload earlier PRs served. Class draws use their own RNG
     * stream, so changing the mix never perturbs arrivals or targets.
     */
    std::array<double, kNumPriorityClasses> class_mix = {0.0, 1.0, 0.0};
    /**
     * Per-class multiplier on slo_deadline (deadline = arrival +
     * slo_deadline * scale[class]) — paid traffic typically buys a
     * tighter deadline, best-effort tolerates a looser one.
     */
    std::array<double, kNumPriorityClasses> class_slo_scale = {1.0, 1.0,
                                                               1.0};
    /**
     * Share of requests routed to each model tier
     * (InferenceRequest::model); normalised internally. Empty (the
     * default) routes everything to tier 0. Model draws use their own
     * RNG stream, like class draws.
     */
    std::vector<double> model_mix;
    uint64_t seed = 1;
};

/**
 * Closed-loop client-pool knobs. Where the open loop fixes the offered
 * *rate*, the closed loop fixes the client *population*: each of
 * num_clients keeps at most one request outstanding and thinks for an
 * exponential gap between its response (or refusal) and its next
 * request. Offered load therefore self-throttles when the server slows
 * down — the regime where latency, not shedding, absorbs overload.
 */
struct ClosedLoopOptions
{
    /** Concurrent clients (each with <= 1 outstanding request). */
    int num_clients = 16;
    /** Requests each client issues before leaving. */
    int64_t requests_per_client = 32;
    /** Mean exponential think time between response and next issue. */
    double think_time = 2e-3;
};

/**
 * Pre-drawn closed-loop workload. Request *content* (targets, class,
 * model, SLO budget) is fixed up front — request id k*num_clients + c
 * is client c's k-th request — so serving workers can speculatively
 * sample every ego-net while issue times stay a function of server
 * responses. `requests[id].arrival` is left 0 and `deadline` holds the
 * *relative* SLO budget; Server::serve_closed stamps absolute times
 * when the client actually issues the request.
 */
struct ClosedLoopScript
{
    int num_clients = 0;
    /** Indexed by id (requests[id].id == id). */
    std::vector<InferenceRequest> requests;
    /** think[id] = client think gap *before* issuing request id. */
    std::vector<double> think;
};

/** Deterministic open-loop Poisson trace over a node population. */
class LoadGenerator
{
  public:
    /**
     * @param population candidate target nodes in *popularity order*
     *        (hottest first). Pass a hotness ranking (e.g.
     *        match::degree_ranking) so the generator's hot set aligns
     *        with what a hotness-ranked cache keeps resident.
     */
    LoadGenerator(std::span<const graph::NodeId> population,
                  LoadGeneratorOptions opts);

    /** Produce the full trace (sorted by arrival, ids dense from 0). */
    std::vector<InferenceRequest> generate() const;

    /**
     * Pre-draw a closed-loop script for @p closed clients: request
     * content comes from the same per-request RNG streams as
     * generate() (targets/class/model mixes behave identically); only
     * arrival times are left to the serving event loop.
     */
    ClosedLoopScript generate_closed(const ClosedLoopOptions &closed) const;

    /** Instantaneous offered rate lambda(t) of the configured trace. */
    double rate_at(double t) const;

    const LoadGeneratorOptions &options() const { return opts_; }

  private:
    /** Draw targets/class/model/SLO budget for request @p id. */
    InferenceRequest draw_request(int64_t id) const;

    std::vector<graph::NodeId> population_;
    LoadGeneratorOptions opts_;
};

} // namespace serve
} // namespace fastgl
