/**
 * @file
 * Extension validation: the serving subsystem (fastgl::serve) swept
 * over arrival rate x cache configuration x batcher policy on one
 * skewed open-loop Poisson trace per rate. Emits a single JSON object
 * on stdout (tools/ci.sh archives it as BENCH_serving.json) and
 * self-checks the two load-bearing claims on the deterministic virtual
 * clock, exiting non-zero when either fails:
 *
 *  (a) dynamic micro-batching + the embedding/feature caches improve
 *      tail latency AND completed load over the no-batch/no-cache
 *      baseline at the same arrival rate;
 *  (b) under overload, admission control engages (shed rate > 0) and
 *      the served tail stays finite instead of the backlog latency
 *      diverging with the trace length.
 *
 * All latencies/decisions are modelled seconds from measured counts,
 * so the numbers — and therefore the checks — are bit-identical on
 * every host. Pass --smoke for a seconds-long run (shorter trace,
 * smaller replica; the checks still hold because they are relative).
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fastgl.h"

namespace {

using namespace fastgl;

struct Config
{
    const char *name;
    serve::BatcherPolicy batcher;
    double feature_ratio;
    int64_t embedding_rows; ///< 0 = off, -1 = default (n/10).
};

struct Row
{
    std::string config;
    double rate_rps;
    serve::ServingStats stats;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    if (smoke)
        ropts.size_factor = 0.25;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);

    const int64_t num_requests = smoke ? 512 : 2048;
    const double slo = 20e-3;
    const std::vector<double> rates =
        smoke ? std::vector<double>{20e3, 300e3}
              : std::vector<double>{5e3, 20e3, 100e3, 300e3};

    serve::BatcherPolicy no_batch{/*max_batch=*/1, /*max_wait=*/0.0};
    serve::BatcherPolicy eager{/*max_batch=*/32, /*max_wait=*/0.5e-3};
    serve::BatcherPolicy patient{/*max_batch=*/32, /*max_wait=*/2e-3};
    const std::vector<Config> configs = {
        {"nobatch_nocache", no_batch, 0.0, 0},
        {"batch_only", patient, 0.0, 0},
        {"batch_eager_feature", eager, 0.2, 0},
        {"batch_feature_embed", patient, 0.2, -1},
    };

    std::vector<Row> rows;
    for (double rate : rates) {
        for (const Config &config : configs) {
            serve::ServerOptions sopts;
            sopts.worker_threads = 4;
            sopts.batcher = config.batcher;
            sopts.feature_cache_ratio = config.feature_ratio;
            sopts.embedding.capacity_rows = config.embedding_rows;
            sopts.seed = 11;
            serve::Server server(ds, sopts);

            serve::LoadGeneratorOptions lopts;
            lopts.rate_rps = rate;
            lopts.num_requests = num_requests;
            lopts.slo_deadline = slo;
            lopts.seed = 13;
            serve::LoadGenerator gen(server.popularity(), lopts);
            server.serve(gen.generate());
            rows.push_back({config.name, rate, server.last_stats()});
        }
    }

    auto find = [&rows](const char *config, double rate) -> const Row & {
        for (const Row &row : rows) {
            if (row.config == config && row.rate_rps == rate)
                return row;
        }
        std::fprintf(stderr, "missing sweep row %s@%.0f\n", config,
                     rate);
        std::exit(2);
    };

    // Check (a) at the saturating mid rate: the full configuration
    // beats the baseline on both completed load and tail latency.
    const serve::ServingStats &base = find("nobatch_nocache", 20e3).stats;
    const serve::ServingStats &full =
        find("batch_feature_embed", 20e3).stats;
    const bool improves = full.served > base.served &&
                          full.p99_latency < base.p99_latency &&
                          full.throughput_rps > base.throughput_rps;

    // Check (b) at the overload rate: shedding engages and the served
    // tail stays bounded (finite, and not orders beyond the SLO).
    const serve::ServingStats &over =
        find("batch_feature_embed", 300e3).stats;
    const bool sheds = over.shed_rate > 0.0 &&
                       std::isfinite(over.p99_latency) &&
                       over.p99_latency < 50.0 * slo;

    bool p99_finite = true;
    for (const Row &row : rows)
        p99_finite = p99_finite && std::isfinite(row.stats.p99_latency);

    const bool ok = improves && sheds && p99_finite;

    std::printf("{\n");
    std::printf("  \"bench\": \"serving\",\n");
    std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::printf("  \"dataset\": \"%s\",\n", ds.name.c_str());
    std::printf("  \"num_requests\": %lld,\n",
                static_cast<long long>(num_requests));
    std::printf("  \"slo_deadline_s\": %g,\n", slo);
    std::printf("  \"sweep\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        const serve::ServingStats &st = row.stats;
        std::printf(
            "    {\"config\": \"%s\", \"rate_rps\": %.0f, "
            "\"served\": %lld, \"served_late\": %lld, "
            "\"embedding_hits\": %lld, \"shed_rate\": %.4f, "
            "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
            "\"throughput_rps\": %.1f, \"goodput_rps\": %.1f, "
            "\"mean_batch\": %.2f, \"feature_hit_rate\": %.3f, "
            "\"embedding_hit_rate\": %.3f, \"gpu_utilization\": %.3f, "
            "\"fingerprint\": \"0x%016llx\"}%s\n",
            row.config.c_str(), row.rate_rps,
            static_cast<long long>(st.served),
            static_cast<long long>(st.served_late),
            static_cast<long long>(st.embedding_hits), st.shed_rate,
            st.p50_latency * 1e3, st.p95_latency * 1e3,
            st.p99_latency * 1e3, st.throughput_rps, st.goodput_rps,
            st.mean_batch_size, st.residency.features.hit_rate(),
            st.embedding_hit_rate, st.gpu_utilization,
            static_cast<unsigned long long>(st.fingerprint),
            i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"checks\": {\n");
    std::printf("    \"batching_and_caches_beat_baseline\": %s,\n",
                improves ? "true" : "false");
    std::printf("    \"shedding_engages_under_overload\": %s,\n",
                sheds ? "true" : "false");
    std::printf("    \"all_p99_finite\": %s\n",
                p99_finite ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"ok\": %s\n", ok ? "true" : "false");
    std::printf("}\n");
    return ok ? 0 : 1;
}
