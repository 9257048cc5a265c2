/**
 * @file
 * Extension validation: the out-of-core tiered feature store. A grid of
 * real training epochs (numeric losses, virtual-clock storage charges)
 * sweeps host-DRAM fraction x prefetch depth x feature layout against
 * an in-memory baseline, and self-checks the load-bearing claims of
 * store::TieredFeatureStore, exiting non-zero when any fails:
 *
 *  (a) storage is accounting only: every out-of-core config's loss
 *      curve hashes bit-identical to the in-memory baseline;
 *  (b) prefetch pays: at 25% host DRAM the lookahead prefetcher's
 *      demand stall is strictly below the demand-only run's;
 *  (c) layout pays: the partition-ordered relayout raises the demand
 *      block hit rate over the identity layout (same budget, same
 *      batches — only block composition moved);
 *  (d) a 1.0 host-DRAM fraction reproduces the in-memory modelled
 *      epoch seconds exactly (== on doubles, not a tolerance);
 *  (e) determinism is divergence-fatal: every config runs twice and
 *      one config sweeps gather/compute widths — any mismatch in the
 *      loss hash or any storage charge fails the run.
 *
 * Emits a single JSON object on stdout (tools/ci.sh archives it as
 * BENCH_oocstore.json). Pass --smoke for a seconds-long run.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "fastgl.h"
#include "util/fnv.h"

namespace {

using namespace fastgl;
using util::fnv_bytes;

struct OocConfig
{
    const char *name;
    store::StorageKind storage = store::StorageKind::kNvme;
    double host_fraction = 1.0;
    int prefetch_depth = 0;
    bool relayout = false;
    /** <= 0: the TieredStoreOptions default (effectively unbounded on
     *  replica-sized stores). The tight-staging configs bound it below
     *  the per-batch working set so FIFO eviction — and therefore
     *  block locality — matters. */
    int64_t staging_blocks = 0;
};

struct OocRow
{
    OocConfig cfg;
    uint64_t loss_hash = 0;
    double mean_loss = 0.0;
    double stall_s = 0.0;
    double hidden_s = 0.0;
    double epoch_s = 0.0;
    double compute_s = 0.0;
    double block_hit_rate = 0.0;
    int64_t storage_rows = 0;
    int64_t demand_blocks = 0;
    int64_t demand_fetched = 0;
    int64_t prefetch_hits = 0;
    int64_t host_rows = 0;
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
    ropts.materialize_features = true;
    ropts.size_factor = smoke ? 0.15 : 0.4;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);

    const int64_t max_batches = smoke ? 12 : 32;
    auto base_opts = [&]() {
        core::TrainerOptions opts;
        opts.max_batches = max_batches;
        opts.batch_size = 64;
        return opts;
    };

    // One epoch under @p cfg with a fresh trainer (same seed), so the
    // loss curve depends only on the numeric path — which the storage
    // tier must not touch.
    auto run_once = [&](const OocConfig &cfg, int threads) {
        core::TrainerOptions opts = base_opts();
        opts.compute_threads = threads;
        opts.gather_threads = threads;
        opts.storage.storage = cfg.storage;
        opts.storage.host_mem_fraction = cfg.host_fraction;
        opts.storage.prefetch_depth = cfg.prefetch_depth;
        opts.storage.relayout = cfg.relayout;
        if (cfg.staging_blocks > 0)
            opts.storage.staging_blocks = cfg.staging_blocks;
        core::Trainer trainer(ds, opts);
        const core::TrainEpochStats stats = trainer.train_epoch();

        OocRow row;
        row.cfg = cfg;
        row.loss_hash = fnv_bytes(stats.iteration_losses.data(),
                                  stats.iteration_losses.size() *
                                      sizeof(double));
        row.mean_loss = stats.mean_loss;
        const store::StoreStats &st = stats.residency.store;
        row.stall_s = st.stall_seconds;
        row.hidden_s = st.hidden_seconds;
        row.epoch_s = stats.modelled_epoch_seconds;
        row.compute_s = stats.modelled_compute_seconds;
        row.block_hit_rate = st.block_hit_rate();
        row.storage_rows = st.storage_rows;
        row.demand_blocks = st.demand_blocks;
        row.demand_fetched = st.demand_fetched;
        row.prefetch_hits = st.prefetch_hits;
        const store::TieredFeatureStore *ts = trainer.residency().store();
        row.host_rows = ts ? ts->host_rows() : ds.graph.num_nodes();
        return row;
    };

    const OocConfig baseline = {"in-memory", store::StorageKind::kNone,
                                1.0, 2, false};
    const std::vector<OocConfig> grid = {
        {"nvme-25pct-demand", store::StorageKind::kNvme, 0.25, 0,
         false},
        {"nvme-25pct-prefetch", store::StorageKind::kNvme, 0.25, 2,
         false},
        {"nvme-25pct-demand-relayout", store::StorageKind::kNvme, 0.25,
         0, true},
        {"nvme-25pct-prefetch-relayout", store::StorageKind::kNvme,
         0.25, 2, true},
        {"nvme-25pct-demand-tight", store::StorageKind::kNvme, 0.25, 0,
         false, 64},
        {"nvme-25pct-demand-tight-relayout", store::StorageKind::kNvme,
         0.25, 0, true, 64},
        {"nvme-50pct-prefetch", store::StorageKind::kNvme, 0.5, 2,
         false},
        {"ssd-25pct-prefetch", store::StorageKind::kSsd, 0.25, 2,
         false},
        {"nvme-full-host", store::StorageKind::kNvme, 1.0, 2, false},
    };

    const OocRow base_row = run_once(baseline, 1);

    // Every config runs twice (divergence-fatal: the virtual clock is
    // a pure function of the inputs).
    bool deterministic = true;
    std::vector<OocRow> rows;
    rows.push_back(base_row);
    for (const OocConfig &cfg : grid) {
        OocRow row = run_once(cfg, 1);
        const OocRow replay = run_once(cfg, 1);
        if (replay.loss_hash != row.loss_hash ||
            replay.stall_s != row.stall_s ||
            replay.hidden_s != row.hidden_s ||
            replay.demand_blocks != row.demand_blocks) {
            std::fprintf(stderr, "replay divergence: %s\n", cfg.name);
            deterministic = false;
        }
        rows.push_back(row);
    }

    auto find = [&rows](const char *name) -> const OocRow & {
        for (const OocRow &row : rows)
            if (std::strcmp(row.cfg.name, name) == 0)
                return row;
        std::fprintf(stderr, "missing row %s\n", name);
        std::exit(2);
    };

    // Check (e, width half): the storage charges are a virtual-clock
    // quantity — thread widths must not move them.
    for (const int threads : {4, 8}) {
        const OocRow wide = run_once(find("nvme-25pct-prefetch").cfg,
                                     threads);
        const OocRow &want = find("nvme-25pct-prefetch");
        if (wide.loss_hash != want.loss_hash ||
            wide.stall_s != want.stall_s ||
            wide.hidden_s != want.hidden_s) {
            std::fprintf(stderr, "width divergence at %d threads\n",
                         threads);
            deterministic = false;
        }
    }

    // Check (a): storage is accounting only.
    bool losses_identical = true;
    for (const OocRow &row : rows)
        losses_identical =
            losses_identical && row.loss_hash == base_row.loss_hash;

    // Check (b): prefetch pays at 25% host DRAM.
    const bool prefetch_pays =
        find("nvme-25pct-prefetch").stall_s <
        find("nvme-25pct-demand").stall_s;

    // Check (c): the partition-ordered relayout raises the demand
    // block hit rate under the same budget. Measured on the
    // tight-staging pair — with the bounce buffer smaller than the
    // per-batch working set, FIFO eviction punishes scattered layouts
    // and the BFS layout's block locality is what keeps hits alive —
    // and the relayout must also demand fewer blocks outright.
    const bool relayout_pays =
        find("nvme-25pct-demand-tight-relayout").block_hit_rate >
            find("nvme-25pct-demand-tight").block_hit_rate &&
        find("nvme-25pct-demand-relayout").demand_blocks <
            find("nvme-25pct-demand").demand_blocks;

    // Check (d): a full host-DRAM budget reproduces the in-memory
    // epoch exactly.
    const OocRow &full = find("nvme-full-host");
    const bool full_host_exact =
        full.epoch_s == base_row.epoch_s &&
        full.epoch_s == full.compute_s && full.stall_s == 0.0 &&
        full.demand_blocks == 0;

    const bool ok = losses_identical && prefetch_pays &&
                    relayout_pays && full_host_exact && deterministic;

    std::printf("{\n");
    std::printf("  \"bench\": \"oocstore\",\n");
    std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::printf("  \"dataset\": \"%s\",\n", ds.name.c_str());
    std::printf("  \"batches\": %lld,\n",
                static_cast<long long>(max_batches));
    std::printf("  \"rows\": %lld,\n",
                static_cast<long long>(ds.graph.num_nodes()));
    std::printf("  \"grid\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const OocRow &row = rows[i];
        std::printf(
            "    {\"config\": \"%s\", \"storage\": \"%s\", "
            "\"host_fraction\": %.2f, \"host_rows\": %lld, "
            "\"prefetch_depth\": %d, \"relayout\": %s, "
            "\"loss_hash\": \"0x%016llx\", \"mean_loss\": %.6f, "
            "\"stall_s\": %.9f, \"hidden_s\": %.9f, "
            "\"epoch_s\": %.9f, \"block_hit_rate\": %.4f, "
            "\"storage_rows\": %lld, \"demand_blocks\": %lld, "
            "\"demand_fetched\": %lld, \"prefetch_hits\": %lld}%s\n",
            row.cfg.name, store::storage_kind_name(row.cfg.storage),
            row.cfg.host_fraction,
            static_cast<long long>(row.host_rows),
            row.cfg.prefetch_depth, row.cfg.relayout ? "true" : "false",
            static_cast<unsigned long long>(row.loss_hash),
            row.mean_loss, row.stall_s, row.hidden_s, row.epoch_s,
            row.block_hit_rate,
            static_cast<long long>(row.storage_rows),
            static_cast<long long>(row.demand_blocks),
            static_cast<long long>(row.demand_fetched),
            static_cast<long long>(row.prefetch_hits),
            i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"checks\": {\n");
    std::printf("    \"losses_bit_identical_to_in_memory\": %s,\n",
                losses_identical ? "true" : "false");
    std::printf("    \"prefetch_cuts_stall_at_25pct\": %s,\n",
                prefetch_pays ? "true" : "false");
    std::printf("    \"relayout_raises_block_hit_rate\": %s,\n",
                relayout_pays ? "true" : "false");
    std::printf("    \"full_host_fraction_exactly_in_memory\": %s,\n",
                full_host_exact ? "true" : "false");
    std::printf("    \"deterministic_across_runs_and_widths\": %s\n",
                deterministic ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"ok\": %s\n", ok ? "true" : "false");
    std::printf("}\n");
    return ok ? 0 : 1;
}
