/**
 * @file
 * fastgl_cli — command-line driver for the FastGL library.
 *
 * Modes:
 *   model  — run modelled epochs under a framework preset and print the
 *            phase breakdown (the library's main use).
 *   train  — run real numeric training and print the loss curve.
 *   serve  — run online inference serving over a synthetic Poisson
 *            trace and print latency/shedding statistics.
 *   info   — print dataset replica statistics.
 *
 * Examples:
 *   fastgl_cli model --dataset products --framework fastgl --gpus 4
 *   fastgl_cli model --dataset papers100m --framework dgl --epochs 3
 *   fastgl_cli train --dataset reddit --model gin --epochs 5
 *   fastgl_cli serve --dataset products --rate 20000 --requests 2048
 *   fastgl_cli info  --dataset mag
 */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>

#include "fastgl.h"

namespace {

using namespace fastgl;

/**
 * Tiny argv parser after the mode word: --key value pairs, plus bare
 * --flags (no value, e.g. --help) stored as "1".
 */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                continue;
            const bool has_value =
                i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
            values_[argv[i] + 2] = has_value ? argv[i + 1] : "1";
            if (has_value)
                ++i;
        }
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) != 0;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    int64_t
    get_int(const std::string &key, int64_t fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback
                                   : parse<int64_t>(key, it->second);
    }

    /** get_int, failing fast (naming the flag) below @p min or, when
     *  given, above @p max. */
    int64_t
    get_int_at_least(const std::string &key, int64_t fallback,
                     int64_t min,
                     std::optional<int64_t> max = std::nullopt) const
    {
        const int64_t value = get_int(key, fallback);
        if (value < min || (max && value > *max))
            util::fatal("--" + key + " must be " +
                        (max ? "in [" + std::to_string(min) + ", " +
                                   std::to_string(*max) + "]"
                             : ">= " + std::to_string(min)) +
                        " (got " + std::to_string(value) + ")");
        return value;
    }

    /** A finite real >= 0 (failing fast, naming the flag); nullopt
     *  when the flag is absent. */
    std::optional<double>
    get_nonnegative_real(const std::string &key) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return std::nullopt;
        const double value = parse<double>(key, it->second);
        if (!std::isfinite(value) || value < 0.0)
            util::fatal("--" + key + " must be a finite number >= 0 (got " +
                        it->second + ")");
        return value;
    }

  private:
    /** All of @p text as a T; anything else is fatal, naming --key. */
    template <typename T>
    static T
    parse(const std::string &key, const std::string &text)
    {
        T value{};
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, value);
        if (ec != std::errc() || ptr != end)
            util::fatal("--" + key + " must be " +
                        (std::is_integral_v<T> ? "an integer"
                                               : "a number") +
                        " (got '" + text + "')");
        return value;
    }

    std::map<std::string, std::string> values_;
};

graph::DatasetId
parse_dataset(const std::string &name)
{
    if (name == "reddit" || name == "rd")
        return graph::DatasetId::kReddit;
    if (name == "products" || name == "pr")
        return graph::DatasetId::kProducts;
    if (name == "mag")
        return graph::DatasetId::kMag;
    if (name == "igb")
        return graph::DatasetId::kIgbLarge;
    if (name == "papers100m" || name == "pa")
        return graph::DatasetId::kPapers100M;
    util::fatal("unknown dataset '" + name +
                "' (reddit|products|mag|igb|papers100m)");
}

core::Framework
parse_framework(const std::string &name)
{
    if (name == "pyg")
        return core::Framework::kPyG;
    if (name == "dgl")
        return core::Framework::kDgl;
    if (name == "gnnadvisor")
        return core::Framework::kGnnAdvisor;
    if (name == "gnnlab")
        return core::Framework::kGnnLab;
    if (name == "fastgl")
        return core::Framework::kFastGL;
    util::fatal("unknown framework '" + name +
                "' (pyg|dgl|gnnadvisor|gnnlab|fastgl)");
}

graph::PartitionerKind
parse_partitioner(const std::string &name)
{
    if (name == "bfs")
        return graph::PartitionerKind::kBfs;
    if (name == "ldg")
        return graph::PartitionerKind::kLdg;
    util::fatal("unknown partitioner '" + name + "' (bfs|ldg)");
}

store::StorageKind
parse_storage(const std::string &name)
{
    if (name == "none")
        return store::StorageKind::kNone;
    if (name == "nvme")
        return store::StorageKind::kNvme;
    if (name == "ssd")
        return store::StorageKind::kSsd;
    util::fatal("unknown storage '" + name + "' (none|nvme|ssd)");
}

/**
 * Shared --storage / --host-mem-gb / --prefetch-depth / --relayout
 * parsing for the train and serve modes (out-of-core tier). Runs
 * before the replica load of dataset @p id, so a bad value fails fast.
 */
store::TieredStoreOptions
parse_storage_opts(const Args &args, graph::DatasetId id)
{
    store::TieredStoreOptions storage;
    storage.storage = parse_storage(args.get("storage", "none"));
    if (const std::optional<double> gb =
            args.get_nonnegative_real("host-mem-gb")) {
        // Replica rows are as wide as the full-scale dataset's
        // (graph::load_replica). A budget of 1e18 rows or more already
        // holds every row, so capping there keeps the cast in range.
        const double row_bytes =
            double(graph::full_scale_spec(id).feature_dim) *
            sizeof(float);
        storage.host_mem_rows = static_cast<int64_t>(std::min(
            1e18, *gb * double(uint64_t(1) << 30) / row_bytes));
    }
    storage.prefetch_depth = int(args.get_int_at_least(
        "prefetch-depth", storage.prefetch_depth, 0,
        std::numeric_limits<int>::max()));
    storage.relayout = args.has("relayout");
    return storage;
}

/**
 * Shared train/serve summary of a run's feature-residency report:
 * shard traffic per partition, the peer links, and the out-of-core
 * tier once it classified rows (@p storage names its drive).
 */
void
print_residency(const store::ResidencyStats &r,
                const store::TieredStoreOptions &storage)
{
    for (size_t p = 0; p < r.per_partition.size(); ++p) {
        const match::PartitionCacheCounters &c = r.per_partition[p];
        if (c.lookups() == 0)
            continue;
        std::printf("  partition %zu: %lld local + %lld remote hits, "
                    "%lld misses (%.1f%% hit)\n",
                    p, static_cast<long long>(c.local_hits),
                    static_cast<long long>(c.remote_hits),
                    static_cast<long long>(c.misses),
                    100.0 * c.hit_rate());
    }
    for (const sim::PeerLinkStats &link : r.peer_links)
        std::printf("  link %d->%d (%s): %s in %lld transfers, %s\n",
                    link.src, link.dst,
                    sim::peer_link_kind_name(link.kind),
                    util::human_bytes(double(link.bytes)).c_str(),
                    static_cast<long long>(link.transfers),
                    util::human_seconds(link.seconds).c_str());
    const store::StoreStats &s = r.store;
    if (s.lookup_rows == 0)
        return;
    std::printf(
        "  storage %s%s: %lld host + %lld storage rows -> %lld blocks "
        "(%.1f%% staged, %lld prefetch hits) | stall %s, hidden %s\n",
        store::storage_kind_name(storage.storage),
        storage.relayout ? "+relayout" : "",
        static_cast<long long>(s.host_rows),
        static_cast<long long>(s.storage_rows),
        static_cast<long long>(s.demand_blocks),
        100.0 * s.block_hit_rate(),
        static_cast<long long>(s.prefetch_hits),
        util::human_seconds(s.stall_seconds).c_str(),
        util::human_seconds(s.hidden_seconds).c_str());
}

compute::ModelType
parse_model(const std::string &name)
{
    if (name == "gcn")
        return compute::ModelType::kGcn;
    if (name == "gin")
        return compute::ModelType::kGin;
    if (name == "gat")
        return compute::ModelType::kGat;
    util::fatal("unknown model '" + name + "' (gcn|gin|gat)");
}

serve::ArrivalTrace
parse_trace(const std::string &name)
{
    if (name == "const" || name == "constant")
        return serve::ArrivalTrace::kConstant;
    if (name == "diurnal")
        return serve::ArrivalTrace::kDiurnal;
    if (name == "flash")
        return serve::ArrivalTrace::kFlashCrowd;
    util::fatal("unknown trace '" + name + "' (const|diurnal|flash)");
}

/** Write --profile-json output; false (with a message) on failure. */
bool
write_profile_json(const std::string &path,
                   const prof::ProfileReport &report)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write profile JSON to %s\n",
                     path.c_str());
        return false;
    }
    const std::string json = report.to_json();
    std::fputs(json.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
    std::printf("  wrote profile JSON to %s\n", path.c_str());
    return true;
}

void
usage_model()
{
    std::printf(
        "usage: fastgl_cli model [--key value]...\n"
        "Run modelled training epochs under a framework preset and\n"
        "print the phase breakdown (sample / id-map / io / compute).\n"
        "  --dataset D      reddit|products|mag|igb|papers100m "
        "(products)\n"
        "  --framework F    pyg|dgl|gnnadvisor|gnnlab|fastgl (fastgl)\n"
        "  --model M        gcn|gin|gat (gcn)\n"
        "  --gpus N         modelled GPUs per machine (2)\n"
        "  --machines N     modelled machines (1)\n"
        "  --epochs N       epochs to run (1)\n"
        "  --batch N        batch size; 0 = dataset default (0)\n"
        "  --max-batches N  cap batches per epoch; 0 = all (0)\n"
        "  --scale-pct N    replica scale percent (100)\n"
        "  --seed N         RNG seed (1)\n");
}

void
usage_train()
{
    std::printf(
        "usage: fastgl_cli train [--key value]...\n"
        "Run real numeric training (forward/backward on the host\n"
        "kernel engine) and print the loss curve.\n"
        "  --dataset D          reddit|products|mag|igb|papers100m "
        "(products)\n"
        "  --model M            gcn|gin|gat (gcn)\n"
        "  --epochs N           epochs to run (3)\n"
        "  --batch N            batch size; 0 = dataset default (0)\n"
        "  --max-batches N      cap batches per epoch; 0 = all (10)\n"
        "  --lr-milli N         learning rate in thousandths (3)\n"
        "  --compute-threads N  kernel-engine width; 0 = every\n"
        "                       hardware thread; results are\n"
        "                       bit-identical at any width (0)\n"
        "  --gpus N             modelled devices for partition-sharded\n"
        "                       cache accounting; 1 = off (1)\n"
        "  --partitioner P      bfs|ldg shard partitioner (ldg)\n"
        "  --cache-pct N        feature-cache capacity percent; the\n"
        "                       shards split this budget (0, or 20\n"
        "                       when --gpus > 1)\n"
        "  --scale-pct N        replica scale percent (50)\n"
        "  --save-warmup PATH   record per-node access frequencies\n"
        "                       over all epochs and write a serving\n"
        "                       warmup trace (see serve --warmup)\n"
        "  --storage S          none|nvme|ssd out-of-core tier for\n"
        "                       rows beyond the host-DRAM budget\n"
        "                       (none)\n"
        "  --host-mem-gb G      host-DRAM feature budget in GiB;\n"
        "                       fractions allowed (all rows)\n"
        "  --prefetch-depth N   batches sampled ahead so their\n"
        "                       storage blocks prefetch; 0 = demand\n"
        "                       reads only (2)\n"
        "  --relayout           store features partition-major in BFS\n"
        "                       order instead of node-ID order (off)\n"
        "  --profile            print the per-stage profiler table\n"
        "                       after the final epoch; losses are\n"
        "                       bit-identical on or off (off)\n"
        "  --profile-json PATH  write the final epoch's profile as\n"
        "                       JSON (implies --profile)\n"
        "  --seed N             RNG seed (3407)\n");
}

void
usage_serve()
{
    std::printf(
        "usage: fastgl_cli serve [--key value]...\n"
        "Serve a synthetic inference trace on the virtual clock and\n"
        "print latency / shedding / cache statistics.\n"
        "workload:\n"
        "  --dataset D        reddit|products|mag|igb|papers100m "
        "(products)\n"
        "  --rate RPS         offered load, requests/s (20000)\n"
        "  --requests N       trace length (2048)\n"
        "  --trace T          const|diurnal|flash arrival-rate curve\n"
        "                     (const)\n"
        "  --clients N        closed-loop client pool: N clients,\n"
        "                     each with at most one request in\n"
        "                     flight; 0 = open-loop Poisson (0)\n"
        "  --think-us N       mean closed-loop think time between\n"
        "                     response and next request, us (2000)\n"
        "  --slo-ms N         per-request deadline, ms (20)\n"
        "  --targets N        target nodes per request (1)\n"
        "  --mix-paid PCT     share of paid requests (0)\n"
        "  --mix-std PCT      share of standard requests (100)\n"
        "  --mix-be PCT       share of best-effort requests (0)\n"
        "server:\n"
        "  --model M          gcn|gin|gat for tier 0 (gcn)\n"
        "  --model2 M         add a second model tier (off)\n"
        "  --model2-share PCT traffic routed to tier 1 (30)\n"
        "  --batch-max N      close batch at N requests (32)\n"
        "  --wait-us N        close batch after N us wait (2000)\n"
        "  --max-pending N    admission queue bound; <=0 off (64)\n"
        "  --drr-quantum-us N DRR quantum between tiers, us (1000)\n"
        "  --cache-pct N      feature-cache capacity percent (20)\n"
        "  --embed-rows N     embedding-cache rows; -1 = auto (-1)\n"
        "  --warmup PATH      seed caches from a warmup trace\n"
        "                     recorded by train --save-warmup (off)\n"
        "  --threads N        host sampler threads; no effect on\n"
        "                     modelled results (4)\n"
        "  --samplers N       modelled sampler-worker pool; 0 keeps\n"
        "                     sampling charged inside batch service\n"
        "                     as in earlier releases (0)\n"
        "  --autoscale        autoscale the sampler pool on profiled\n"
        "                     queue waits (off)\n"
        "  --autoscale-min N  pool lower bound and start size (1)\n"
        "  --autoscale-max N  pool upper bound (8)\n"
        "  --autoscale-cache-pct N\n"
        "                     embedding-cache budget at max workers,\n"
        "                     percent of the base budget (100)\n"
        "  --gpus N           modelled devices; caches shard along a\n"
        "                     graph partitioning and batches route to\n"
        "                     their partition's owner (1)\n"
        "  --partitioner P    bfs|ldg shard partitioner (ldg)\n"
        "  --shard S          sharded|replicated cache layout "
        "(sharded)\n"
        "storage:\n"
        "  --storage S        none|nvme|ssd out-of-core tier for rows\n"
        "                     beyond the host-DRAM budget (none)\n"
        "  --host-mem-gb G    host-DRAM feature budget in GiB;\n"
        "                     fractions allowed (all rows)\n"
        "  --prefetch-depth N prefetch window depth in admitted\n"
        "                     requests; 0 = demand reads only (2)\n"
        "  --relayout         store features partition-major in BFS\n"
        "                     order instead of node-ID order (off)\n"
        "compute:\n"
        "  --logits 0|1       run the real forward per batch and\n"
        "                     fill predictions (0)\n"
        "  --compute-threads N kernel-engine width for --logits 1;\n"
        "                     bit-identical at any width (1)\n"
        "misc:\n"
        "  --profile          print the per-stage profiler table;\n"
        "                     fingerprints are bit-identical with\n"
        "                     profiling on or off (off)\n"
        "  --profile-json PATH write the profile as JSON (implies\n"
        "                     --profile)\n"
        "  --scale-pct N      replica scale percent (100)\n"
        "  --seed N           RNG seed (1)\n");
}

void
usage_info()
{
    std::printf(
        "usage: fastgl_cli info [--key value]...\n"
        "Print dataset replica statistics.\n"
        "  --dataset D  reddit|products|mag|igb|papers100m "
        "(products)\n");
}

int
run_model(const Args &args)
{
    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    ropts.size_factor = double(args.get_int("scale-pct", 100)) / 100.0;
    const graph::Dataset ds = graph::load_replica(
        parse_dataset(args.get("dataset", "products")), ropts);

    core::PipelineOptions opts;
    opts.fw = core::framework_preset(
        parse_framework(args.get("framework", "fastgl")));
    opts.num_gpus = int(args.get_int("gpus", 2));
    opts.num_machines = int(args.get_int("machines", 1));
    opts.model.type = parse_model(args.get("model", "gcn"));
    opts.batch_size = args.get_int("batch", 0);
    opts.max_batches = args.get_int("max-batches", 0);
    opts.seed = uint64_t(args.get_int("seed", 1));
    core::Pipeline pipeline(ds, opts);

    const int epochs = int(args.get_int("epochs", 1));
    std::printf("%s on %s, %d GPU(s) x %d machine(s), model %s\n",
                opts.fw.name.c_str(), ds.name.c_str(), opts.num_gpus,
                opts.num_machines,
                compute::model_type_name(opts.model.type));
    for (int e = 0; e < epochs; ++e) {
        const core::EpochResult r = pipeline.run_epoch();
        std::printf(
            "epoch %d: %s | sample %s, id-map %s, io %s, compute %s | "
            "%lld batches, reuse %.1f%%, %s over PCIe\n",
            e, util::human_seconds(r.epoch_seconds).c_str(),
            util::human_seconds(r.phases.sample).c_str(),
            util::human_seconds(r.phases.id_map).c_str(),
            util::human_seconds(r.phases.io).c_str(),
            util::human_seconds(r.phases.compute).c_str(),
            static_cast<long long>(r.batches),
            100.0 * r.reuse_fraction(),
            util::human_bytes(double(r.bytes_loaded)).c_str());
    }
    return 0;
}

int
run_train(const Args &args)
{
    // Reject arguments the trainer would otherwise coerce or die on,
    // before the replica load. 0 keeps its documented meaning for
    // --batch, --max-batches and --compute-threads (every hardware
    // thread; results are bit-identical at any width).
    core::TrainerOptions opts;
    const int64_t scale_pct = args.get_int_at_least("scale-pct", 50, 1);
    opts.batch_size = args.get_int_at_least("batch", 0, 0);
    opts.max_batches = args.get_int_at_least("max-batches", 10, 0);
    opts.compute_threads =
        int(args.get_int_at_least("compute-threads", 0, 0));
    opts.num_gpus = int(args.get_int_at_least("gpus", 1, 1));
    // The shards need a cache budget: default one in when --gpus asks
    // for the accounting pass but no --cache-pct was given.
    opts.feature_cache_ratio =
        double(args.get_int_at_least(
            "cache-pct", opts.num_gpus > 1 ? 20 : 0, 0, 100)) /
        100.0;
    const graph::DatasetId dataset =
        parse_dataset(args.get("dataset", "products"));
    opts.model.type = parse_model(args.get("model", "gcn"));
    opts.learning_rate =
        float(args.get_int("lr-milli", 3)) / 1000.0f;
    opts.seed = uint64_t(args.get_int("seed", 3407));
    opts.partitioner = parse_partitioner(args.get("partitioner", "ldg"));
    opts.storage = parse_storage_opts(args, dataset);
    const std::string profile_json = args.get("profile-json", "");
    opts.profile = args.has("profile") || !profile_json.empty();
    const std::string warmup_path = args.get("save-warmup", "");
    opts.record_node_frequencies = !warmup_path.empty();
    const int epochs = int(args.get_int("epochs", 3));

    graph::ReplicaOptions ropts;
    ropts.size_factor = double(scale_pct) / 100.0;
    const graph::Dataset ds = graph::load_replica(dataset, ropts);
    core::Trainer trainer(ds, opts);

    std::printf("training %s on %s (%d epochs%s)\n",
                compute::model_type_name(opts.model.type),
                ds.name.c_str(), epochs,
                opts.num_gpus > 1 ? ", sharded cache accounting" : "");
    match::WarmupTrace warmup;
    prof::ProfileReport last_profile;
    for (int e = 0; e < epochs; ++e) {
        const auto stats = trainer.train_epoch();
        if (opts.profile)
            last_profile = stats.profile;
        const compute::KernelEngineStats &kernels = stats.measured_compute;
        std::printf("epoch %d: loss %.4f, accuracy %.3f | host compute "
                    "%.3fs (%.1f GFLOP/s gemm, %.0f B/edge agg), "
                    "modelled GPU %.3fs\n",
                    e, stats.mean_loss, stats.mean_accuracy,
                    kernels.gemm_seconds + kernels.agg_seconds,
                    kernels.gemm_gflops(), kernels.agg_bytes_per_edge(),
                    stats.modelled_compute_seconds);
        const store::ResidencyStats &residency = stats.residency;
        if (stats.num_gpus > 1)
            std::printf("  %d modelled devices (%s): %lld local + "
                        "%lld remote hits, %lld misses (%.1f%% hit)\n",
                        stats.num_gpus,
                        graph::partitioner_name(opts.partitioner),
                        static_cast<long long>(
                            residency.features.local_hits),
                        static_cast<long long>(
                            residency.features.remote_hits),
                        static_cast<long long>(residency.features.misses),
                        100.0 * residency.features.hit_rate());
        print_residency(residency, opts.storage);
        if (residency.store.lookup_rows > 0)
            std::printf("  modelled epoch %s (compute %s + storage "
                        "stall %s)\n",
                        util::human_seconds(stats.modelled_epoch_seconds)
                            .c_str(),
                        util::human_seconds(
                            stats.modelled_compute_seconds)
                            .c_str(),
                        util::human_seconds(residency.store.stall_seconds)
                            .c_str());
        if (opts.record_node_frequencies) {
            if (warmup.frequencies.empty())
                warmup.frequencies = stats.node_frequencies;
            else
                for (size_t i = 0; i < warmup.frequencies.size(); ++i)
                    warmup.frequencies[i] += stats.node_frequencies[i];
        }
    }
    if (opts.profile) {
        std::printf("%s", last_profile.to_table().c_str());
        if (!profile_json.empty() &&
            !write_profile_json(profile_json, last_profile))
            return 1;
    }
    if (!warmup_path.empty()) {
        if (match::save_warmup_trace(warmup_path, warmup))
            std::printf("saved warmup trace (%zu nodes) to %s — replay "
                        "with: serve --warmup %s --scale-pct %lld\n",
                        warmup.frequencies.size(), warmup_path.c_str(),
                        warmup_path.c_str(),
                        static_cast<long long>(scale_pct));
        else
            return 1;
    }
    return 0;
}

int
run_serve(const Args &args)
{
    // Read every flag before the replica load, rejecting workload
    // arguments the server would otherwise coerce or die on.
    const int64_t rate = args.get_int_at_least("rate", 20000, 1);
    const int64_t batch_max = args.get_int_at_least("batch-max", 32, 1);
    const int64_t requests = args.get_int("requests", 2048);
    const int64_t clients = args.get_int("clients", 0);
    if (clients > 0 && requests < clients)
        util::fatal("--requests " + std::to_string(requests) +
                    " is fewer than --clients " +
                    std::to_string(clients) +
                    ": every closed-loop client issues >= 1 request");
    serve::ServerOptions sopts;
    sopts.batcher.max_wait =
        double(args.get_int_at_least("wait-us", 2000, 0)) / 1e6;
    sopts.feature_cache_ratio =
        double(args.get_int_at_least("cache-pct", 20, 0, 100)) / 100.0;
    sopts.num_gpus = int(args.get_int_at_least("gpus", 1, 1));
    const graph::DatasetId dataset =
        parse_dataset(args.get("dataset", "products"));
    const int64_t scale_pct = args.get_int("scale-pct", 100);

    sopts.worker_threads = int(args.get_int("threads", 4));
    sopts.model.type = parse_model(args.get("model", "gcn"));
    sopts.batcher.max_batch = int(batch_max);
    sopts.admission.max_pending = args.get_int("max-pending", 64);
    sopts.drr_quantum =
        double(args.get_int("drr-quantum-us", 1000)) / 1e6;
    sopts.embedding.capacity_rows = args.get_int("embed-rows", -1);
    sopts.compute_logits = args.get_int("logits", 0) != 0;
    sopts.compute_threads = int(args.get_int("compute-threads", 1));
    sopts.partitioner =
        parse_partitioner(args.get("partitioner", "ldg"));
    const std::string shard = args.get("shard", "sharded");
    if (shard == "replicated")
        sopts.shard_mode = match::ShardMode::kReplicated;
    else if (shard != "sharded")
        util::fatal("unknown shard mode '" + shard +
                    "' (sharded|replicated)");
    sopts.seed = uint64_t(args.get_int("seed", 1));
    sopts.storage = parse_storage_opts(args, dataset);
    const std::string profile_json = args.get("profile-json", "");
    sopts.profile = args.has("profile") || !profile_json.empty();
    sopts.modelled_samplers = int(args.get_int("samplers", 0));
    if (args.has("autoscale")) {
        sopts.autoscale.enabled = true;
        sopts.autoscale.min_workers =
            int(args.get_int("autoscale-min", 1));
        sopts.autoscale.max_workers =
            int(args.get_int("autoscale-max", 8));
        sopts.autoscale.cache_grow =
            double(args.get_int("autoscale-cache-pct", 100)) / 100.0;
    }

    // --model2 hosts a second tier behind the same front door; both
    // tiers inherit the shared batcher/embedding settings.
    const std::string model2 = args.get("model2", "");
    serve::LoadGeneratorOptions lopts;
    if (!model2.empty()) {
        serve::ModelTier tier;
        tier.name = args.get("model", "gcn");
        tier.model.type = sopts.model.type;
        tier.batcher = sopts.batcher;
        tier.embedding = sopts.embedding;
        sopts.models.push_back(tier);
        tier.name = model2;
        tier.model.type = parse_model(model2);
        sopts.models.push_back(tier);
        const double share = std::clamp(
            double(args.get_int("model2-share", 30)) / 100.0, 0.0, 1.0);
        lopts.model_mix = {1.0 - share, share};
    }

    lopts.rate_rps = double(rate);
    lopts.trace = parse_trace(args.get("trace", "const"));
    lopts.num_requests = requests;
    lopts.targets_per_request = int(args.get_int("targets", 1));
    lopts.slo_deadline =
        double(args.get_int("slo-ms", 20)) / 1e3;
    lopts.class_mix = {double(args.get_int("mix-paid", 0)),
                       double(args.get_int("mix-std", 100)),
                       double(args.get_int("mix-be", 0))};
    lopts.seed = sopts.seed + 1;

    // --clients N turns the run into a closed loop: the trace length
    // is rounded down to a whole number of requests per client.
    serve::ClosedLoopOptions copts;
    copts.num_clients = int(clients);
    if (copts.num_clients > 0) {
        copts.requests_per_client =
            lopts.num_requests / copts.num_clients;
        copts.think_time = double(args.get_int("think-us", 2000)) / 1e6;
        lopts.num_requests =
            copts.requests_per_client * copts.num_clients;
    }

    // Warmup trace (recorded by `train --save-warmup`): seeds the
    // feature-cache ranking and every tier's embedding cache.
    const std::string warmup_path = args.get("warmup", "");
    if (!warmup_path.empty()) {
        sopts.warmup = match::load_warmup_trace(warmup_path);
        if (sopts.warmup.empty())
            return 1;
    }

    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    ropts.size_factor = double(scale_pct) / 100.0;
    const graph::Dataset ds = graph::load_replica(dataset, ropts);
    serve::Server server(ds, sopts);
    serve::LoadGenerator gen(server.popularity(), lopts);

    if (copts.num_clients > 0)
        std::printf("serving %s: %lld requests from %d closed-loop "
                    "client(s), think %s, SLO %s, batch<=%d/%s, "
                    "%d worker thread(s)%s\n",
                    ds.name.c_str(),
                    static_cast<long long>(lopts.num_requests),
                    copts.num_clients,
                    util::human_seconds(copts.think_time).c_str(),
                    util::human_seconds(lopts.slo_deadline).c_str(),
                    sopts.batcher.max_batch,
                    util::human_seconds(sopts.batcher.max_wait).c_str(),
                    sopts.worker_threads,
                    server.warmed() ? ", warmed caches" : "");
    else
        std::printf("serving %s: %lld requests at %.0f rps (%s "
                    "trace), SLO %s, batch<=%d/%s, %d worker "
                    "thread(s)%s\n",
                    ds.name.c_str(),
                    static_cast<long long>(lopts.num_requests),
                    lopts.rate_rps,
                    serve::arrival_trace_name(lopts.trace),
                    util::human_seconds(lopts.slo_deadline).c_str(),
                    sopts.batcher.max_batch,
                    util::human_seconds(sopts.batcher.max_wait).c_str(),
                    sopts.worker_threads,
                    server.warmed() ? ", warmed caches" : "");
    if (copts.num_clients > 0)
        server.serve_closed(gen.generate_closed(copts));
    else
        server.serve(gen.generate());
    const serve::ServingStats &st = server.last_stats();
    std::printf(
        "  served %lld/%lld (%lld late, %lld embedding hits) | "
        "shed %lld queue + %lld deadline (%.1f%%)\n",
        static_cast<long long>(st.served),
        static_cast<long long>(st.offered),
        static_cast<long long>(st.served_late),
        static_cast<long long>(st.embedding_hits),
        static_cast<long long>(st.shed_queue),
        static_cast<long long>(st.dropped_deadline),
        100.0 * st.shed_rate);
    std::printf("  latency p50 %s, p95 %s, p99 %s, mean %s\n",
                util::human_seconds(st.p50_latency).c_str(),
                util::human_seconds(st.p95_latency).c_str(),
                util::human_seconds(st.p99_latency).c_str(),
                util::human_seconds(st.mean_latency).c_str());
    std::printf("  throughput %.1f rps (goodput %.1f) over %s | "
                "%lld batches, mean size %.1f, GPU busy %.1f%%\n",
                st.throughput_rps, st.goodput_rps,
                util::human_seconds(st.makespan).c_str(),
                static_cast<long long>(st.batches),
                st.mean_batch_size, 100.0 * st.gpu_utilization);
    std::printf("  feature cache %.1f%% hit (%lld rows), embedding "
                "cache %.1f%% hit (%lld rows)\n",
                100.0 * st.residency.features.hit_rate(),
                static_cast<long long>(server.feature_cache_rows()),
                100.0 * st.embedding_hit_rate,
                static_cast<long long>(server.embedding_cache_rows()));
    if (st.warmed)
        std::printf("  warmup: %lld embedding rows pre-seeded\n",
                    static_cast<long long>(st.warmed_rows));
    if (st.num_gpus > 1)
        std::printf("  %d modelled devices (%s, %s): %lld remote "
                    "feature hits, %lld remote embedding hits\n",
                    st.num_gpus,
                    graph::partitioner_name(sopts.partitioner),
                    match::shard_mode_name(sopts.shard_mode),
                    static_cast<long long>(
                        st.residency.features.remote_hits),
                    static_cast<long long>(st.embedding_remote_hits));
    print_residency(st.residency, sopts.storage);
    for (size_t c = 0; c < serve::kNumPriorityClasses; ++c) {
        const serve::PriorityClassStats &cls = st.per_class[c];
        if (cls.offered == 0)
            continue;
        std::printf("  class %-11s %lld offered, %lld served "
                    "(%lld late), shed %lld+%lld (%.1f%%), "
                    "p50 %s, p99 %s\n",
                    serve::priority_name(
                        static_cast<serve::Priority>(c)),
                    static_cast<long long>(cls.offered),
                    static_cast<long long>(cls.served),
                    static_cast<long long>(cls.served_late),
                    static_cast<long long>(cls.shed_queue),
                    static_cast<long long>(cls.dropped_deadline),
                    100.0 * cls.shed_rate,
                    util::human_seconds(cls.p50_latency).c_str(),
                    util::human_seconds(cls.p99_latency).c_str());
    }
    if (server.num_models() > 1) {
        for (const serve::ModelTierStats &tier : st.per_model)
            std::printf("  tier %-8s %lld offered, %lld served, "
                        "%lld batches (mean %.1f), device %s, "
                        "embed %.1f%% hit, %lld warmed rows\n",
                        tier.name.c_str(),
                        static_cast<long long>(tier.offered),
                        static_cast<long long>(tier.served),
                        static_cast<long long>(tier.batches),
                        tier.mean_batch_size,
                        util::human_seconds(tier.gpu_busy_seconds)
                            .c_str(),
                        100.0 * tier.embedding_hit_rate,
                        static_cast<long long>(tier.warmed_rows));
    }
    if (sopts.compute_logits)
        std::printf("  compute: %lld real forwards in %s host "
                    "(%.1f GFLOP/s gemm)\n",
                    static_cast<long long>(st.compute_batches),
                    util::human_seconds(st.compute_seconds).c_str(),
                    st.compute_gflops);
    if (st.modelled_samplers > 0 && !st.autoscale.enabled)
        std::printf("  sampler pool: %d modelled worker(s)\n",
                    st.modelled_samplers);
    if (st.autoscale.enabled) {
        const serve::AutoscaleReport &as = st.autoscale;
        std::printf("  autoscale: %d -> %d worker(s) in [%d, %d], "
                    "%zu change(s)\n",
                    st.modelled_samplers, as.final_workers,
                    as.min_workers, as.max_workers, as.events.size());
        if (as.first_pressure_at >= 0.0)
            std::printf("    first pressure at %s, scale-up lag %s\n",
                        util::human_seconds(as.first_pressure_at)
                            .c_str(),
                        util::human_seconds(as.scale_up_lag).c_str());
        for (const serve::AutoscaleEvent &ev : as.events)
            std::printf("    %s: %d -> %d (window wait %s, util "
                        "%.0f%%)\n",
                        util::human_seconds(ev.at).c_str(),
                        ev.workers_before, ev.workers_after,
                        util::human_seconds(ev.window_wait).c_str(),
                        100.0 * ev.window_util);
    }
    if (sopts.profile) {
        std::printf("%s", st.profile.to_table().c_str());
        if (!profile_json.empty() &&
            !write_profile_json(profile_json, st.profile))
            return 1;
    }
    std::printf("  fingerprint 0x%016llx (host wall %s)\n",
                static_cast<unsigned long long>(st.fingerprint),
                util::human_seconds(st.wall_seconds).c_str());
    return 0;
}

int
run_info(const Args &args)
{
    const graph::DatasetId id =
        parse_dataset(args.get("dataset", "products"));
    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    const graph::Dataset ds = graph::load_replica(id, ropts);
    const graph::FullScaleSpec full = graph::full_scale_spec(id);

    std::printf("%s (replica of %s)\n", ds.name.c_str(),
                graph::dataset_short_name(id).c_str());
    std::printf("  replica: %lld nodes, %lld edges (avg deg %.1f, max "
                "%lld), batch %lld, %zu train nodes\n",
                static_cast<long long>(ds.graph.num_nodes()),
                static_cast<long long>(ds.graph.num_edges()),
                ds.graph.avg_degree(),
                static_cast<long long>(ds.graph.max_degree()),
                static_cast<long long>(ds.batch_size),
                ds.train_nodes.size());
    std::printf("  full scale: %lld nodes, %lld edges, %d-dim features, "
                "%d classes\n",
                static_cast<long long>(full.nodes),
                static_cast<long long>(full.edges), full.feature_dim,
                full.num_classes);
    std::printf("  scale factor: %.5f\n", ds.scale);
    return 0;
}

void
usage()
{
    std::printf(
        "usage: fastgl_cli <mode> [--key value]...\n"
        "modes (run `fastgl_cli <mode> --help` for every option):\n"
        "  model  modelled epochs under a framework preset\n"
        "  train  real numeric training (loss curve, warmup capture)\n"
        "  serve  online inference over a synthetic Poisson trace\n"
        "         (multi-model tiers, priority classes, warmup)\n"
        "  info   dataset replica statistics\n"
        "datasets: reddit products mag igb papers100m\n"
        "frameworks: pyg dgl gnnadvisor gnnlab fastgl\n"
        "models: gcn gin gat\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string mode = argv[1];
    const Args args(argc, argv);
    if (mode == "model")
        return args.has("help") ? (usage_model(), 0) : run_model(args);
    if (mode == "train")
        return args.has("help") ? (usage_train(), 0) : run_train(args);
    if (mode == "serve")
        return args.has("help") ? (usage_serve(), 0) : run_serve(args);
    if (mode == "info")
        return args.has("help") ? (usage_info(), 0) : run_info(args);
    usage();
    return mode == "--help" || mode == "help" ? 0 : 1;
}
