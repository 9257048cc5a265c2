#include "core/async_pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "match/gather_engine.h"
#include "util/in_order_ring.h"

namespace fastgl {
namespace core {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a over one gathered panel, seeded with the batch id. */
uint64_t
panel_fingerprint(int64_t batch_id, const match::FeaturePanel &panel)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    auto fold = [&h](uint64_t word) {
        h = (h ^ word) * 0x100000001B3ULL;
    };
    fold(static_cast<uint64_t>(batch_id));
    fold(static_cast<uint64_t>(panel.rows()));
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(panel.data());
    for (uint64_t i = 0; i < panel.bytes(); ++i)
        fold(bytes[i]);
    return h;
}

} // namespace

AsyncPipeline::AsyncPipeline(const graph::Dataset &dataset,
                             PipelineOptions opts,
                             AsyncPipelineOptions async,
                             sim::GpuSpec spec)
    : pipeline_(dataset, std::move(opts), std::move(spec)),
      async_(std::move(async))
{
    sampler_threads_ = std::max(1, async_.sampler_threads);
    gather_threads_ =
        async_.gather_threads > 0
            ? async_.gather_threads
            : std::min(pipeline_.total_trainers(), 4);
    gather_threads_ = std::max(1, gather_threads_);
    compute_threads_ = std::max(1, async_.compute_threads);
}

void
AsyncPipeline::request_stop()
{
    shutdown_.request_stop();
}

EpochResult
AsyncPipeline::run_epoch()
{
    stats_ = AsyncEpochStats{};
    const Clock::time_point wall_start = Clock::now();

    const Pipeline::EpochPlan plan = pipeline_.plan_epoch();
    const int total = static_cast<int>(plan.per_gpu.size());
    const int64_t epoch = pipeline_.epoch_;

    // Flattened window list; producers claim entries via an atomic
    // cursor, so work distribution over threads is dynamic while the
    // windows' *contents* stay thread-independent (per-batch seeds).
    struct WindowRef
    {
        int gpu = 0;
        size_t index = 0; ///< Window sequence number within its GPU.
        size_t begin = 0; ///< First batch position in per_gpu[gpu].
        size_t end = 0;   ///< One past the last batch position.
    };
    std::vector<WindowRef> windows;
    for (int g = 0; g < total; ++g) {
        const size_t count = plan.per_gpu[static_cast<size_t>(g)].size();
        size_t index = 0;
        for (size_t w = 0; w < count;
             w += static_cast<size_t>(plan.window), ++index) {
            const size_t end =
                std::min(count, w + static_cast<size_t>(plan.window));
            windows.push_back({g, index, w, end});
        }
    }

    struct WindowItem
    {
        WindowRef ref;
        std::vector<sample::SampledSubgraph> subgraphs;
    };
    struct ComputeItem
    {
        int gpu = 0;
        size_t position = 0; ///< Destination index in records[gpu].
        int64_t batch_id = 0;
        Pipeline::BatchRecord record;
        sample::SampledSubgraph sg;
        /** Gathered feature rows (gather_features mode); moved through
         *  the queue with the item — the bytes never move again. */
        match::FeaturePanel panel;
    };

    std::vector<std::vector<Pipeline::BatchRecord>> records(
        static_cast<size_t>(total));
    std::vector<std::vector<char>> filled(static_cast<size_t>(total));
    for (int g = 0; g < total; ++g) {
        const size_t count = plan.per_gpu[static_cast<size_t>(g)].size();
        records[static_cast<size_t>(g)].assign(
            count, Pipeline::BatchRecord{});
        filled[static_cast<size_t>(g)].assign(count, 0);
    }

    util::BoundedQueue<WindowItem> batch_queue(async_.queue_depth);
    util::BoundedQueue<ComputeItem> compute_queue(std::max<size_t>(
        1, async_.queue_depth * static_cast<size_t>(plan.window)));
    shutdown_.begin_run([&batch_queue, &compute_queue] {
        batch_queue.close();
        compute_queue.close();
    });

    std::mutex error_mu;
    std::exception_ptr first_error;
    auto fail = [&](std::exception_ptr error) {
        {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error)
                first_error = error;
        }
        batch_queue.fail(error);
        compute_queue.fail(error);
    };

    // Per-GPU sequencer: gather consumers may receive windows out of
    // order (any thread can pop any item), but the Match/Reorder chain
    // is stateful per GPU, so windows are reordered back into sequence
    // and processed under the GPU's lock — exactly the sequential
    // pipeline's order, which is what keeps the modelled numbers
    // bit-identical.
    struct GpuState
    {
        std::mutex mu;
        util::InOrderRing<WindowItem> ring;
        match::Matcher matcher;
    };
    std::vector<GpuState> gpus(static_cast<size_t>(total));
    // Seeded with the usual number of in-flight windows — one per
    // producer thread (claimed, not yet pushed), queue_depth in the
    // batch queue, one per gather thread (popped, waiting on the GPU
    // lock). Windows parked behind a slow one can exceed that; the
    // ring then grows instead of failing.
    const size_t initial_ring_cap = async_.queue_depth +
                                    static_cast<size_t>(sampler_threads_) +
                                    static_cast<size_t>(gather_threads_) + 1;
    for (GpuState &state : gpus)
        state.ring = util::InOrderRing<WindowItem>(initial_ring_cap);

    std::atomic<size_t> window_cursor{0};
    std::atomic<int64_t> windows_produced{0};
    std::atomic<int64_t> batches_completed{0};
    // gather_features accumulators: XOR/adds commute, so the folds are
    // thread-count invariant.
    std::atomic<uint64_t> gather_fingerprint{0};
    std::atomic<int64_t> gather_rows{0};
    std::atomic<uint64_t> gather_bytes{0};
    std::mutex busy_mu;

    auto producer = [&] {
        double busy = 0.0;
        try {
            Pipeline::ThreadSampler sampler(pipeline_);
            for (;;) {
                if (shutdown_.stop_requested())
                    break;
                const size_t wi = window_cursor.fetch_add(
                    1, std::memory_order_relaxed);
                if (wi >= windows.size())
                    break;
                const WindowRef &ref = windows[wi];
                const auto &batches =
                    plan.per_gpu[static_cast<size_t>(ref.gpu)];
                WindowItem item;
                item.ref = ref;
                item.subgraphs.reserve(ref.end - ref.begin);
                const Clock::time_point t0 = Clock::now();
                for (size_t i = ref.begin; i < ref.end; ++i) {
                    if (async_.sample_hook)
                        async_.sample_hook(batches[i]);
                    item.subgraphs.push_back(
                        sampler.sample(pipeline_, epoch, batches[i]));
                }
                busy += seconds_since(t0);
                if (!batch_queue.push(std::move(item)))
                    break; // closed (stop) or failed
                windows_produced.fetch_add(1, std::memory_order_relaxed);
            }
        } catch (...) {
            fail(std::current_exception());
        }
        std::lock_guard<std::mutex> lock(busy_mu);
        stats_.sample_busy_seconds += busy;
    };

    auto gather = [&] {
        double busy = 0.0;
        // Per-thread engine (gather_features mode): panels lease from
        // a thread-local pool, so gather threads never contend on the
        // arena free list. In-flight panels keep the pool alive past
        // this lambda's exit — the compute drain may release them
        // after the engine is long gone.
        match::GatherEngine engine;
        try {
            for (;;) {
                std::optional<WindowItem> item = batch_queue.pop();
                if (!item)
                    break; // closed and drained
                GpuState &state =
                    gpus[static_cast<size_t>(item->ref.gpu)];
                std::lock_guard<std::mutex> lock(state.mu);
                const size_t index = item->ref.index;
                state.ring.put(index, std::move(*item));
                while (state.ring.ready()) {
                    WindowItem window = state.ring.pop();

                    const Clock::time_point t0 = Clock::now();
                    const std::vector<size_t> order =
                        pipeline_.window_order(state.matcher,
                                               window.subgraphs);
                    bool queue_open = true;
                    for (size_t k = 0; k < order.size(); ++k) {
                        sample::SampledSubgraph &sg =
                            window.subgraphs[order[k]];
                        ComputeItem ci;
                        ci.gpu = window.ref.gpu;
                        ci.position = window.ref.begin + k;
                        ci.batch_id =
                            plan.per_gpu[static_cast<size_t>(
                                window.ref.gpu)][ci.position];
                        ci.record = pipeline_.plan_transfer(
                            sg, state.matcher);
                        if (async_.gather_features)
                            ci.panel = engine.gather(
                                pipeline_.dataset_.features, sg.nodes);
                        ci.sg = std::move(sg);
                        if (!compute_queue.push(std::move(ci))) {
                            queue_open = false;
                            break;
                        }
                    }
                    busy += seconds_since(t0);
                    if (async_.gather_hook)
                        async_.gather_hook(window.ref.gpu);
                    if (!queue_open)
                        break;
                }
            }
        } catch (...) {
            fail(std::current_exception());
        }
        std::lock_guard<std::mutex> lock(busy_mu);
        stats_.gather_busy_seconds += busy;
    };

    auto compute = [&] {
        double busy = 0.0;
        try {
            for (;;) {
                std::optional<ComputeItem> item = compute_queue.pop();
                if (!item)
                    break;
                if (async_.compute_hook)
                    async_.compute_hook(item->batch_id);
                const Clock::time_point t0 = Clock::now();
                if (async_.gather_features) {
                    gather_fingerprint.fetch_xor(
                        panel_fingerprint(item->batch_id, item->panel),
                        std::memory_order_relaxed);
                    gather_rows.fetch_add(item->panel.rows(),
                                          std::memory_order_relaxed);
                    gather_bytes.fetch_add(item->panel.bytes(),
                                           std::memory_order_relaxed);
                    // Done with the bytes: return the arena to its
                    // pool before the modelled compute runs.
                    item->panel.release();
                }
                item->record.compute = pipeline_.compute_time(item->sg);
                records[static_cast<size_t>(item->gpu)][item->position] =
                    item->record;
                filled[static_cast<size_t>(item->gpu)][item->position] =
                    1;
                busy += seconds_since(t0);
                batches_completed.fetch_add(1,
                                            std::memory_order_relaxed);
            }
        } catch (...) {
            fail(std::current_exception());
        }
        std::lock_guard<std::mutex> lock(busy_mu);
        stats_.compute_busy_seconds += busy;
    };

    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(sampler_threads_));
    for (int i = 0; i < sampler_threads_; ++i)
        workers.emplace_back(producer);
    std::vector<std::thread> gatherers;
    for (int i = 0; i < gather_threads_; ++i)
        gatherers.emplace_back(gather);
    std::vector<std::thread> computers;
    for (int i = 0; i < compute_threads_; ++i)
        computers.emplace_back(compute);

    for (auto &t : workers)
        t.join();
    batch_queue.close();
    for (auto &t : gatherers)
        t.join();
    compute_queue.close();
    for (auto &t : computers)
        t.join();
    stats_.wall_seconds = seconds_since(wall_start);
    stats_.windows_produced = windows_produced.load();
    stats_.batches_completed = batches_completed.load();
    stats_.gather_fingerprint = gather_fingerprint.load();
    stats_.gather_rows = gather_rows.load();
    stats_.gather_bytes = gather_bytes.load();
    stats_.stopped_early = shutdown_.stop_requested();
    shutdown_.end_run();
    stats_.batch_queue = batch_queue.stats();
    stats_.compute_queue = compute_queue.stats();

    {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error)
            std::rethrow_exception(first_error);
    }

    if (stats_.stopped_early) {
        // Keep only each GPU's completed prefix so the partial result
        // aggregates real records (positions are filled out of order by
        // the compute drain).
        for (int g = 0; g < total; ++g) {
            size_t done = 0;
            const auto &flags = filled[static_cast<size_t>(g)];
            while (done < flags.size() && flags[done])
                ++done;
            records[static_cast<size_t>(g)].resize(done);
        }
    }

    // Per-stage profiling feed: strictly post-join, replayed from the
    // per-position record array in (gpu, position) order — the same
    // modelled phases whatever the thread counts were, so the profile
    // is as deterministic as the EpochResult itself. Each GPU gets its
    // own virtual sampler -> gather -> compute chain; the gather stage
    // carries the *exposed* transfer time (io minus the part FastGL's
    // topology prefetch hid behind compute).
    if (async_.profiler && async_.profiler->enabled()) {
        prof::Profiler &recorder = *async_.profiler;
        double makespan = 0.0;
        for (int g = 0; g < total; ++g) {
            double sampler_free = 0.0;
            double gather_free = 0.0;
            double compute_free = 0.0;
            for (const Pipeline::BatchRecord &rec :
                 records[static_cast<size_t>(g)]) {
                const double sample_end = sampler_free + rec.sample;
                sampler_free = sample_end;
                const double exposed_io =
                    rec.id_map + rec.io - rec.io_overlapped;
                const double gather_start =
                    std::max(sample_end, gather_free);
                const double gather_end = gather_start + exposed_io;
                gather_free = gather_end;
                const double compute_start =
                    std::max(gather_end, compute_free);
                const double free_before = compute_free;
                compute_free = compute_start + rec.compute;
                recorder.record(prof::Stage::kSampler, 0.0, rec.sample,
                            rec.instances);
                recorder.record(prof::Stage::kGather,
                            gather_start - sample_end, exposed_io,
                            rec.uniques);
                recorder.record(prof::Stage::kCompute,
                            compute_start - gather_end, rec.compute,
                            rec.instances);
                recorder.record_device(g, compute_start - free_before,
                                   rec.compute, compute_free);
            }
            makespan = std::max(makespan, compute_free);
        }
        recorder.set_makespan(makespan);
    }
    return pipeline_.finalize_epoch(records, plan.num_batches);
}

} // namespace core
} // namespace fastgl
