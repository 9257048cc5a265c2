#!/usr/bin/env bash
# CI entry point: configure from scratch, build, and run the full test
# suite. A FRESH build directory matters — gtest_discover_tests leaves a
# fastgl_tests_NOT_BUILT placeholder in stale CTest state, which then
# "fails" forever even though the tree is fine.
#
# Usage:
#   tools/ci.sh                 # warnings-as-errors build + full ctest,
#                               # then the full ctest again under
#                               # ASan+UBSan (Debug)
#   FASTGL_TSAN=1 tools/ci.sh   # additionally run the concurrency
#                               # suite (pools, pipelines, NodeSet
#                               # builds) under ThreadSanitizer
#
# Environment:
#   FASTGL_CI_JOBS   parallel build/test jobs (default: nproc)
#   FASTGL_TSAN      when 1, add a -fsanitize=thread configuration
#   FASTGL_NO_PERF   when 1, skip the bench and perfbench smoke steps
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${FASTGL_CI_JOBS:-$(nproc)}"

run_config() {
    local dir="$1"
    shift
    rm -rf "$dir"
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$JOBS"
}

echo "==> primary configuration (tests built with -Werror)"
run_config build-ci -DFASTGL_TEST_WERROR=ON
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

# Docs-consistency check: Doxygen in warnings-as-errors mode over the
# serve + compute + prof headers (docs/Doxyfile-ci), so @param lists
# that drift from the code fail CI. Skipped, loudly, where doxygen is
# not installed — the check is a bonus on developer machines, not a
# new container dependency.
if command -v doxygen > /dev/null 2>&1; then
    echo "==> doxygen docs check (serve + compute + prof headers, strict)"
    doxygen docs/Doxyfile-ci
    rm -rf build-docs-ci
else
    echo "==> doxygen not installed; skipping strict docs check"
fi

# Memory and undefined-behaviour sanitizers over the whole suite, by
# default. Debug keeps UB-prone code paths unoptimised; halt_on_error
# turns a UBSan report into a failing test instead of a printed line.
# Only the targets ctest runs are built: the test binary and the CLI.
echo "==> ASan+UBSan configuration (full suite, Debug)"
rm -rf build-asan
cmake -B build-asan -S . -DFASTGL_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=Debug -DFASTGL_TEST_WERROR=ON
cmake --build build-asan --target fastgl_tests fastgl_cli -j "$JOBS"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

# The concurrency suite under ThreadSanitizer. Pipeline. and
# Determinism cover run_epoch sampling the next Reorder window on the
# window pool while this one is matched, and ThreadPool covers the
# TaskGroup that joins those tasks; NodeSet covers bitmap builds on
# several threads at once; Trainer and Determinism cover train_epoch's
# batch producer thread; FusedHashTable and FusedMapConcurrency cover
# the Fused-Map table's concurrent inserts (insert_stream_parallel).
if [[ "${FASTGL_TSAN:-0}" == "1" ]]; then
    echo "==> ThreadSanitizer configuration (concurrency suite)"
    run_config build-tsan -DFASTGL_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -R 'BoundedQueue|ThreadPool|FusedHashTable|FusedMapConcurrency|Pipeline\.|Determinism|NodeSet|Trainer|Serve|StageShutdown|ComputeKernels|Gather|FrequencyHashmap|FeaturePanel|MultiGpu|Partition|PeerTopology|OocStore|StorageLink|Prefetch|Profiler|Autoscale|ClosedLoop'
fi

# Gate one archived bench JSON: bench_gate FILE REQUIRED [FORBIDDEN...].
# Every bench archive must parse as JSON — a truncated or
# crash-interleaved archive used to sail through the old pattern greps
# (grepping only for a failure marker passes vacuously on garbage) —
# and must contain the success marker; any present failure marker
# fails even if the bench's exit code ever regresses.
bench_gate() {
    local file="$1" required="$2" forbidden
    shift 2
    if ! python3 -m json.tool "$file" > /dev/null; then
        echo "$file: malformed JSON archive" >&2
        return 1
    fi
    if ! grep -q "$required" "$file"; then
        echo "$file: success marker missing: $required" >&2
        return 1
    fi
    for forbidden in "$@"; do
        if grep -q "$forbidden" "$file"; then
            echo "$file: failure marker present: $forbidden" >&2
            return 1
        fi
    done
}

if [[ "${FASTGL_NO_PERF:-0}" != "1" ]]; then
    # Perf smoke: Release build of the hot-path benchmark, archived as
    # BENCH_hotpath.json. The step fails only when the benchmark
    # crashes, the merge and adaptive intersections count differently,
    # or a live output's FNV digest (match-degree matrix at every pool
    # width, both samplers) differs from its pinned golden (non-zero
    # exit) — throughput numbers are recorded, never gated, since CI
    # machines are too noisy for thresholds.
    echo "==> hot-path perf smoke (Release)"
    if [[ ! -d build-perf-ci ]]; then
        cmake -B build-perf-ci -S . -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build build-perf-ci --target bench_ext_hotpath -j "$JOBS"
    ./build-perf-ci/bench/bench_ext_hotpath --smoke \
        | tee BENCH_hotpath.json
    bench_gate BENCH_hotpath.json 'identical": true' 'identical": false' \
        '"counts_match": false'

    # Serving smoke: sweep the online-inference server and archive the
    # latency/shedding table. The bench itself gates on its virtual-
    # clock invariants (batching+caches beat the baseline, shedding
    # engages under overload) — those are deterministic, so unlike
    # throughput they are safe to fail CI on. On top of that, check
    # the archive parses as JSON and every p99 came out finite.
    echo "==> serving smoke (Release)"
    cmake --build build-perf-ci --target bench_ext_serving -j "$JOBS"
    ./build-perf-ci/bench/bench_ext_serving --smoke \
        | tee BENCH_serving.json
    bench_gate BENCH_serving.json '"all_p99_finite": true'

    # Multi-model serving smoke: two tiers (GCN + GAT) under a mixed
    # paid/standard/best-effort trace, cold vs warm-seeded caches. The
    # bench gates on its own virtual-clock invariants (paid isolation
    # under overload, warmup lifting hit rate and tail, no tier
    # starved) and exits non-zero when any fails; all deterministic,
    # so safe to fail CI on.
    echo "==> multi-model serving smoke (Release)"
    cmake --build build-perf-ci --target bench_ext_serving_multimodel \
        -j "$JOBS"
    ./build-perf-ci/bench/bench_ext_serving_multimodel --smoke \
        | tee BENCH_serving_multimodel.json
    bench_gate BENCH_serving_multimodel.json '"ok": true'

    # Compute-kernel smoke: blocked GEMM + reverse-CSR aggregation at
    # engine widths 1/2/4/8. The bench exits non-zero if any output's
    # FNV digest differs from its golden, pinned from the naive loops'
    # output (the engine must stay bit-identical to them at every
    # thread count); timings are archived, not gated. Runs in the
    # primary configuration (repo-default build type), where the
    # build-ci tree is already built.
    echo "==> compute-kernel smoke (primary configuration)"
    cmake --build build-ci --target bench_ext_compute -j "$JOBS"
    ./build-ci/bench/bench_ext_compute --smoke \
        | tee BENCH_compute.json
    bench_gate BENCH_compute.json '"identical": true' \
        '"identical": false'

    # Feature-gather smoke: GatherEngine panels at widths 1/2/4/8 and
    # the one-pass FrequencyHashmap presample. The bench exits non-zero
    # when any output's FNV digest differs from its golden, pinned from
    # the pre-engine staging paths' output, and the explicit grep below
    # keeps a witness mismatch fatal even if the exit-code plumbing
    # ever regresses. Timings are archived, not gated. Primary
    # configuration, like the compute smoke.
    echo "==> feature-gather smoke (primary configuration)"
    cmake --build build-ci --target bench_ext_gather -j "$JOBS"
    ./build-ci/bench/bench_ext_gather --smoke \
        | tee BENCH_gather.json
    bench_gate BENCH_gather.json '"identical": true' \
        '"identical": false'

    # Multi-GPU smoke: the N-device timeline grid (symmetric vs
    # factored vs factored+switcher) and the sharded-vs-replicated
    # serving grid. The bench is divergence-fatal — it re-runs every
    # timeline config and sweeps serving worker counts, exiting
    # non-zero on any fingerprint mismatch — and gates its virtual-
    # clock claims (single-GPU exactness vs the legacy scheduler, the
    # switcher paying off when sample-bound, sharding beating
    # replication on hit rate). All deterministic, safe to fail CI on.
    echo "==> multi-GPU smoke (Release)"
    cmake --build build-perf-ci --target bench_ext_multigpu -j "$JOBS"
    ./build-perf-ci/bench/bench_ext_multigpu --smoke \
        | tee BENCH_multigpu.json
    bench_gate BENCH_multigpu.json '"ok": true'

    # Out-of-core store smoke: the tiered-feature-store grid (host-DRAM
    # fraction x prefetch x layout) against an in-memory baseline. The
    # bench is divergence-fatal (every config replays, one sweeps
    # thread widths) and gates its virtual-clock claims: losses
    # bit-identical to in-memory, prefetch cutting the demand stall,
    # the partition-ordered relayout paying off, and a full host-DRAM
    # budget reproducing the in-memory epoch exactly. Deterministic,
    # safe to fail CI on.
    echo "==> out-of-core store smoke (Release)"
    cmake --build build-perf-ci --target bench_ext_oocstore -j "$JOBS"
    ./build-perf-ci/bench/bench_ext_oocstore --smoke \
        | tee BENCH_oocstore.json
    bench_gate BENCH_oocstore.json '"ok": true'

    # Traffic-realism smoke: the per-stage profiler, closed-loop client
    # pool, flash-crowd trace, and sampler-pool autoscaler. The bench
    # is divergence-fatal (every configuration replays, the closed-loop
    # and autoscaled runs sweep host worker counts) and gates its
    # virtual-clock claims: profiling leaves fingerprints bit-identical
    # at 1/4/8 workers, the closed loop sheds less than the open loop
    # at matched offered load, the autoscaler cuts flash-crowd SLO
    # misses vs the fixed minimum pool, and paid-tier isolation holds
    # throughout. Deterministic, safe to fail CI on.
    echo "==> traffic-realism smoke (Release)"
    cmake --build build-perf-ci --target bench_ext_traffic -j "$JOBS"
    ./build-perf-ci/bench/bench_ext_traffic --smoke \
        | tee BENCH_traffic.json
    bench_gate BENCH_traffic.json '"ok": true'

    # Host-clock benchmark: the report self-test, then short traced
    # train, serve-logits and model runs. Each run exits non-zero
    # unless its witnesses hold. The traced train replay, whose layers
    # all compute their full input gradient, must reproduce
    # train_epoch's losses bit for bit. serve-logits must return the
    # same fingerprint from every call and no kUnprocessed response,
    # and its replay's predictions must equal the server's. The model
    # replay samples each Reorder window one batch at a time; its
    # reused-node total must equal that of run_epoch, which samples
    # the window on the pool. Timings are printed, not gated.
    echo "==> host-clock benchmark smoke (perfbench)"
    python3 perfbench/test_report.py
    python3 perfbench/run.py --workload train --seed 1 --seconds 5 \
        --trace 1
    python3 perfbench/run.py --workload serve-logits --seed 1 \
        --seconds 5 --trace 1
    python3 perfbench/run.py --workload model --seed 1 --seconds 5 \
        --trace 1
fi

echo "==> CI OK"
