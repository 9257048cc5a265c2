#!/usr/bin/env python3
"""Host-clock benchmark of the FastGL library.

Builds the library and the driver from this checkout's sources, runs one
workload, checks its correctness witnesses and prints its metrics. The
last line of standard output is the result as one JSON object.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 \\
        --trace 0

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1
prints the per-layer metrics of a traced run and writes its spans as a
Chrome/Perfetto trace under .bench_build/perfbench/traces/. Exits
non-zero when the build fails or a witness does not hold.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import report  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "fastgl_perfbench"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build the driver and the library."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found under %s" % (ROOT / "src"))
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL,
                              env=env).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed; full log in %s" % log_path)


def run_driver(args):
    raw_path = BUILD_DIR / ("raw-%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    raw_path.unlink(missing_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(raw_path)]
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0 or not raw_path.is_file():
        fail("driver exited with code %d" % proc.returncode)
    return json.loads(raw_path.read_text())


def print_end_to_end(raw, metrics):
    n = len(raw["units"])
    notes = {
        "setup_s": "median of %d set-ups" % len(raw["setup_s"]),
        "peak_rss_mb": "peak resident set of the driver process",
        "work_per_s": "%s per host second inside the entry point, "
                      "p%d of %d calls" %
                      (report.WORK_UNITS[raw["workload"]],
                       report.WORK_PERCENTILE, n),
    }
    for name, (value, unit) in metrics.items():
        print("  %-12s %14.6g %-5s  %s" % (name, value, unit, notes[name]))


def print_per_layer(raw, metrics):
    """The span table (every span metric), then the counters with their
    bases. Spans and counters a workload lacks read 0."""
    for line in report.span_table(raw):
        print("  " + line)
    _, rank, n = report.tail(raw["samples"].get("serve.sample_us", []))
    for name, (value, unit) in metrics.items():
        if name.rsplit(".", 1)[0] in report.SPANS:
            continue
        base = ""
        if name in raw["ratios"]:
            num, den = raw["ratios"][name]
            words = report.RATIO_BASES[name]
            base = "(%.6g %s / %.6g %s)" % (num, words[0], den, words[1])
        elif name == "serve.sample_us.tail":
            base = "(rank %d of %d samples)" % (rank, n)
        elif name == "serve.sample_us.p50":
            base = "(%d samples)" % n
        print("  %-28s %12.6g %-15s %s" % (name, value, unit, base))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(report.WORK_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    raw = run_driver(args)
    mode = "traced" if args.trace else "untraced"
    print("perfbench %s seed %d: %s run, %d s" %
          (args.workload, args.seed, mode, args.seconds))
    print("  witness: " + " ".join("%s=%s" % kv
                                   for kv in raw["witness"].items()))
    for error in raw["errors"]:
        print("  WITNESS FAILED: " + error)

    if args.trace:
        metrics = report.per_layer(raw)
        print_per_layer(raw, metrics)
        trace_path = BUILD_DIR / "traces" / (
            "%s-seed%d.json" % (args.workload, args.seed))
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps(report.chrome_trace(raw)))
        print("  trace: %s" % trace_path.relative_to(ROOT))
    else:
        metrics = report.end_to_end(raw)
        print_end_to_end(raw, metrics)

    correct = not raw["errors"] and raw["failed"] == 0
    print("  %d attempted, %d failed: %s" %
          (raw["attempted"], raw["failed"],
           "correct" if correct else "NOT CORRECT"))
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
