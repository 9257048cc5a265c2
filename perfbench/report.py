"""Turns the driver's raw measurements into the benchmark's metrics.

Pure functions over the raw JSON the driver writes, so the percentile,
self-time and naming rules can be checked on fixed inputs
(test_report.py).
"""

import math

# What one unit of work_per_s is on each workload.
WORK_UNITS = {
    "train": "training seeds",
    "serve": "trace requests",
    "serve-logits": "trace requests",
    "model": "batches",
}

# Every span the traced runs record, by layer. A workload reports the
# spans it does not run as zero.
SPANS = [
    "graph.replica",
    "core.construct",
    "serve.tracegen",
    "core.step",
    "core.window",
    "sample.batch",
    "sample.request",
    "match.gather",
    "match.nodeset",
    "match.reorder",
    "match.plan",
    "compute.fwd.l0",
    "compute.fwd.l1",
    "compute.fwd.l2",
    "compute.loss",
    "compute.bwd.l2",
    "compute.bwd.l1",
    "compute.bwd.l0",
    "compute.optim",
    "compute.cost",
    "compute.forward",
    "serve.call",
]

# Ratio counters the driver sums as (numerator, denominator).
RATIOS = {
    "sample.edges_per_us": "edges/us",
    "sample.probes_per_instance": "probes/instance",
    "sample.unique_share": "fraction",
    "match.gather_gbps": "GB/s",
    "match.reuse_share": "fraction",
    "compute.gemm_gflops": "GFLOP/s",
    "compute.gemm_share": "fraction",
    "compute.agg_bytes_per_edge": "B/edge",
    "graph.row_us": "us/row",
    "serve.sampler_busy_share": "fraction",
    "serve.forward_share": "fraction",
    "serve.feeder_blocked": "fraction",
    "serve.sequencer_starved": "fraction",
    "serve.sampler_blocked": "fraction",
}

# The base each ratio is printed with: (numerator, denominator) words.
RATIO_BASES = {
    "sample.edges_per_us": ("edges examined", "us sampling"),
    "sample.probes_per_instance": ("hash probes", "sampled instances"),
    "sample.unique_share": ("unique nodes", "sampled instances"),
    "match.gather_gbps": ("GB gathered", "s gathering"),
    "match.reuse_share": ("rows reused", "rows needed"),
    "compute.gemm_gflops": ("GFLOP", "s in GEMM"),
    "compute.gemm_share": ("s in GEMM", "s in GEMM + aggregation"),
    "compute.agg_bytes_per_edge": ("bytes aggregated", "edges aggregated"),
    "graph.row_us": ("us gathering", "feature rows"),
    "serve.sampler_busy_share": ("s sampling", "worker-s in serve()"),
    "serve.forward_share": ("s in forwards", "s in serve()"),
    "serve.feeder_blocked": ("blocked pushes", "feeder pushes"),
    "serve.sequencer_starved": ("blocked pops", "sequencer pops"),
    "serve.sampler_blocked": ("blocked pushes", "sampler pushes"),
}

TAIL_BEYOND = 10
# work_per_s is this percentile of the run's per-call throughputs. Other
# tenants of the host only ever slow a call down, in phases lasting
# seconds; the faster calls track the program's own speed.
WORK_PERCENTILE = 90


def median(values):
    """Median (mean of the middle two when even); 0 for no values."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def percentile(values, p):
    """Nearest-rank percentile, p in (0, 100]; 0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, rank, n): the sample at 1-based rank n - 10 of the
    sorted values, so exactly ten samples lie above it. When that rank is
    not above the middle (n < 21), no tail percentile above the median
    exists: the median stands in and rank is 0.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - TAIL_BEYOND
    if rank <= n // 2:
        return median(xs), 0, n
    return xs[rank - 1], rank, n


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover, clipped to the span.

    spans: list of (name, start, end, parent_index); parent -1 is a root.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _throughputs(units):
    return [work / sec for work, sec in units if sec > 0]


def end_to_end(raw):
    """{name: (value, unit)} of the untraced run."""
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024.0, "MiB"),
        "work_per_s": (percentile(_throughputs(raw["units"]),
                                  WORK_PERCENTILE), "1/s"),
    }


def span_stats(raw):
    """Per span name: its durations (ms) and summed self time (us)."""
    spans = raw["spans"]
    selfs = self_times(spans)
    stats = {}
    for (name, start, end, _), self_us in zip(spans, selfs):
        s = stats.setdefault(name, {"ms": [], "self_us": 0.0})
        s["ms"].append((end - start) / 1e3)
        s["self_us"] += self_us
    return stats


def trace_overhead(raw):
    """Traced end-to-end time over the untraced one, minus 1."""
    untraced = _throughputs(raw["units"])
    traced = _throughputs(raw["traced_units"])
    if not untraced or not traced:
        return 0.0
    return median(untraced) / median(traced) - 1.0


def per_layer(raw):
    """{name: (value, unit)} of the traced run."""
    total_us = raw["traced_wall_s"] * 1e6
    stats = span_stats(raw)
    out = {}
    for name in SPANS:
        s = stats.get(name)
        ms = s["ms"] if s else []
        out[name + ".p50"] = (median(ms), "ms")
        out[name + ".tail"] = (tail(ms)[0], "ms")
        share = s["self_us"] / total_us if s and total_us > 0 else 0.0
        out[name + ".self_share"] = (share, "fraction")
    for name, unit in RATIOS.items():
        num, den = raw["ratios"].get(name, (0.0, 0.0))
        out[name] = (num / den if den else 0.0, unit)
    us = raw["samples"].get("serve.sample_us", [])
    out["serve.sample_us.p50"] = (median(us), "us")
    out["serve.sample_us.tail"] = (tail(us)[0], "us")
    out["trace_overhead"] = (trace_overhead(raw), "fraction")
    return out


def chrome_trace(raw):
    """The traced run's spans as Chrome/Perfetto trace-event JSON."""
    selfs = self_times(raw["spans"])
    events = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": "fastgl perfbench %s seed %s" %
                 (raw["workload"], raw["seed"])},
    }]
    for (name, start, end, parent), self_us in zip(raw["spans"], selfs):
        events.append({
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": start,
            "dur": end - start,
            "pid": 1,
            "tid": 1,
            "args": {"self_us": self_us, "parent": parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_table(raw):
    """Lines: each span's count, p50, tail (rank/n), self time and share;
    then the share of each core.step / core.window no child covers."""
    total_us = raw["traced_wall_s"] * 1e6
    stats = span_stats(raw)
    lines = ["%-18s %6s %10s %10s %11s %11s %7s" %
             ("span", "count", "p50 ms", "tail ms", "tail rank", "self ms",
              "share")]
    for name in SPANS:
        s = stats.get(name)
        if not s:
            continue
        value, rank, n = tail(s["ms"])
        lines.append("%-18s %6d %10.4f %10.4f %11s %11.2f %7.4f" % (
            name, len(s["ms"]), median(s["ms"]), value,
            "%d/%d" % (rank, n) if rank else "median", s["self_us"] / 1e3,
            s["self_us"] / total_us if total_us else 0.0))
    covered = sum(s["self_us"] for s in stats.values())
    lines.append("unspanned share of the traced run: %.4f" %
                 (1.0 - covered / total_us if total_us else 0.0))
    for parent in ("core.step", "core.window"):
        s = stats.get(parent)
        if s:
            lines.append("%s: %.4f of its time is covered by no child span"
                         % (parent, s["self_us"] / 1e3 / sum(s["ms"])))
    return lines
