#!/usr/bin/env python3
"""Self-tests of the benchmark's metric rules, on fixed inputs.

    python3 perfbench/test_report.py
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import report  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared(section):
    """Metric names BENCHMARK.json declares in one section."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [m["name"] for m in spec[section]]


def synthetic_raw(workload, trace):
    """A raw driver result with one span of every kind and every counter,
    shaped like the driver's output."""
    spans = []
    for i, name in enumerate(report.SPANS):
        spans.append([name, 100.0 * i, 100.0 * i + 50.0, -1])
    return {
        "workload": workload,
        "seed": 1,
        "trace": trace,
        "setup_s": [0.3, 0.2, 0.25],
        "units": [[1000.0, 0.5], [1000.0, 0.4], [1000.0, 0.45]],
        "traced_units": [[1000.0, 0.5], [1000.0, 0.6]],
        "peak_rss_kib": 65536,
        "attempted": 3,
        "failed": 0,
        "traced_wall_s": 0.01,
        "errors": [],
        "witness": {},
        "ratios": {name: [3.0, 2.0] for name in report.RATIOS},
        "samples": {"serve.sample_us": [float(x) for x in range(1, 31)]},
        "spans": spans,
    }


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        value, rank, n = report.tail([float(x) for x in range(100, 0, -1)])
        self.assertEqual((value, rank, n), (90.0, 90, 100))

    def test_rank_follows_the_sample_count(self):
        value, rank, n = report.tail([float(x) for x in range(1, 26)])
        self.assertEqual((value, rank, n), (15.0, 15, 25))

    def test_smallest_count_with_a_tail_above_the_median(self):
        value, rank, n = report.tail([float(x) for x in range(1, 22)])
        self.assertEqual((value, rank, n), (11.0, 11, 21))

    def test_median_stands_in_when_no_tail_exists(self):
        self.assertEqual(report.tail([float(x) for x in range(1, 21)]),
                         (10.5, 0, 20))
        self.assertEqual(report.tail([4.0, 1.0, 9.0]), (4.0, 0, 3))
        self.assertEqual(report.tail([]), (0.0, 0, 0))


class SelfTime(unittest.TestCase):
    # root [0,100] has children b [10,30], c [40,90] and e [85,120];
    # c has child d [50,60]. e overlaps c and runs past the root's end,
    # so the root's covered time is [10,30] + [40,100] = 80.
    SPANS = [
        ["root", 0.0, 100.0, -1],
        ["b", 10.0, 30.0, 0],
        ["c", 40.0, 90.0, 0],
        ["d", 50.0, 60.0, 2],
        ["e", 85.0, 120.0, 0],
        ["other", 200.0, 230.0, -1],
    ]

    def test_duration_minus_children_union(self):
        self.assertEqual(report.self_times(self.SPANS),
                         [20.0, 20.0, 40.0, 10.0, 35.0, 30.0])

    def test_shares_over_the_traced_run(self):
        raw = synthetic_raw("train", 1)
        raw["spans"] = [["core.step", 0.0, 100.0, -1],
                        ["sample.batch", 0.0, 30.0, 0],
                        ["compute.fwd.l0", 30.0, 90.0, 0],
                        ["core.step", 100.0, 200.0, -1],
                        ["sample.batch", 100.0, 140.0, 3],
                        ["compute.fwd.l0", 140.0, 190.0, 3]]
        raw["traced_wall_s"] = 250e-6
        m = report.per_layer(raw)
        self.assertAlmostEqual(m["core.step.self_share"][0], 20.0 / 250)
        self.assertAlmostEqual(m["sample.batch.self_share"][0], 70.0 / 250)
        self.assertAlmostEqual(m["compute.fwd.l0.self_share"][0],
                               110.0 / 250)
        self.assertAlmostEqual(m["core.step.p50"][0], 0.1)
        self.assertEqual(m["core.window.p50"][0], 0.0)


class MetricNames(unittest.TestCase):
    def check_mode(self, trace, compute):
        names = declared("per_layer" if trace else "end_to_end")
        self.assertEqual(len(names), len(set(names)))
        for workload in report.WORK_UNITS:
            metrics = compute(synthetic_raw(workload, trace))
            self.assertEqual(set(metrics), set(names), workload)
            for name, (value, unit) in metrics.items():
                self.assertTrue(NAME_RE.fullmatch(name), name)
                self.assertLessEqual(len(name), 64, name)
                self.assertTrue(UNIT_RE.fullmatch(unit), unit)
                self.assertIsInstance(value, float, name)

    def test_end_to_end_names_match_benchmark_json(self):
        self.check_mode(0, report.end_to_end)

    def test_per_layer_names_match_benchmark_json(self):
        self.check_mode(1, report.per_layer)

    def test_declared_units_match_printed_units(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        for trace, section, compute in ((0, "end_to_end", report.end_to_end),
                                        (1, "per_layer", report.per_layer)):
            printed = compute(synthetic_raw("train", trace))
            for m in spec[section]:
                self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])


class ChromeTrace(unittest.TestCase):
    def test_round_trips_as_json(self):
        raw = synthetic_raw("model", 1)
        trace = json.loads(json.dumps(report.chrome_trace(raw)))
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(spans), len(report.SPANS))
        self.assertEqual(spans[0]["dur"], 50.0)


if __name__ == "__main__":
    unittest.main()
