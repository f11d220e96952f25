"""Self-tests of the benchmark.  From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import metric_names, self_times, summarize  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, item_order  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced, on a few population members."""

    def test_each_workload_tiny(self):
        end_to_end = {"setup_s", "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb"}
        for name in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    code, result, out = run_bench(
                        "--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--size", "4"
                    )
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = set(metric_names()) if trace == "1" else end_to_end
                    self.assertEqual(set(result["metrics"]), want)


class GateTest(unittest.TestCase):
    def test_corrupted_reference_entry_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            refdir = os.path.join(tmp, "reference")
            shutil.copytree(REFERENCE_DIR, refdir)
            path = os.path.join(refdir, WORKLOADS["cm_sweep"].reference_file)
            with open(path) as fh:
                table = json.load(fh)
            sys.path.insert(0, os.path.join(ROOT, "src"))
            first_key = WORKLOADS["cm_sweep"].population(1)[0][0]
            table[first_key][1] += 1  # regularity off by one
            with open(path, "w") as fh:
                json.dump(table, fh)
            code, result, out = run_bench(
                "--workload", "cm_sweep", "--seed", "1", "--seconds", "0.1", "--size", "1", "--reference-dir", refdir
            )
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"])
        self.assertIn("WRONG", out)

    def test_without_the_library_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            code, result, _ = run_bench("--workload", "cm_sweep", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class SelfTimeTest(unittest.TestCase):
    # (name id, start, end, parent, item)
    TREE = [
        (0, 0, 100, -1, 7),   # root
        (1, 10, 40, 0, 7),    # A
        (2, 20, 30, 1, 7),    #   A's child
        (1, 50, 90, 0, 7),    # B
        (2, 55, 60, 3, 7),    #   B's children
        (2, 70, 80, 3, 7),
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(self_times(self.TREE), [30, 20, 10, 25, 5, 10])

    def test_self_times_sum_to_outermost_span(self):
        layers, mismatches = summarize(["item", "poly.f", "monomial.g"], self.TREE, {})
        self.assertEqual(mismatches, 0)
        self.assertAlmostEqual(layers["poly.self_s"], 45e-9)
        self.assertAlmostEqual(layers["monomial.self_s"], 25e-9)

    def test_child_outside_its_parent_is_reported(self):
        broken = self.TREE + [(2, 85, 120, 3, 7)]
        self.assertEqual(summarize(["item", "poly.f", "monomial.g"], broken, {})[1], 1)


class OrderTest(unittest.TestCase):
    def test_top_down_visits_each_once_longest_first(self):
        weights = [(i % 4, i) for i in range(23)]
        seq = list(item_order([str(i) for i in range(23)], weights, "top_down", 5, 4))
        self.assertEqual(sorted(seq), list(range(23)))
        levels = [weights[i][0] for i in seq]
        self.assertEqual(levels, sorted(levels, reverse=True))

    def test_balanced_pass_covers_population(self):
        gen = item_order([str(i) for i in range(37)], list(range(37)), "balanced", 1, 16)
        self.assertEqual(sorted(next(gen) for _ in range(37)), list(range(37)))

    def test_balanced_sample_takes_one_item_per_stratum(self):
        # 40 members ranked by weight, 10 items: strata of 4 consecutive ranks
        keys = [str(i) for i in range(40)]
        for seed in (1, 2, 3):
            seq = list(itertools.islice(item_order(keys, list(range(40)), "balanced", seed, 10), 10))
            self.assertEqual(sorted(i // 4 for i in seq), list(range(10)))

    def test_same_seed_same_order(self):
        keys = [str(i) for i in range(50)]
        a = item_order(keys, None, "shuffled", 9, 16)
        b = item_order(keys, None, "shuffled", 9, 16)
        self.assertEqual([next(a) for _ in range(120)], [next(b) for _ in range(120)])


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]], metric_names())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
