"""Benchmark for asmschub: four exact-computation sweeps, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cm_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Workloads (see workloads.py):
  cm_sweep       Cohen-Macaulayness and regularity of non-permutation 5x5 ASMs
  decomp_sweep   components of 6x6 ASMs and the pipe dreams of each component
  groebner_diag  diagonal initial ideals of S_6 under LexSE, LexNW and RevLex
  flag_polys     double Schubert and Grothendieck polynomials over S_6

Every measurement runs in a fresh interpreter, one at a time, with
ASMSCHUB_DATA_DIR removed from the environment, so no module cache or
on-disk enumeration carries over.  The seed fixes the items: each
workload times ``--seconds`` times its nominal rate of items (about
``--seconds`` of busy time at the commit that set the rates), so two
commits are always timed on the same items.  Where a workload's items
differ widely in cost, the sample takes one item from each of as many
cost strata as it has items, so every seed draws the same cost mix.

With ``--trace 0`` one cold process times the items; further processes
repeat only the set-up, and the reported set-up time is the median of
nine.  Times are reported at a reference speed: the worker runs a fixed
stdlib speed probe between items (and after a set-up timed on its own),
and times are scaled by the probe's reference slice time over its mean
slice time in that process.  With ``--trace 1`` one untraced process runs half as
many items, a traced process repeats them, and the per-layer metrics
come from the traced one.  Answers are checked after the timed window.

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every answer is right,
1 when an answer is wrong, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from tracing import metric_names  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
# Mean time of one speed-probe slice (worker.probe) on the 2-vCPU x86-64
# VM that set the item rates; item times are reported at this speed.
PROBE_REF_S = 0.015
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5)
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(seed: int) -> dict:
    """No data directory, so nothing enumerated on disk leaks in.  The
    library's variables are tuples holding strings, so set iteration
    order, and with it the work of an item, follows the hash seed; a
    fixed hash seed makes an item cost the same in every run, and the
    benchmark seed changes only which items run."""
    env = {k: v for k, v in os.environ.items() if k != "ASMSCHUB_DATA_DIR"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def build() -> None:
    """The library is pure Python: building means byte-compiling it, so
    that set-up times do not include the first compilation."""
    if not os.path.isfile(os.path.join(SRC, "asmschub", "__init__.py")):
        raise BenchError(f"library sources not found under {SRC}")
    if not compileall.compile_dir(SRC, quiet=2):
        raise BenchError("library sources do not compile")


def spawn(args: list[str], seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, env=child_env(seed), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S}s: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def item_count(name: str, seconds: float) -> int:
    """Items one process times: the budget at the workload's nominal rate."""
    return math.ceil(seconds * WORKLOADS[name].items_per_s)


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def tail(xs: list[float]) -> float:
    """Highest ladder percentile of sorted values with at least ten items
    beyond it (the median when there are too few items)."""
    return max((p for p in TAIL_LADDER if len(xs) - math.ceil(p / 100 * len(xs)) >= 10), default=50)


def run_record(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, extra: list[str]) -> dict:
    base = ["--workload", name, "--seed", str(seed), *extra]
    if not trace:
        n = item_count(name, seconds)
        main = spawn([*base, "--items", str(n)], seed)
        # The host's speed drifts by a fifth or more over seconds to
        # minutes; scaling by the probe run in the same process reports
        # every time at the reference speed.  Unscaled figures go in the notes.
        speed = PROBE_REF_S / main["probe_s"]
        setup_runs = [main] + [spawn([*base, "--setup-only"], seed) for _ in range(SETUP_REPEATS - 1)]
        setups = [r["setup_s"] * PROBE_REF_S / r["probe_s"] for r in setup_runs]
        raw = sorted(main["latencies"])
        lat = [x * speed for x in raw]
        p = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (n / sum(lat), "items/s"),
            "item_p50_ms": (percentile(lat, 50) * 1000, "ms"),
            "item_tail_ms": (percentile(lat, p) * 1000, "ms"),
            "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
        }
        notes = {
            "tail_percentile": p,
            "items": n,
            "setup_samples": setups,
            "speed": speed,
            "probes": main["probes"],
            "unscaled": {
                "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
                "items_per_s": n / sum(raw),
                "item_p50_ms": percentile(raw, 50) * 1000,
                "item_tail_ms": percentile(raw, p) * 1000,
            },
        }
        runs = [main]
    else:
        plain = spawn([*base, "--items", str(math.ceil(item_count(name, seconds) / 2))], seed)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv.gz")
        traced = spawn([*base, "--trace", "--items", str(plain["attempted"]), "--spans", spans], seed)
        layers = traced["layers"]
        # both busy times at the reference speed, so that a change of the
        # host's speed between the two processes does not read as overhead
        untraced = plain["busy_s"] * PROBE_REF_S / plain["probe_s"]
        layers["trace.untraced_s"] = untraced
        layers["trace.overhead_s"] = traced["busy_s"] * PROBE_REF_S / traced["probe_s"] - untraced
        units = {n: ("s" if n.endswith("_s") else "count") for n in metric_names()}
        metrics = {n: (layers[n], units[n]) for n in metric_names()}
        notes = {
            "items": plain["attempted"],
            "spans": traced["spans"],
            "span_file": os.path.relpath(spans, ROOT),
            "self_time_mismatches": traced["self_time_mismatches"],
        }
        runs = [plain, traced]
    errors = [e for r in runs for e in r["errors"]]
    error_count = sum(r["error_count"] for r in runs)
    if trace and traced["self_time_mismatches"]:
        errors.append(f"{traced['self_time_mismatches']} items whose self times do not sum to their span")
        error_count += 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes["fail_frac"] = failed / attempted
    return {
        "workload": name,
        "correct": error_count == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "notes": notes,
    }


def report(res: dict, record: dict, trace: bool) -> None:
    name = res["workload"]
    notes = res["notes"]
    print(f"# {name}  seed={record['seed']} python={record['python']} nproc={record['nproc']} {record['platform']}")
    for metric, (value, unit) in res["metrics"].items():
        print(f"{name}  {metric:<44} {value:>14.6g} {unit}")
    print(f"{name}  {'fail_frac':<44} {notes['fail_frac']:>14.6g} ratio  ({res['failed']}/{res['attempted']})")
    if trace:
        print(f"{name}  spans={notes['spans']} items={notes['items']} file={notes['span_file']}")
    else:
        print(f"{name}  item_tail_ms is p{notes['tail_percentile']:g} of {notes['items']} items")
        unscaled = " ".join(f"{k}={v:.6g}" for k, v in notes["unscaled"].items())
        print(f"{name}  mean speed {notes['speed']:.4f} ({notes['probes']} probe slices); unscaled: {unscaled}")
    for err in res["errors"][:10]:
        print(f"{name}  WRONG: {err}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None, help="shrink each population (smoke tests)")
    ap.add_argument("--reference-dir", default=REFERENCE_DIR)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    extra = ["--reference-dir", args.reference_dir]
    if args.size is not None:
        extra += ["--size", str(args.size)]
    record = run_record(args.seed)
    try:
        build()
        results = [measure(n, args.seed, args.seconds, bool(args.trace), extra) for n in names]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for res in results:
        report(res, record, bool(args.trace))
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": u}
            for r in results
            for m, (v, u) in r["metrics"].items()
        },
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"run": record, "results": results, "summary": summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
