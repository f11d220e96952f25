"""One benchmark process: set up a workload, time its items, check answers.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path,
so the library's module caches start empty.  Prints one JSON object on
its last stdout line.  The set-up clock starts before the library is
imported and stops when the inputs exist.

Between items the worker runs slices of a fixed stdlib computation, the
speed probe, for about a tenth of the items' time.  Its mean slice time
tells how fast the machine ran while the items did, and ``run.py``
scales the item times by it.  A process that only sets up runs a few
slices after the set-up, for the same purpose.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, summarize  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, item_order, load_reference  # noqa: E402

# Probe time as a share of the items' time.
PROBE_SHARE = 0.1
# Probe slices after a set-up that is timed on its own.
SETUP_PROBES = 5
# Cost strata of each level of a top-down sweep (see item_order).
LEVEL_BLOCKS = 64


def is_guard_error(exc: Exception) -> bool:
    """Budget and size-guard refusals count as failed items; any other
    exception is a defect and ends the run."""
    from asmschub import GroebnerBudgetError

    if isinstance(exc, GroebnerBudgetError):
        return True
    return isinstance(exc, ValueError) and ("guard" in str(exc) or "too large" in str(exc))


def probe() -> float:
    """Time one slice of the speed probe: Fraction arithmetic, which is
    pure-Python object and integer work like the library's own but does
    not call the library, so a faster library leaves it alone."""
    t0 = perf_counter()
    acc = Fraction(1, 3)
    for i in range(1, 2001):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)
    return perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", type=int, default=1, help="number of items to time")
    ap.add_argument("--size", type=int, default=None, help="shorten the population to SIZE members (smoke tests)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="gzip file for the spans of a traced run")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference-dir", default=REFERENCE_DIR)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    restore = tracer.install() if tracer else None
    if tracer:
        with tracer.root(-1):
            population = wl.population(args.size)
    else:
        population = wl.population(args.size)
    setup_s = perf_counter() - T_START
    if args.setup_only:
        probe()  # warm-up, not counted
        print(json.dumps({"setup_s": setup_s, "probe_s": sum(probe() for _ in range(SETUP_PROBES)) / SETUP_PROBES}))
        return

    errors = []
    ref = load_reference(wl, args.reference_dir)
    keys = [k for k, _ in population]
    if args.size is None and set(keys) != set(ref):
        errors.append(f"{wl.name}: population differs from the reference table")
    weights = None
    if wl.weight is not None:
        try:
            weights = [wl.weight(k, arg, ref[k]) for k, arg in population]
        except KeyError:
            errors.append(f"{wl.name}: population member missing from the reference table")
            weights = [0] * len(population)
    # a balanced sample takes one item from each of as many cost strata
    # as it times, so every seed draws the same mix of cheap and dear items
    blocks = args.items if wl.order == "balanced" else LEVEL_BLOCKS
    order = item_order(keys, weights, wl.order, args.seed, blocks)

    checker = wl.checker(ref)
    latencies: list[float] = []
    failed = 0
    busy = 0.0
    probe()  # warm-up, not counted
    probes = 0
    probed = 0.0
    for n, idx in zip(range(args.items), order):
        key, arg = population[idx]
        # Untimed: collect, then exempt everything that exists from later
        # collections, so the collector's passes inside an item scan only
        # what that item allocated, not the outputs and spans kept so far.
        gc.collect()
        gc.freeze()
        try:
            if tracer:
                with tracer.root(n):
                    t0 = perf_counter()
                    out = wl.run_item(arg)
                    t1 = perf_counter()
            else:
                t0 = perf_counter()
                out = wl.run_item(arg)
                t1 = perf_counter()
        except (ValueError, RuntimeError) as exc:
            t1 = perf_counter()
            if not is_guard_error(exc):
                raise
            failed += 1
        else:
            checker.add(key, arg, out)
        latencies.append(t1 - t0)
        busy += t1 - t0
        while probed < PROBE_SHARE * busy:
            probed += probe()
            probes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if restore:
        restore()

    errors += checker.finish()
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "busy_s": busy,
        "probe_s": probed / max(1, probes),
        "probes": probes,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors[:20],
        "error_count": len(errors),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        layers, mismatches = summarize(tracer.names, tracer.spans, tracer.counts)
        result["layers"] = layers
        result["self_time_mismatches"] = mismatches
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
