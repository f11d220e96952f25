"""Spans around the library's public functions, recorded from outside it.

``install`` rebinds every ``asmschub`` module attribute (and class
attribute) that holds a traced function to a wrapper.  Each wrapped call
records one span: name, start, end, parent span and item id.  Spans stay
in memory until the run ends.  A span's self time is its duration minus
the part covered by its children, so a helper that is not wrapped counts
toward its nearest wrapped caller.

``monomial`` and ``mono_mul`` in ``poly`` are deliberately left alone:
they run up to about a million times per run and a wrapper would swamp
what it measures.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, qualified name, name of the result count, how to count it)
SPANS = (
    ("monomial", "betti_numbers", "entries", len),
    ("monomial", "minimal_primes", "primes", len),
    ("monomial", "monomial_ideal", None, None),
    ("groebner", "buchberger", "basis_size", len),
    ("groebner", "normal_form", "zero_results", lambda f: int(f.is_zero)),
    ("poly", "lead_monomial", None, None),
    ("poly", "divided_difference", None, None),
    ("poly", "isobaric_divided_difference", None, None),
    ("poly", "Polynomial.__mul__", None, None),
    ("poly", "Polynomial.__add__", None, None),
    ("poly", "generic_minor", None, None),
    ("ideal", "anti_diag_init", "generators", lambda J: len(J.generators)),
    ("ideal", "diag_init", None, None),
    ("ideal", "schubert_determinantal_ideal", None, None),
    ("schubpoly", "double_schubert_polynomial", None, None),
    ("schubpoly", "grothendieck_polynomial", None, None),
    ("schubpoly", "schubert_regularity", None, None),
    ("decomp", "is_schubert_cm", None, None),
    ("decomp", "perm_set_of_asm", None, None),
    ("pipedream", "pipe_dreams", "dreams", len),
    ("perm", "demazure_product", None, None),
    ("asm", "enumerate_asms", None, None),
)
# Functions counted without a span; their time stays with the caller.
COUNTS = (
    ("monomial", "is_cm_quotient"),
    ("monomial", "reg_quotient"),
    ("asm", "rank_table"),
)
LAYERS = ("perm", "asm", "ideal", "groebner", "poly", "monomial", "pipedream", "schubpoly", "decomp")
ROOT_SPAN = "item"  # the benchmark's own span around one item, or around set-up


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, qual, count, _ in SPANS:
        names += [f"{module}.{qual}.calls", f"{module}.{qual}.self_s"]
        if count:
            names.append(f"{module}.{qual}.{count}")
    names += [f"{module}.{qual}.calls" for module, qual in COUNTS]
    names.append("groebner.budget_errors")
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.untraced_s", "trace.overhead_s"]
    return names


class Tracer:
    """Span store for one process; spans are (name id, start ns, end ns,
    parent index or -1, item id)."""

    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = -1

    def open(self, name_id: int) -> int:
        me = len(self.spans)
        self.spans.append((name_id, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.item))
        self.stack.append(me)
        return me

    def close(self, me: int) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        name_id, start, _, parent, item = self.spans[me]
        self.spans[me] = (name_id, start, end, parent, item)

    @contextmanager
    def root(self, item: int):
        """The benchmark's own span around one item (or set-up, item -1)."""
        self.item = item
        me = self.open(0)
        try:
            yield
        finally:
            self.close(me)

    def _span_wrapper(self, fn, name: str, count: str | None, counter):
        name_id = len(self.names)
        self.names.append(name)
        budget_error = sys.modules["asmschub.groebner"].GroebnerBudgetError

        def traced(*args, **kwargs):
            me = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                self.counts["groebner.budget_errors"] += 1
                raise
            finally:
                self.close(me)
            if count:
                self.counts[f"{name}.{count}"] += counter(result)
            return result

        return traced

    def _count_wrapper(self, fn, name: str):
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every traced function wherever asmschub holds it; returns
        a function that puts the originals back."""
        import asmschub  # noqa: F401  (loads every submodule)

        modules = [m for k, m in list(sys.modules.items()) if k == "asmschub" or k.startswith("asmschub.")]
        undo = []
        plan = [(m, q, self._span_wrapper, (c, f)) for m, q, c, f in SPANS]
        plan += [(m, q, self._count_wrapper, ()) for m, q in COUNTS]
        for module, qual, make, extra in plan:
            owner = sys.modules[f"asmschub.{module}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = make(fn, f"{module}.{qual}", *extra)
            holders = [owner] if path else [m for m in modules if any(v is fn for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, fn))

        def restore():
            for holder, key, fn in reversed(undo):
                setattr(holder, key, fn)

        return restore

    def write(self, path: str) -> None:
        """Spans as tab-separated text: one header of names, then one row
        per span with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("names\t" + "\t".join(self.names) + "\n")
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for name_id, start, end, parent, item in self.spans:
                fh.write(f"{name_id}\t{start - t0}\t{end - t0}\t{parent}\t{item}\n")


def self_times(spans) -> list[int]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children = defaultdict(list)
    for k, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(k, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(names: list[str], spans, counts: dict[str, int]) -> tuple[dict[str, float], int]:
    """Per-layer metrics, and the number of items whose self times do
    not add up to their outermost span."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    per_item = defaultdict(int)
    root_ns = defaultdict(int)
    for (name_id, start, end, parent, item), own in zip(spans, selfs):
        calls[name_id] += 1
        self_ns[name_id] += own
        per_item[item] += own
        if parent < 0:
            root_ns[item] += end - start
    mismatches = sum(per_item[i] != root_ns[i] for i in per_item)
    out: dict[str, float] = {name: 0 for name in metric_names()}
    layer_ns = defaultdict(int)
    for name_id, name in enumerate(names):
        if name_id == 0:
            continue
        out[f"{name}.calls"] = calls[name_id]
        out[f"{name}.self_s"] = self_ns[name_id] / 1e9
        layer_ns[name.split(".", 1)[0]] += self_ns[name_id]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
    for key, value in counts.items():
        out[key] = value
    return out, mismatches
