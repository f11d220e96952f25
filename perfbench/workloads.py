"""The four benchmark workloads: populations, items, sampling and checks.

Each workload draws its items from a fixed population with a seeded
generator; the library only ever sees the drawn inputs.  An item is one
unit of timed work.  What the checks need is kept between timed items
and checked after the timed window, against a reference table made once
with ``make_reference.py`` and against independent routes in the
library.

The module imports ``asmschub`` only inside functions, so that a worker
can start its set-up clock before the library is imported.
"""

from __future__ import annotations

import gzip
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

DIAG_ORDERS = ("LexSE", "LexNW", "RevLex")
_ENTRY_CHAR = {-1: "-", 0: "0", 1: "1"}


def asm_key(A) -> str:
    """Compact row-major spelling of a matrix, rows joined by '/'."""
    return "/".join("".join(_ENTRY_CHAR[e] for e in row) for row in A.rows)


def perm_key(w) -> str:
    return "".join(str(v) for v in w.one_line)


@dataclass
class Workload:
    """One benchmark workload.

    ``population(size)`` returns (key, input) pairs and is part of
    set-up; ``size`` shortens it for smoke tests.
    ``run_item`` is the timed unit of work.  ``checker`` is built from the
    reference table and collects and checks the outputs.  ``order`` and
    ``weight`` choose how items are drawn; see ``item_order``.
    ``weight`` maps (key, input, reference entry) to a size of the exact
    answer, so it does not depend on the code timed.
    ``items_per_s`` is how many items a run times per second of its
    budget: a run measures a fixed number of items, the budget times this
    rate, so that every commit and machine is timed on the same items for
    a given seed.  It is near the rate this commit reached at the
    reference speed (see ``run.py``); cm_sweep's is set higher, so that
    its heavy-tailed sample covers most of the population.
    """

    name: str
    population: Callable[[int | None], list[tuple[str, Any]]]
    run_item: Callable[[Any], Any]
    checker: type["Checker"]
    reference_file: str
    items_per_s: float
    order: str = "shuffled"
    weight: Callable[[str, Any, Any], float] | None = None


class Checker:
    """Keeps what the checks need from each output, then checks it.

    ``add`` runs between timed items, inside a traced run, so it calls
    no library function; it keeps only what ``finish`` needs, so that
    peak memory stays the program's.  ``finish`` runs after the timed
    window and returns the error strings, empty when every answer is
    right.
    """

    def __init__(self, ref: dict):
        self.ref = ref
        self.errors: list[str] = []
        self.kept: list = []

    def add(self, key: str, arg, out) -> None:
        self.kept.append((key, arg, out))

    def finish(self) -> list[str]:
        return self.errors


# -- cm_sweep ---------------------------------------------------------------

def _cm_population(size: int | None = None):
    from asmschub.asm import as_permutation, enumerate_asms

    pop = [A for A in enumerate_asms(5) if as_permutation(A) is None]
    return [(asm_key(A), A) for A in pop[:size]]


def _cm_item(A):
    from asmschub import is_schubert_cm, schubert_regularity

    return is_schubert_cm(A), schubert_regularity(A)


class _CmChecker(Checker):
    def add(self, key, arg, out):
        want = self.ref.get(key)
        if want is None or list(out) != want[:2]:
            self.errors.append(f"cm_sweep {key}: got cm, reg = {out}, want {want}")


# -- decomp_sweep -----------------------------------------------------------

def _decomp_population(size: int | None = None):
    from asmschub import enumerate_asms

    return [(asm_key(A), A) for A in enumerate_asms(6)[:size]]


def _decomp_item(A):
    from asmschub import perm_set_of_asm, pipe_dreams

    ws = perm_set_of_asm(A)
    return ws, [pipe_dreams(w) for w in ws]


class _DecompChecker(Checker):
    def __init__(self, ref):
        super().__init__(ref)
        self.dreams: dict = {}  # component -> cross sets of its pipe dreams

    def add(self, key, arg, out):
        ws, dreams = out
        got = [perm_key(w) for w in ws]
        if self.ref.get(key) != got:
            self.errors.append(f"decomp_sweep {key}: got {got}, want {self.ref.get(key)}")
        for w, ds in zip(ws, dreams):
            crosses = {frozenset(D.crosses) for D in ds}
            if self.dreams.setdefault(w, crosses) != crosses:
                self.errors.append(f"decomp_sweep {perm_key(w)}: pipe dreams differ between calls")

    def finish(self):
        from asmschub import anti_diag_init, minimal_primes

        # Knutson-Miller: the reduced pipe dreams of w are the minimal
        # primes of its antidiagonal initial ideal, read as cross sets.
        for w, crosses in self.dreams.items():
            primes = {frozenset((v[1], v[2]) for v in P) for P in minimal_primes(anti_diag_init(w))}
            if primes != crosses:
                self.errors.append(f"decomp_sweep {perm_key(w)}: pipe dreams differ from minimal primes")
        return self.errors


# -- groebner_diag ----------------------------------------------------------

def _groebner_population(size: int | None = None):
    from asmschub import all_permutations

    pop = [(w, o) for w in all_permutations(6) for o in DIAG_ORDERS]
    return [(f"{perm_key(w)}|{o}", (w, o)) for w, o in pop[:size]]


def _groebner_item(arg):
    from asmschub import diag_init

    w, order = arg
    return diag_init(w, order)


def canonical_ideal(J) -> str:
    from asmschub.monomial import mono_to_text

    return " ".join(sorted(mono_to_text(m) for m in J.generators))


class _GroebnerChecker(Checker):
    def finish(self):
        from asmschub import rothe_diagram
        from asmschub.monomial import codim

        for key, (w, _), J in self.kept:
            want = self.ref.get(key)
            if want is None or canonical_ideal(J) != want[0]:
                self.errors.append(f"groebner_diag {key}: initial ideal differs from the reference")
            if codim(J) != len(rothe_diagram(w)):
                self.errors.append(f"groebner_diag {key}: codim {codim(J)} != diagram size {len(rothe_diagram(w))}")
        return self.errors


# -- flag_polys -------------------------------------------------------------

def _flag_population(size: int | None = None):
    from asmschub import all_permutations

    # a shortened population keeps the longest permutations: every
    # chain of divided differences starts at the longest element
    perms = list(all_permutations(6))
    return [(perm_key(w), w) for w in perms[len(perms) - (size or len(perms)):]]


def _flag_item(w):
    from asmschub import double_schubert_polynomial, grothendieck_polynomial

    return double_schubert_polynomial(w), grothendieck_polynomial(w)


def _part(f, keep):
    from asmschub import Polynomial

    return Polynomial.from_dict({m: c for m, c in f.terms if keep(m)})


class _FlagChecker(Checker):
    """The polynomials stay in the library's caches whatever is kept."""

    def finish(self):
        from asmschub import raj_index, schubert_polynomial
        from asmschub.poly import mono_degree, mono_support, y_

        for key, w, (double, groth) in self.kept:
            if self.ref.get(key) != [len(double.terms), len(groth.terms)]:
                self.errors.append(f"flag_polys {key}: term counts differ from the reference")
            ys = {y_(j) for j in range(1, len(w) + 1)}
            single = schubert_polynomial(w, "Transition")
            if _part(double, lambda m: not ys.intersection(mono_support(m))) != single:
                self.errors.append(f"flag_polys {key}: y-free part of the double Schubert polynomial")
            if groth.degree() != raj_index(w):
                self.errors.append(f"flag_polys {key}: Grothendieck degree {groth.degree()} != raj {raj_index(w)}")
            low = min(mono_degree(m) for m, _ in groth.terms)
            if _part(groth, lambda m: mono_degree(m) == low) != single:
                self.errors.append(f"flag_polys {key}: lowest Grothendieck part != Schubert polynomial")
        return self.errors


def _inversions(w) -> int:
    line = w.one_line
    return sum(a > b for i, a in enumerate(line) for b in line[i + 1:])


WORKLOADS = {
    w.name: w
    for w in (
        # lcm-lattice size drives the homology cost, heavy-tailed
        Workload("cm_sweep", _cm_population, _cm_item, _CmChecker, "cm_sweep.json", 12,
                 order="balanced", weight=lambda key, A, want: want[2]),
        # short items with a light tail: plain shuffled passes
        Workload("decomp_sweep", _decomp_population, _decomp_item, _DecompChecker, "decomp_sweep.json.gz", 400),
        # the size of the initial ideal, total degree of its generators
        # times their largest degree, tracks the Buchberger cost
        Workload("groebner_diag", _groebner_population, _groebner_item, _GroebnerChecker, "groebner_diag.json.gz", 30,
                 order="balanced", weight=lambda key, arg, want: want[1] * want[2]),
        # divided differences descend from the longest element, so the
        # sweep runs top-down by length and each item reuses its parent's
        # cached result; within a length, term counts balance the cost
        Workload("flag_polys", _flag_population, _flag_item, _FlagChecker, "flag_polys.json", 5,
                 order="top_down", weight=lambda key, w, want: (_inversions(w), want[0] + want[1])),
    )
}


def load_reference(workload: Workload, directory: str = REFERENCE_DIR) -> dict:
    path = os.path.join(directory, workload.reference_file)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as fh:
        return json.load(fh)


def _spread_order(n: int) -> list[int]:
    """0..n-1 sorted by bit-reversed value, so that every prefix is
    spread evenly over the range (a van der Corput sequence)."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda b: int(f"{b:0{bits}b}"[::-1], 2))


def _balanced_pass(members: list[int], weight, rng: random.Random, blocks: int):
    """Each member once: sorted by weight and cut into ``blocks`` runs of
    similar cost; each round draws one member from every run, visiting
    the runs in an order whose every prefix spans the whole cost range."""
    ranked = sorted(members, key=weight)
    n = len(ranked)
    blocks = max(1, min(blocks, n))
    runs = [ranked[b * n // blocks:(b + 1) * n // blocks] for b in range(blocks)]
    for run in runs:
        rng.shuffle(run)
    visit = [runs[b] for b in _spread_order(blocks)]
    while any(runs):
        for run in visit:
            if run:
                yield run.pop()


def item_order(keys: list[str], weights: list | None, order: str, seed: int, blocks: int):
    """Seeded sequence of population indices.

    ``shuffled``: endless passes, each a fresh shuffle of the population.
    ``balanced``: endless passes balanced by weight, so any stretch of
    the sequence carries the population's cost mix whatever the seed.
    ``top_down``: one pass; weights are (level, cost) pairs, levels run
    from the highest down and each level is a balanced pass by cost.
    """
    rng = random.Random(seed)
    everyone = list(range(len(keys)))
    if order == "shuffled":
        while True:
            rng.shuffle(everyone)
            yield from everyone
    elif order == "balanced":
        while True:
            yield from _balanced_pass(everyone, lambda i: (weights[i], keys[i]), rng, blocks)
    elif order == "top_down":
        levels: dict = {}
        for i in everyone:
            levels.setdefault(weights[i][0], []).append(i)
        for level in sorted(levels, reverse=True):
            yield from _balanced_pass(levels[level], lambda i: (weights[i][1], keys[i]), rng, blocks)
    else:
        raise ValueError(f"unknown item order {order!r}")
