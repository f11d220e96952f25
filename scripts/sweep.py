"""Exhaustive cross-route sweeps, frozen into a JSON corpus.

A family compares a fast route of the library with an independent
slower one over a whole population, and records per item whether the
two agree.  Five families so far:

- ``diag-cdg``: the diagonal initial ideals of every permutation of S_n
  under LexSE, LexNW and RevLex.  `diag_init`, which reads a CDG
  permutation's ideal off the lead terms of its CDG generators (Klein's
  theorem) and runs Buchberger for the rest, against `initial_ideal` of
  a Buchberger basis.  For every item the sweep also records whether the
  CDG-generator lead terms alone give Buchberger's ideal: the theorem
  says they do on CDG permutations and is silent on the others.

  The corpus holds, per item ``"<one-line>|<order>"``, three flags:
  the permutation avoids the CDG patterns, `diag_init` agrees with
  Buchberger, and the CDG-generator leads agree with Buchberger.
- ``homology``: every non-permutation n x n ASM.  `is_schubert_cm` and
  `schubert_regularity`, which certify most items by a vertex
  decomposition of the Stanley-Reisner complex of the antidiagonal
  degeneration J and walk the smaller lcm lattice, of J or of its
  Alexander dual, for the rest.  Up to n = ``BETTI_LIMIT`` (5) they are
  checked against the full Betti table of J: Cohen-Macaulay iff pdim
  equals codim, and reg is max |sigma| - i.  Past it, against the walks
  `is_cm_quotient` and `reg_quotient` on the same J.  The corpus holds,
  per item (the matrix, rows joined by ``/``, ``-`` for -1), the two
  answers, whether each agrees with its check, and the `faces` and
  `complexes` that `collect_stats` counted over the two fast calls.
- ``flag``: every permutation of S_n.  The divided-difference Schubert
  polynomial against the transition recursion, the divided-difference
  Grothendieck polynomial against the signed pipe-dream sum (only up to
  n = ``PIPE_DREAM_LIMIT``), and the y-free part of the double Schubert
  polynomial against the Schubert polynomial and the whole double
  Schubert polynomial, y terms included, against the sum over reduced
  pipe dreams of `double_schuberts_by_reduced_dreams` from
  ``tests/oracles.py`` (both only up to n = ``DOUBLE_LIMIT``).  The
  corpus holds, per item (the one-line notation), each of the four
  checks as a pair: whether the routes agree, then the term count of the
  divided-difference polynomial (Schubert, Grothendieck, double
  Schubert) or, for the last, of the pipe-dream sum; null where a route
  is past its limit.  Each check is timed over the whole population.

- ``decomp``: every n x n ASM.  `perm_set_of_asm`, which searches the
  rows for the Bruhat-minimal permutations under the essential boxes,
  trying only the leftmost free column of each block between essential
  columns and keeping each lower cover broken, and builds no ideal,
  against `perm_set_brute_force` from ``tests/oracles.py``,
  a scan of S_n for the Bruhat-minimal permutations whose rank tables
  the ASM bounds.  For each component w, `pipe_dreams(w)` against the
  minimal primes of `anti_diag_init(w)` read as cross sets
  (Knutson-Miller).  The corpus holds, per item (the matrix, as in
  ``homology``), the components in order (one-line notation, space
  separated), whether they agree with the brute force as a set, the
  number of pipe dreams over the components, and whether those agree
  with the primes.
- ``union``: every unordered pair of distinct permutations of S_n.
  `union_asm`, which reads whether the union of the two matrix Schubert
  varieties is an ASM variety off rank tables and permutation sets,
  against `is_asm_ideal` on `schubert_intersect`, which intersects the
  two ideals by elimination and compares reduced Groebner bases.  The
  corpus holds, per item (the two one-line notations, space separated),
  whether the union is an ASM variety and whether the routes agree.

    python3 scripts/sweep.py --size 5
    python3 scripts/sweep.py --size 6 --out scripts/corpus/diag-cdg-6.json
    python3 scripts/sweep.py --family homology --out scripts/corpus/homology-5.json
    python3 scripts/sweep.py --family flag --out scripts/corpus/flag-5.json
    python3 scripts/sweep.py --family decomp --out scripts/corpus/decomp-5.json
    python3 scripts/sweep.py --family union --size 4 --out scripts/corpus/union-4.json
    python3 scripts/sweep.py --family diag-cdg --size 6 --check

``--check`` reruns a family and compares it with its committed corpus,
``scripts/corpus/<family>-<size>.json`` unless a path is given, and
exits 1 naming the first item key, in sorted order, whose row differs
or that only one side has.

``diag-cdg`` at size 6 (2,160 items) takes about 2.4 s on a 2-vCPU x86-64
machine with Python 3.11 (25 s before Buchberger packed its monomials,
2.6 s before `diag_init` drove its runs by the Hilbert function), most
of it in the plain Buchberger runs it checks `diag_init` against.  ``flag`` takes about 14 s at size 6,
most of it in the double Schubert divided differences and the reduced
pipe-dream sum they are checked against, and about 27 s at
size 7 (44 s before the pipe-dream sum compared plain sorted prefixes),
where the double Schubert check is past its limit and nearly all the time
goes to the two Grothendieck routes.  ``homology`` takes about 100 s at
size 6, of which the two fast calls take about 8 s and the checking
walks the rest: 3,308 of the 6,716 items are Cohen-Macaulay, and the
regularity histogram is {1: 538, 2: 1192, 3: 1794, 4: 1535, 5: 963,
6: 486, 7: 152, 8: 43, 9: 11, 10: 2}.  No 6x6 corpus is committed.
``decomp`` takes under a second at size 5 and about 17 s at size 6, where
7,436 of 7,436 items agree over 720 distinct components.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from asmschub.asm import as_permutation, enumerate_asms
from asmschub.decomp import is_asm_ideal, is_schubert_cm, perm_set_of_asm, schubert_intersect, union_asm
from asmschub.groebner import initial_ideal
from asmschub.ideal import (
    DIAG_VARIANTS,
    _cdg_init,
    anti_diag_init,
    as_partial_asm,
    diag_init,
    diag_order,
    schubert_determinantal_ideal,
)
from asmschub.monomial import betti_numbers, codim, collect_stats, is_cm_quotient, minimal_primes, reg_quotient
from asmschub.perm import all_permutations, class_membership
from asmschub.pipedream import PIPE_DREAM_LIMIT, pipe_dreams
from asmschub.poly import Polynomial
from asmschub.schubpoly import (
    double_schubert_polynomial,
    grothendieck_polynomial,
    schubert_polynomial,
    schubert_regularity,
)

# full Betti tables of all 6,716 non-permutation 6x6 ASMs take over an hour
BETTI_LIMIT = 5
# the double Schubert polynomial of the longest element of S_7 expands a
# product of 21 binomials, too large to descend from for every item
DOUBLE_LIMIT = 6
# the brute force scans S_n once per ASM: 7,436 x 720 at size 6, hours at 7
BRUTE_LIMIT = 6
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
sys.path.insert(0, str(CORPUS_DIR.parent.parent / "tests"))
from oracles import double_schuberts_by_reduced_dreams, perm_set_brute_force  # noqa: E402  (slow routes)


@dataclass(frozen=True)
class Config:
    family: str = "diag-cdg"
    size: int = 5
    out: str | None = None


def diag_cdg_item(w, variant: str) -> list[int]:
    """[avoids the CDG patterns, diag_init agrees, CDG leads agree] for one item."""
    order = diag_order(variant, len(w), len(w))
    want = initial_ideal(schubert_determinantal_ideal(w), order)
    leads = _cdg_init(as_partial_asm(w), variant)
    return [int(class_membership(w, "cdg")), int(diag_init(w, variant) == want), int(leads == want)]


def diag_cdg(cfg: Config) -> dict:
    t0 = time.perf_counter()
    items = {
        "".join(map(str, w.one_line)) + "|" + variant: diag_cdg_item(w, variant)
        for w in all_permutations(cfg.size)
        for variant in DIAG_VARIANTS
    }
    print(f"diag-cdg S_{cfg.size}: {len(items)} items in {time.perf_counter() - t0:.1f}s")
    flags = list(items.values())
    summary = {
        "items": len(flags),
        "agree": sum(a for _, a, _ in flags),
        "cdg_items": sum(c for c, _, _ in flags),
        "cdg_leads_agree_on_cdg": sum(c and l for c, _, l in flags),
        "non_cdg_items": sum(not c for c, _, _ in flags),
        "cdg_leads_differ_on_non_cdg": sum(not c and not l for c, _, l in flags),
    }
    return {"family": "diag-cdg", "size": cfg.size, "summary": summary, "items": items}


def asm_key(A) -> str:
    return "/".join("".join("-" if e < 0 else str(e) for e in row) for row in A.rows)


def homology_item(A) -> list[int]:
    """[cm, reg, cm agrees, reg agrees, faces, complexes] for one ASM."""
    with collect_stats() as s:
        cm, reg = is_schubert_cm(A), schubert_regularity(A)
    J = anti_diag_init(A)
    if A.nrows > BETTI_LIMIT:
        want_cm, want_reg = is_cm_quotient(J), reg_quotient(J)
    else:
        table = betti_numbers(J)
        want_cm = max(i for i, _ in table) == codim(J)
        want_reg = max(len(sigma) - i for i, sigma in table)
    return [int(cm), reg, int(cm == want_cm), int(reg == want_reg), s["faces"], s["complexes"]]


def homology(cfg: Config) -> dict:
    pool = [A for A in enumerate_asms(cfg.size) if as_permutation(A) is None]
    t0 = time.perf_counter()
    items = {asm_key(A): homology_item(A) for A in pool}
    print(f"homology {cfg.size}x{cfg.size}: {len(items)} items in {time.perf_counter() - t0:.1f}s")
    flags = list(items.values())
    summary = {
        "items": len(flags),
        "cm": sum(f[0] for f in flags),
        "cm_agree": sum(f[2] for f in flags),
        "reg_agree": sum(f[3] for f in flags),
        "faces": sum(f[4] for f in flags),
        "complexes": sum(f[5] for f in flags),
    }
    return {"family": "homology", "size": cfg.size, "summary": summary, "items": items}


@lru_cache(maxsize=None)
def prime_cells(w) -> frozenset:
    """Minimal primes of `anti_diag_init(w)` as sorted cell tuples."""
    return frozenset(tuple((v[1], v[2]) for v in P) for P in minimal_primes(anti_diag_init(w)))


def decomp_item(A) -> list:
    """[components, they agree with the brute force, pipe dreams, those
    agree with the primes] for one ASM."""
    ws = perm_set_of_asm(A)
    dreams = [pipe_dreams(w) for w in ws]
    brute = perm_set_brute_force(A, max_size=BRUTE_LIMIT)
    return [
        " ".join("".join(map(str, w.one_line)) for w in ws),
        int(set(ws) == set(brute)),
        sum(map(len, dreams)),
        int(all({D.crosses for D in ds} == prime_cells(w) for w, ds in zip(ws, dreams))),
    ]


def decomp(cfg: Config) -> dict:
    pool = enumerate_asms(cfg.size)
    t0 = time.perf_counter()
    items = {asm_key(A): decomp_item(A) for A in pool}
    print(f"decomp {cfg.size}x{cfg.size}: {len(items)} items in {time.perf_counter() - t0:.1f}s")
    rows = list(items.values())
    summary = {
        "items": len(rows),
        "components": sum(len(r[0].split()) for r in rows),
        "distinct_components": len({w for r in rows for w in r[0].split()}),
        "perm_set_agree": sum(r[1] for r in rows),
        "dreams": sum(r[2] for r in rows),
        "dreams_agree": sum(r[3] for r in rows),
    }
    return {"family": "decomp", "size": cfg.size, "summary": summary, "items": items}


def union_item(u, w) -> list[int]:
    """[the union is an ASM variety, the two routes agree] for one pair."""
    union = union_asm([u, w]) is not None
    return [int(union), int(union == is_asm_ideal(schubert_intersect([u, w])))]


def union(cfg: Config) -> dict:
    perms = list(all_permutations(cfg.size))
    t0 = time.perf_counter()
    items = {
        " ".join("".join(map(str, x.one_line)) for x in (u, w)): union_item(u, w)
        for i, u in enumerate(perms)
        for w in perms[i + 1 :]
    }
    print(f"union S_{cfg.size}: {len(items)} pairs in {time.perf_counter() - t0:.1f}s")
    rows = list(items.values())
    summary = {"items": len(rows), "unions": sum(r[0] for r in rows), "agree": sum(r[1] for r in rows)}
    return {"family": "union", "size": cfg.size, "summary": summary, "items": items}


def _schubert_check(w) -> tuple[int, int]:
    f = schubert_polynomial(w)
    return int(f == schubert_polynomial(w, "Transition")), len(f.terms)


def _grothendieck_check(w) -> tuple[int | None, int]:
    g = grothendieck_polynomial(w)
    if len(w) > PIPE_DREAM_LIMIT:
        return None, len(g.terms)
    return int(g == grothendieck_polynomial(w, "PipeDream")), len(g.terms)


def _double_check(w) -> tuple[int | None, int | None]:
    if len(w) > DOUBLE_LIMIT:
        return None, None
    d = double_schubert_polynomial(w)
    y_free = Polynomial.from_dict({m: c for m, c in d.terms if all(v[0] != "y" for v, _ in m)})
    return int(y_free == schubert_polynomial(w)), len(d.terms)


@lru_cache(maxsize=None)
def _dream_doubles(n: int) -> dict:
    return double_schuberts_by_reduced_dreams(n)


def _whole_double_check(w) -> tuple[int | None, int | None]:
    if len(w) > DOUBLE_LIMIT:
        return None, None
    want = _dream_doubles(len(w))[w.one_line]
    return int(double_schubert_polynomial(w) == want), len(want.terms)


FLAG_CHECKS = {
    "schubert_vs_transition": _schubert_check,
    "grothendieck_vs_pipe_dream": _grothendieck_check,
    "y_free_double_vs_schubert": _double_check,
    "double_vs_reduced_dreams": _whole_double_check,
}


def flag_item(w) -> list[int | None]:
    """[Schubert agrees, its terms, Grothendieck agrees, its terms, y-free
    double Schubert agrees, its terms, whole double Schubert agrees, the
    pipe-dream sum's terms] for one item."""
    return [x for check in FLAG_CHECKS.values() for x in check(w)]


def flag(cfg: Config) -> dict:
    perms = list(all_permutations(cfg.size))
    columns = []
    for name, check in FLAG_CHECKS.items():
        t0 = time.perf_counter()
        columns.append([check(w) for w in perms])
        print(f"flag S_{cfg.size}: {name} over {len(perms)} items in {time.perf_counter() - t0:.1f}s")
    items = {
        "".join(map(str, w.one_line)): [x for check in row for x in check]
        for w, row in zip(perms, zip(*columns))
    }
    rows = list(items.values())
    summary = {
        "items": len(rows),
        "schubert_agree": sum(r[0] for r in rows),
        "grothendieck_checked": sum(r[2] is not None for r in rows),
        "grothendieck_agree": sum(r[2] or 0 for r in rows),
        "double_checked": sum(r[4] is not None for r in rows),
        "double_agree": sum(r[4] or 0 for r in rows),
        "whole_double_checked": sum(r[6] is not None for r in rows),
        "whole_double_agree": sum(r[6] or 0 for r in rows),
    }
    return {"family": "flag", "size": cfg.size, "summary": summary, "items": items}


def write_corpus(corpus: dict, path: str) -> None:
    """JSON with one item per line, so that two corpora diff by item."""
    head = json.dumps({k: v for k, v in corpus.items() if k != "items"}, sort_keys=True)
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(corpus["items"].items()))
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "items": {\n' + body + "\n}}\n")


def check(corpus: dict, path) -> int:
    """0 if the corpus at path has exactly these items, else 1 after
    printing the first key that differs."""
    want = json.loads(Path(path).read_text())["items"]
    got = json.loads(json.dumps(corpus["items"]))  # rows as JSON reads them back
    key = next((k for k in sorted(got.keys() | want.keys()) if got.get(k) != want.get(k)), None)
    if key is None:
        print(f"  agrees with {path}: {len(got)} items")
        return 0
    print(f"  differs from {path} first at {key!r}: {got.get(key)} here, {want.get(key)} there")
    return 1


def run(cfg: Config) -> dict:
    if cfg.family == "homology":
        corpus = homology(cfg)
        s = corpus["summary"]
        oracle = "the Betti table" if cfg.size <= BETTI_LIMIT else "the walk"
        for label, n in [("Cohen-Macaulay", s["cm"]), (f"CM agrees with {oracle}", s["cm_agree"]),
                         (f"regularity agrees with {oracle}", s["reg_agree"])]:
            print(f"  {label + ':':<41}{n} of {s['items']}")
        regs = Counter(row[1] for row in corpus["items"].values())
        print(f"  {'regularity histogram:':<41}{dict(sorted(regs.items()))}")
    elif cfg.family == "decomp":
        corpus = decomp(cfg)
        s = corpus["summary"]
        print(f"  components agree with the brute force:   {s['perm_set_agree']} of {s['items']}")
        print(f"  pipe dreams agree with minimal primes:   {s['dreams_agree']} of {s['items']}")
        print(f"  components, distinct components, dreams: {s['components']}, {s['distinct_components']}, {s['dreams']}")
    elif cfg.family == "union":
        corpus = union(cfg)
        s = corpus["summary"]
        print(f"  union_asm agrees with is_asm_ideal:      {s['agree']} of {s['items']}")
        print(f"  unions that are ASM varieties:           {s['unions']} of {s['items']}")
    elif cfg.family == "flag":
        corpus = flag(cfg)
        s = corpus["summary"]
        print(f"  Schubert agrees with Transition:         {s['schubert_agree']} of {s['items']}")
        print(f"  Grothendieck agrees with PipeDream:      {s['grothendieck_agree']} of {s['grothendieck_checked']}")
        print(f"  y-free double Schubert agrees:           {s['double_agree']} of {s['double_checked']}")
        print(f"  double Schubert agrees with pipe dreams: {s['whole_double_agree']} of {s['whole_double_checked']}")
    else:
        corpus = diag_cdg(cfg)
        s = corpus["summary"]
        print(f"  diag_init agrees with Buchberger:        {s['agree']} of {s['items']}")
        print(f"  CDG leads agree, CDG items:              {s['cdg_leads_agree_on_cdg']} of {s['cdg_items']}")
        print(f"  CDG leads differ, non-CDG items:         {s['cdg_leads_differ_on_non_cdg']} of {s['non_cdg_items']}")
    if cfg.out:
        write_corpus(corpus, cfg.out)
    return corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=("diag-cdg", "homology", "flag", "decomp", "union"), default="diag-cdg")
    ap.add_argument("--size", type=int, default=5)
    ap.add_argument("--out", help="write the corpus to this JSON file")
    ap.add_argument("--check", nargs="?", const="", metavar="CORPUS",
                    help="compare with a corpus, by default the committed one; exit 1 if it differs")
    a = ap.parse_args()
    corpus = run(Config(family=a.family, size=a.size, out=a.out))
    if a.check is not None:
        sys.exit(check(corpus, a.check or CORPUS_DIR / f"{a.family}-{a.size}.json"))


if __name__ == "__main__":
    main()
