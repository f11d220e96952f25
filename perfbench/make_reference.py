"""Regenerate the reference tables that the benchmark checks answers against.

Run from the repository root; the tables are written under
``perfbench/reference``.  Each table covers a workload's whole
population, so any seeded sample can be checked:

    python3 perfbench/make_reference.py                 # all tables
    python3 perfbench/make_reference.py cm_sweep        # one table

The tables freeze the library's answers at the time they are made, so
regenerate them only after an answer is shown to be wrong.  The CM table
must reproduce the 208 / 101 split of the 309 non-permutation 5x5 ASMs.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import REFERENCE_DIR, WORKLOADS, canonical_ideal  # noqa: E402

CM_SPLIT = (208, 101)


def lcm_lattice_size(J) -> int:
    """Number of distinct non-empty unions of generator supports."""
    from asmschub.poly import mono_support

    supports = {frozenset(mono_support(m)) for m in J.generators}
    lattice: set[frozenset] = set()
    frontier = set(supports)
    while frontier:
        lattice |= frontier
        frontier = {s | g for s in frontier for g in supports} - lattice
    return len(lattice)


def cm_table() -> dict:
    from asmschub import anti_diag_init

    wl = WORKLOADS["cm_sweep"]
    table = {}
    for key, A in wl.population(None):
        cm, reg = wl.run_item(A)
        table[key] = [cm, reg, lcm_lattice_size(anti_diag_init(A))]
    split = (sum(v[0] for v in table.values()), sum(not v[0] for v in table.values()))
    if split != CM_SPLIT:
        raise SystemExit(f"CM split {split} differs from {CM_SPLIT}")
    return table


def decomp_table() -> dict:
    from asmschub import perm_set_of_asm

    wl = WORKLOADS["decomp_sweep"]
    return {
        key: ["".join(map(str, w.one_line)) for w in perm_set_of_asm(A)]
        for key, A in wl.population(None)
    }


def groebner_table() -> dict:
    """Initial ideal, total degree of its generators, largest degree."""
    from asmschub.poly import mono_degree

    wl = WORKLOADS["groebner_diag"]
    table = {}
    for key, arg in wl.population(None):
        J = wl.run_item(arg)
        degrees = [mono_degree(m) for m in J.generators]
        table[key] = [canonical_ideal(J), sum(degrees), max(degrees, default=0)]
    return table


def flag_table() -> dict:
    """Term counts of the double Schubert and Grothendieck polynomials;
    the polynomials themselves are checked against independent routes."""
    wl = WORKLOADS["flag_polys"]
    table = {}
    for key, w in wl.population(None):
        double, groth = wl.run_item(w)
        table[key] = [len(double.terms), len(groth.terms)]
    return table


TABLES = {
    "cm_sweep": cm_table,
    "decomp_sweep": decomp_table,
    "groebner_diag": groebner_table,
    "flag_polys": flag_table,
}


def main(names: list[str]) -> None:
    for name in names or list(TABLES):
        table = TABLES[name]()
        path = os.path.join(REFERENCE_DIR, WORKLOADS[name].reference_file)
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        # one entry per line, so a changed answer shows as a one-line diff
        lines = (f"{json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table))
        text = "{\n" + ",\n".join(lines) + "\n}\n"
        if path.endswith(".gz"):
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(text.encode())
        else:
            with open(path, "w") as fh:
                fh.write(text)
        print(f"{name}: {len(table)} entries -> {os.path.relpath(path)}")


if __name__ == "__main__":
    main(sys.argv[1:])
