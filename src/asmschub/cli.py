"""Command-line front end for the library.

Each verb is two words and one row of the table `VERBS`: its help, its
positional arguments by name, its library call, the renderer of its
result and the flags it takes.  Each positional name has one entry in
`ARGS`, its argparse options and its reader, and each value type has
one renderer, which returns the text and the JSON payload.  Some library
functions have no verb, among them `betti_numbers`, `minimal_primes` and
`ideal_contains`.  The verbs:

    perm      diagram | essential | length | descents | avoids | class
    asm       validate | ranktable | from-ranktable | normalize-ranktable
              | complete | enumerate | random
    ideal     fulton | gens | antidiag | diaginit | codim
    poly      schubert | double-schubert | grothendieck | raj | regularity
    pipedream list | render | subword-facets
    decomp    decompose | permset | is-asm | get-asm | add | intersect | is-cm

Permutations are comma-separated one-line words (`2,1,5,4,3`).  A
matrix is a file path or an inline argument, both read by
`matrix_from_text`: rows of space-separated integers, one per line or
joined by `;` (`0 1 0;1 -1 1;0 1 0`).  Inputs that accept both kinds
pick the permutation reading only when the argument has no spaces, no
`;`, and is not an existing file.

Default output follows transcript conventions: boxed matrices, brace
sets for cells, `ideal (...)` generator lists, `true`/`false` booleans.
Polynomials parse back through `poly_from_text`, `monomialIdeal (...)`
through `monomial_ideal_from_text` and rendered pipe dreams through
`pipe_dream_from_text`; the rest is presentation only.  `--json`
switches to a single JSON document with `schema_version` 1 whose fields
are the library's JSON forms: `polynomial` and polynomial `generators`
parse back through `poly_from_json`, monomial `generators` through
`monomial_ideal_from_json`, `asm` and `asms` through `asm_from_json`,
`rank_table` through `rank_table_from_json`, `permutations` through
`perm_from_json` and pipe dreams through `pipe_dream_from_json`.

Every verb takes `--json`; `--budget`, `--seed`, `--force`, `--count`,
`--algorithm`, `--max-lattice`, `--max-faces` and `--stats` are taken
only by the verbs that read them (see each verb's `--help`); the three
guards take a nonnegative integer.  `--count` prints only the length of
the result, and `--stats` reports the work counted by `collect_stats`
(on `poly regularity`, `decomp is-cm`, the three verbs that take
`--budget` and run Buchberger: `ideal gens`, `ideal diaginit` and
`decomp intersect`, and `decomp permset` and `decomp decompose`, whose
row search counts its paths): one `name: count` line each on stderr, or
a `stats` object inside the `--json` document.  The other flags are keywords of
the verb's library call.  Exit code 0 on success, 1 on domain errors
(invalid matrices, budget exhaustion, unrecognized ideals, running out
of memory), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Callable, NamedTuple, Sequence

from . import asm, decomp, groebner, ideal, monomial, perm, pipedream, poly, schubpoly

SCHEMA_VERSION = 1

SCHUBERT_ALGORITHMS = ("DividedDifference", "Transition")


def _box(rows) -> str:
    """Matrix layout with aligned columns inside pipe borders."""
    grid = [[str(v) for v in row] for row in rows]
    widths = [max(len(row[j]) for row in grid) for j in range(len(grid[0]))]
    return "\n".join(
        "| " + " ".join(e.ljust(w) for e, w in zip(row, widths)) + " |"
        for row in grid
    )


def _nonnegative(text: str) -> int:
    """argparse type of the guard flags: a limit below 0 is a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


# ------------------------------------------------------------- readers

def _matrix_from_arg(text: str) -> tuple[tuple[int, ...], ...]:
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    return asm.matrix_from_text(text)


def _asm_from_arg(text: str) -> asm.PartialASM:
    return asm.make_partial_asm(_matrix_from_arg(text))


def _schubertable_from_arg(text: str) -> perm.Permutation | asm.PartialASM:
    if os.path.exists(text) or ";" in text or " " in text.strip():
        return _asm_from_arg(text)
    return perm.perm_from_text(text)


def _schubertables_from_args(texts: Sequence[str]) -> list[perm.Permutation | asm.PartialASM]:
    return [_schubertable_from_arg(t) for t in texts]


# positional name -> (argparse options, reader of the parsed value); argparse
# has already typed n, m, index, cls and variant, so `int` and `str` keep them
ARGS = {
    "perm": ({}, perm.perm_from_text),
    "pattern": ({}, perm.perm_from_text),
    "matrix": ({}, _asm_from_arg),
    "grid": ({"metavar": "matrix"}, _matrix_from_arg),  # a rank table, or any grid
    "input": ({}, _schubertable_from_arg),
    "inputs": ({"nargs": "+"}, _schubertables_from_args),
    "n": ({"type": int}, int),
    "m": ({"type": int}, int),
    "cls": ({"choices": sorted(perm.PERMUTATION_CLASSES)}, str),
    "variant": ({"choices": ideal.DIAG_VARIANTS}, str),
    "index": ({"type": int, "nargs": "?", "default": 0}, int),
}


# ------------------------------------------------------- library calls

def _avoids(w: perm.Permutation, pattern: perm.Permutation) -> bool:
    return not perm.contains_pattern(w, pattern)


def _asm_of_rank_table(grid) -> asm.PartialASM:
    return asm.rank_table_to_asm(asm.RankTable(grid))


def _trimmed_generators(x, budget: int):
    return groebner.minimal_generators(ideal.schubert_determinantal_ideal(x), budget)


def _pipe_dream_at(w: perm.Permutation, index: int):
    ds = pipedream.pipe_dreams(w)
    if not 0 <= index < len(ds):
        raise ValueError(f"index {index} out of range: {len(ds)} pipe dreams")
    return ds[index]


# is-asm and get-asm take --budget but answer by the union test, no basis
def _is_union(xs, budget: int) -> bool:
    return decomp.is_asm_union(xs)


def _union_asm(xs, budget: int) -> asm.PartialASM:
    A = decomp.union_asm(xs)
    if A is None:
        raise ValueError("no ASM attached")
    return A


# ----------------------------------------------------------- renderers

def _cells(cells, a):
    return perm.cells_to_text(cells), {"cells": perm.cells_to_json(cells)}


def _asm(A, a):
    return _box(A.rows), {"asm": asm.asm_to_json(A)}


def _rank_table(T, a):
    return _box(T.values), {"rank_table": asm.rank_table_to_json(T)}


def _generators(gens, a):
    text = "ideal (" + ", ".join(poly.poly_to_text(g) for g in gens) + ")"
    return text, {"generators": [poly.poly_to_json(g) for g in gens]}


def _monomial_ideal(J, a):
    return monomial.monomial_ideal_to_text(J), {"generators": monomial.monomial_ideal_to_json(J)}


def _polynomial(f, a):
    return poly.poly_to_text(f), {"polynomial": poly.poly_to_json(f)}


def _permutations(perms, a):
    inner = ", ".join("{" + ", ".join(str(v) for v in w.one_line) + "}" for w in perms)
    return "{" + inner + "}", {"permutations": [perm.perm_to_json(w) for w in perms]}


def _number(key: str):
    def render(n, a):
        return str(n), {key: n}
    return render


def _truth(key: str):
    def render(b, a):
        return ("true" if b else "false"), {key: b}
    return render


def _descents(d, a):
    return "{" + ",".join(str(i) for i in d) + "}", {"descents": list(d)}


def _membership(member, a):
    return ("true" if member else "false"), {"class": a.cls, "member": member}


def _validity(A, a):
    kind = "asm" if A.is_asm else "partial asm"
    return kind, {"valid": True, "is_asm": A.is_asm, "shape": [A.nrows, A.ncols]}


def _asms(asms, a):
    return "\n\n".join(_box(A.rows) for A in asms), {"asms": [asm.asm_to_json(A) for A in asms]}


def _variant(J, a):
    text, payload = _monomial_ideal(J, a)
    return text, {"variant": a.variant, **payload}


def _pipe_dream_list(ds, a):
    text = "\n".join(perm.cells_to_text(D.crosses) for D in ds)
    return text, {"pipe_dreams": [pipedream.pipe_dream_to_json(D) for D in ds]}


def _rendering(D, a):
    text = pipedream.render_pipe_dream(D)
    return text, {"pipe_dream": pipedream.pipe_dream_to_json(D), "rendering": text}


def _facets(facets, a):
    text = "\n".join("{" + ",".join(map(poly.var_to_text, F)) + "}" for F in facets)
    return text, {"facets": [[[v[1], v[2]] for v in F] for F in facets]}


def _sum(I, a):
    A = decomp.get_asm(I)
    return _box(A.rows), {"asm": asm.asm_to_json(A), "rank_table": asm.rank_table_to_json(asm.rank_table(A))}


def _intersection(I, a):
    text, payload = _generators(I.generators, a)
    return text, {**payload, "ambient": list(I.ambient)}


# --------------------------------------------------------------- verbs

class Verb(NamedTuple):
    help: str
    args: tuple[str, ...]  # names in ARGS, read in order and passed to call
    call: Callable
    render: Callable  # (result, parsed arguments) -> (text, payload)
    flags: tuple = ()  # (flag, argparse options) besides --json


BUDGET = ("--budget", {"type": _nonnegative, "default": groebner.DEFAULT_BUDGET,
                       "help": "pair-reduction budget for basis computations"})
STATS = ("--stats", {"action": "store_true",
                     "help": "report the counted work: on stderr, or as a stats field with --json"})
GUARDS = (
    ("--max-lattice", {"type": _nonnegative, "default": monomial.DEFAULT_LATTICE_LIMIT,
                       "help": "largest lcm lattice walked for Betti numbers"}),
    ("--max-faces", {"type": _nonnegative, "default": monomial.DEFAULT_FACE_LIMIT,
                     "help": "most faces built for one homology computation"}),
    STATS,
)

# group -> (help, verb -> Verb)
VERBS = {
    "perm": ("diagram combinatorics of permutations", {
        "diagram": Verb("Rothe diagram cells", ("perm",), perm.rothe_diagram, _cells),
        "essential": Verb("essential set cells", ("perm",), perm.essential_set, _cells),
        "length": Verb("Coxeter length", ("perm",), perm.coxeter_length, _number("length")),
        "descents": Verb("descent positions", ("perm",), perm.descents, _descents),
        "avoids": Verb("pattern avoidance", ("perm", "pattern"), _avoids, _truth("avoids")),
        "class": Verb("pattern-avoidance class membership", ("perm", "cls"), perm.class_membership, _membership),
    }),
    "asm": ("partial alternating sign matrices", {
        "validate": Verb("check a matrix and classify it", ("grid",), asm.make_partial_asm, _validity),
        "ranktable": Verb("rank table of a matrix", ("matrix",), asm.rank_table, _rank_table),
        "from-ranktable": Verb("matrix of a valid rank table", ("grid",), _asm_of_rank_table, _asm),
        "normalize-ranktable": Verb("greatest valid rank table below a grid", ("grid",), asm.rank_table_from_matrix, _rank_table),
        "complete": Verb("smallest ASM extending a partial one", ("matrix",), asm.complete_asm, _asm),
        "enumerate": Verb("all ASMs of a size", ("n",), asm.enumerate_asms, _asms, (
            ("--count", {"action": "store_true", "help": "print only the count"}),
            ("--force", {"action": "store_true", "help": f"enumerate sizes above the guard ({asm.ENUM_LIMIT}); may take a long time"}),
        )),
        "random": Verb("seeded uniform draws", ("n", "m"), asm.random_asms, _asms, (
            ("--seed", {"type": int, "default": 0, "help": "seed for random draws"}),
        )),
    }),
    "ideal": ("determinantal ideals and initial ideals", {
        "fulton": Verb("defining minors from the essential boxes", ("input",), ideal.fulton_generators, _generators),
        "gens": Verb("trimmed minimal generators", ("input",), _trimmed_generators, _generators, (BUDGET, STATS)),
        "antidiag": Verb("antidiagonal initial ideal", ("input",), ideal.anti_diag_init, _monomial_ideal),
        "diaginit": Verb("diagonal initial ideal", ("input", "variant"), ideal.diag_init, _variant, (BUDGET, STATS)),
        "codim": Verb("codimension", ("input",), ideal.schubert_codim, _number("codim")),
    }),
    "poly": ("Schubert and Grothendieck polynomials", {
        "schubert": Verb("Schubert polynomial", ("perm",), schubpoly.schubert_polynomial, _polynomial, (
            ("--algorithm", {"choices": SCHUBERT_ALGORITHMS, "default": "DividedDifference"}),
        )),
        "double-schubert": Verb("double Schubert polynomial", ("perm",), schubpoly.double_schubert_polynomial, _polynomial),
        "grothendieck": Verb("Grothendieck polynomial", ("perm",), schubpoly.grothendieck_polynomial, _polynomial, (
            ("--algorithm", {"choices": schubpoly.GROTHENDIECK_ALGORITHMS, "default": "DividedDifference"}),
        )),
        "raj": Verb("Rajchgot index", ("perm",), schubpoly.raj_index, _number("raj")),
        "regularity": Verb("Castelnuovo-Mumford regularity of the quotient", ("input",), schubpoly.schubert_regularity, _number("regularity"), GUARDS),
    }),
    "pipedream": ("reduced pipe dreams and subword complexes", {
        "list": Verb("cross sets of all reduced pipe dreams", ("perm",), pipedream.pipe_dreams, _pipe_dream_list),
        "render": Verb("grid picture of one pipe dream", ("perm", "index"), _pipe_dream_at, _rendering),
        "subword-facets": Verb("facets of the subword complex", ("perm",), pipedream.subword_complex_facets, _facets, (
            ("--count", {"action": "store_true", "help": "print only the facet count"}),
        )),
    }),
    "decomp": ("components, sums, intersections, recognition", {
        "decompose": Verb("permutations labeling the components", ("input",), decomp.schubert_decompose, _permutations, (STATS,)),
        "permset": Verb("Bruhat-minimal permutations above an ASM", ("input",), decomp.perm_set_of_asm, _permutations, (STATS,)),
        "is-asm": Verb("is the intersection an ASM ideal", ("inputs",), _is_union, _truth("is_asm"), (BUDGET,)),
        "get-asm": Verb("matrix recognized from an intersection", ("inputs",), _union_asm, _asm, (BUDGET,)),
        "add": Verb("ASM of the ideal sum", ("inputs",), decomp.schubert_add, _sum),
        "intersect": Verb("generators of the ideal intersection", ("inputs",), decomp.schubert_intersect, _intersection, (BUDGET, STATS)),
        "is-cm": Verb("Cohen-Macaulayness of the quotient", ("input",), decomp.is_schubert_cm, _truth("is_cm"), GUARDS),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asmschub", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, verbs) in VERBS.items():
        sub = groups.add_parser(group, help=group_help).add_subparsers(dest="verb", required=True)
        for name, verb in verbs.items():
            p = sub.add_parser(name, help=verb.help)
            p.add_argument("--json", action="store_true", help="emit a schema_version 1 JSON document")
            for flag, options in verb.flags:
                p.add_argument(flag, **options)
            for arg in verb.args:
                p.add_argument(arg, **ARGS[arg][0])
    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    verb = VERBS[args.group][1][args.verb]
    # dispatch reads --json, --stats and --count; the other flags go to the call
    own = {"group", "verb", "json", "stats", "count", *verb.args}
    options = {k: v for k, v in vars(args).items() if k not in own}
    want_stats = getattr(args, "stats", False)
    try:
        with monomial.collect_stats() if want_stats else nullcontext() as stats:
            result = verb.call(*(ARGS[arg][1](getattr(args, arg)) for arg in verb.args), **options)
            if getattr(args, "count", False):
                text, payload = str(len(result)), {"count": len(result)}
            else:
                text, payload = verb.render(result, args)
    except (ValueError, groebner.GroebnerBudgetError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except MemoryError:
        print("out of memory (MemoryError)", file=sys.stderr)
        return 1
    except RecursionError:
        print("recursion too deep (RecursionError)", file=sys.stderr)
        return 1
    if want_stats:
        if args.json:
            payload = {**payload, "stats": stats}
        else:
            print("\n".join(f"{name}: {n}" for name, n in stats.items()), file=sys.stderr)
    if args.json:
        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}))
    else:
        print(text)
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
