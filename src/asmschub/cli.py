"""Command-line front end for the library.

Each verb is two words.  Some library functions have no verb, among
them `betti_numbers`, `minimal_primes` and `ideal_contains`.  The verbs:

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
`--max-lattice`, `--max-faces` and `--stats` are taken only by the verbs
that read them (see each verb's `--help`); the three guards take a
nonnegative integer.  `--stats` reports the
homology and Groebner work counted by `collect_stats`: one `name: count`
line each on stderr, or a `stats` object inside the `--json` document.
Exit code 0 on success, 1 on domain errors (invalid matrices, budget
exhaustion, unrecognized ideals), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Sequence

from .asm import (
    ENUM_LIMIT,
    PartialASM,
    RankTable,
    asm_to_json,
    complete_asm,
    enumerate_asms,
    make_partial_asm,
    matrix_from_text,
    random_asms,
    rank_table,
    rank_table_from_matrix,
    rank_table_to_asm,
    rank_table_to_json,
)
from .decomp import (
    get_asm,
    is_asm_union,
    is_schubert_cm,
    perm_set_of_asm,
    schubert_add,
    schubert_decompose,
    schubert_intersect,
    union_asm,
)
from .groebner import DEFAULT_BUDGET, GroebnerBudgetError, minimal_generators
from .ideal import (
    DIAG_VARIANTS,
    anti_diag_init,
    diag_init,
    fulton_generators,
    schubert_codim,
    schubert_determinantal_ideal,
)
from .monomial import (
    DEFAULT_FACE_LIMIT,
    DEFAULT_LATTICE_LIMIT,
    collect_stats,
    monomial_ideal_to_json,
    monomial_ideal_to_text,
)
from .perm import (
    PERMUTATION_CLASSES,
    Permutation,
    cells_to_json,
    cells_to_text,
    class_membership,
    contains_pattern,
    coxeter_length,
    descents,
    essential_set,
    perm_from_text,
    perm_to_json,
    rothe_diagram,
)
from .pipedream import (
    pipe_dream_to_json,
    pipe_dreams,
    render_pipe_dream,
    subword_complex_facets,
)
from .poly import poly_to_json, poly_to_text, var_to_text
from .schubpoly import (
    GROTHENDIECK_ALGORITHMS,
    double_schubert_polynomial,
    grothendieck_polynomial,
    raj_index,
    schubert_polynomial,
    schubert_regularity,
)

SCHEMA_VERSION = 1

SCHUBERT_ALGORITHMS = ("DividedDifference", "Transition")


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _box(rows) -> str:
    """Matrix layout with aligned columns inside pipe borders."""
    grid = [[str(v) for v in row] for row in rows]
    widths = [max(len(row[j]) for row in grid) for j in range(len(grid[0]))]
    return "\n".join(
        "| " + " ".join(e.ljust(w) for e, w in zip(row, widths)) + " |"
        for row in grid
    )


def _ideal_text(gens) -> str:
    return "ideal (" + ", ".join(poly_to_text(g) for g in gens) + ")"


def _perm_list_text(perms) -> str:
    inner = ", ".join("{" + ", ".join(str(v) for v in w.one_line) + "}" for w in perms)
    return "{" + inner + "}"


def _matrix_from_arg(text: str) -> tuple[tuple[int, ...], ...]:
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    return matrix_from_text(text)


def _nonnegative(text: str) -> int:
    """argparse type of the guard flags: a limit below 0 is a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def _schubertable_from_arg(text: str) -> Permutation | PartialASM:
    if os.path.exists(text) or ";" in text or " " in text.strip():
        return make_partial_asm(_matrix_from_arg(text))
    return perm_from_text(text)


# ---------------------------------------------------------------- perm

def _perm_diagram(a):
    cells = rothe_diagram(perm_from_text(a.perm))
    return cells_to_text(cells), {"cells": cells_to_json(cells)}


def _perm_essential(a):
    cells = essential_set(perm_from_text(a.perm))
    return cells_to_text(cells), {"cells": cells_to_json(cells)}


def _perm_length(a):
    n = coxeter_length(perm_from_text(a.perm))
    return str(n), {"length": n}


def _perm_descents(a):
    d = descents(perm_from_text(a.perm))
    return "{" + ",".join(str(i) for i in d) + "}", {"descents": list(d)}


def _perm_avoids(a):
    b = not contains_pattern(perm_from_text(a.perm), perm_from_text(a.pattern))
    return _bool_text(b), {"avoids": b}


def _perm_class(a):
    member = class_membership(perm_from_text(a.perm), a.cls)
    return _bool_text(member), {"class": a.cls, "member": member}


# ----------------------------------------------------------------- asm

def _asm_validate(a):
    A = make_partial_asm(_matrix_from_arg(a.matrix))
    kind = "asm" if A.is_asm else "partial asm"
    return kind, {"valid": True, "is_asm": A.is_asm, "shape": [A.nrows, A.ncols]}


def _asm_ranktable(a):
    T = rank_table(make_partial_asm(_matrix_from_arg(a.matrix)))
    return _box(T.values), {"rank_table": rank_table_to_json(T)}


def _asm_from_ranktable(a):
    A = rank_table_to_asm(RankTable(_matrix_from_arg(a.matrix)))
    return _box(A.rows), {"asm": asm_to_json(A)}


def _asm_normalize_ranktable(a):
    T = rank_table_from_matrix(_matrix_from_arg(a.matrix))
    return _box(T.values), {"rank_table": rank_table_to_json(T)}


def _asm_complete(a):
    A = complete_asm(make_partial_asm(_matrix_from_arg(a.matrix)))
    return _box(A.rows), {"asm": asm_to_json(A)}


def _render_asm_list(asms, count_only: bool):
    if count_only:
        return str(len(asms)), {"count": len(asms)}
    text = "\n\n".join(_box(A.rows) for A in asms)
    return text, {"asms": [asm_to_json(A) for A in asms]}


def _asm_enumerate(a):
    mats = enumerate_asms(a.n, force=a.force)
    return _render_asm_list(mats, a.count)


def _asm_random(a):
    return _render_asm_list(random_asms(a.n, a.m, seed=a.seed), False)


# --------------------------------------------------------------- ideal

def _ideal_fulton(a):
    gens = fulton_generators(_schubertable_from_arg(a.input))
    return _ideal_text(gens), {"generators": [poly_to_json(g) for g in gens]}


def _ideal_gens(a):
    I = schubert_determinantal_ideal(_schubertable_from_arg(a.input))
    gens = minimal_generators(I, a.budget)
    return _ideal_text(gens), {"generators": [poly_to_json(g) for g in gens]}


def _ideal_antidiag(a):
    J = anti_diag_init(_schubertable_from_arg(a.input))
    return monomial_ideal_to_text(J), {"generators": monomial_ideal_to_json(J)}


def _ideal_diaginit(a):
    J = diag_init(_schubertable_from_arg(a.input), a.variant, a.budget)
    return monomial_ideal_to_text(J), {
        "variant": a.variant,
        "generators": monomial_ideal_to_json(J),
    }


def _ideal_codim(a):
    c = schubert_codim(_schubertable_from_arg(a.input))
    return str(c), {"codim": c}


# ---------------------------------------------------------------- poly

def _poly_schubert(a):
    f = schubert_polynomial(perm_from_text(a.perm), algorithm=a.algorithm)
    return poly_to_text(f), {"polynomial": poly_to_json(f)}


def _poly_double_schubert(a):
    f = double_schubert_polynomial(perm_from_text(a.perm))
    return poly_to_text(f), {"polynomial": poly_to_json(f)}


def _poly_grothendieck(a):
    f = grothendieck_polynomial(perm_from_text(a.perm), algorithm=a.algorithm)
    return poly_to_text(f), {"polynomial": poly_to_json(f)}


def _poly_raj(a):
    r = raj_index(perm_from_text(a.perm))
    return str(r), {"raj": r}


def _poly_regularity(a):
    r = schubert_regularity(
        _schubertable_from_arg(a.input), max_lattice=a.max_lattice, max_faces=a.max_faces
    )
    return str(r), {"regularity": r}


# ----------------------------------------------------------- pipedream

def _pipedream_list(a):
    ds = pipe_dreams(perm_from_text(a.perm))
    text = "\n".join(cells_to_text(D.crosses) for D in ds)
    return text, {"pipe_dreams": [pipe_dream_to_json(D) for D in ds]}


def _pipedream_render(a):
    ds = pipe_dreams(perm_from_text(a.perm))
    if not 0 <= a.index < len(ds):
        raise ValueError(f"index {a.index} out of range: {len(ds)} pipe dreams")
    D = ds[a.index]
    return render_pipe_dream(D), {
        "pipe_dream": pipe_dream_to_json(D),
        "rendering": render_pipe_dream(D),
    }


def _pipedream_facets(a):
    facets = subword_complex_facets(perm_from_text(a.perm))
    if a.count:
        return str(len(facets)), {"count": len(facets)}
    text = "\n".join("{" + ",".join(map(var_to_text, F)) + "}" for F in facets)
    return text, {"facets": [[[v[1], v[2]] for v in F] for F in facets]}


# -------------------------------------------------------------- decomp

def _decomp_decompose(a):
    perms = schubert_decompose(_schubertable_from_arg(a.input))
    return _perm_list_text(perms), {"permutations": [perm_to_json(w) for w in perms]}


def _decomp_permset(a):
    perms = perm_set_of_asm(_schubertable_from_arg(a.input))
    return _perm_list_text(perms), {"permutations": [perm_to_json(w) for w in perms]}


# is-asm and get-asm take --budget but answer by the union test, no basis
def _decomp_is_asm(a):
    b = is_asm_union([_schubertable_from_arg(t) for t in a.inputs])
    return _bool_text(b), {"is_asm": b}


def _decomp_get_asm(a):
    A = union_asm([_schubertable_from_arg(t) for t in a.inputs])
    if A is None:
        raise ValueError("no ASM attached")
    return _box(A.rows), {"asm": asm_to_json(A)}


def _decomp_add(a):
    I = schubert_add([_schubertable_from_arg(t) for t in a.inputs])
    A = get_asm(I)
    return _box(A.rows), {
        "asm": asm_to_json(A),
        "rank_table": rank_table_to_json(rank_table(A)),
    }


def _decomp_intersect(a):
    I = schubert_intersect([_schubertable_from_arg(t) for t in a.inputs], a.budget)
    return _ideal_text(I.generators), {
        "generators": [poly_to_json(g) for g in I.generators],
        "ambient": list(I.ambient),
    }


def _decomp_is_cm(a):
    b = is_schubert_cm(
        _schubertable_from_arg(a.input), max_lattice=a.max_lattice, max_faces=a.max_faces
    )
    return _bool_text(b), {"is_cm": b}


# ------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asmschub", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)

    def leaf(sub, name: str, handler, help_: str, budget: bool = False, guards: bool = False, stats: bool = False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a schema_version 1 JSON document")
        if budget:
            p.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET, help="pair-reduction budget for basis computations")
        if guards:
            p.add_argument("--max-lattice", type=_nonnegative, default=DEFAULT_LATTICE_LIMIT, help="largest lcm lattice walked for Betti numbers")
            p.add_argument("--max-faces", type=_nonnegative, default=DEFAULT_FACE_LIMIT, help="most faces built for one homology computation")
        if guards or stats:
            p.add_argument("--stats", action="store_true", help="report the homology and Groebner work: on stderr, or as a stats field with --json")
        return p

    perm = groups.add_parser("perm", help="diagram combinatorics of permutations").add_subparsers(dest="verb", required=True)
    leaf(perm, "diagram", _perm_diagram, "Rothe diagram cells").add_argument("perm")
    leaf(perm, "essential", _perm_essential, "essential set cells").add_argument("perm")
    leaf(perm, "length", _perm_length, "Coxeter length").add_argument("perm")
    leaf(perm, "descents", _perm_descents, "descent positions").add_argument("perm")
    p = leaf(perm, "avoids", _perm_avoids, "pattern avoidance")
    p.add_argument("perm")
    p.add_argument("pattern")
    p = leaf(perm, "class", _perm_class, "pattern-avoidance class membership")
    p.add_argument("perm")
    p.add_argument("cls", choices=sorted(PERMUTATION_CLASSES))

    asm = groups.add_parser("asm", help="partial alternating sign matrices").add_subparsers(dest="verb", required=True)
    leaf(asm, "validate", _asm_validate, "check a matrix and classify it").add_argument("matrix")
    leaf(asm, "ranktable", _asm_ranktable, "rank table of a matrix").add_argument("matrix")
    leaf(asm, "from-ranktable", _asm_from_ranktable, "matrix of a valid rank table").add_argument("matrix")
    leaf(asm, "normalize-ranktable", _asm_normalize_ranktable, "greatest valid rank table below a grid").add_argument("matrix")
    leaf(asm, "complete", _asm_complete, "smallest ASM extending a partial one").add_argument("matrix")
    p = leaf(asm, "enumerate", _asm_enumerate, "all ASMs of a size")
    p.add_argument("n", type=int)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument(
        "--force",
        action="store_true",
        help=f"enumerate sizes above the guard ({ENUM_LIMIT}); may take a long time",
    )
    p = leaf(asm, "random", _asm_random, "seeded uniform draws")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed for random draws")

    ideal = groups.add_parser("ideal", help="determinantal ideals and initial ideals").add_subparsers(dest="verb", required=True)
    leaf(ideal, "fulton", _ideal_fulton, "defining minors from the essential boxes").add_argument("input")
    leaf(ideal, "gens", _ideal_gens, "trimmed minimal generators", budget=True).add_argument("input")
    leaf(ideal, "antidiag", _ideal_antidiag, "antidiagonal initial ideal").add_argument("input")
    p = leaf(ideal, "diaginit", _ideal_diaginit, "diagonal initial ideal", budget=True, stats=True)
    p.add_argument("input")
    p.add_argument("variant", choices=DIAG_VARIANTS)
    leaf(ideal, "codim", _ideal_codim, "codimension").add_argument("input")

    poly = groups.add_parser("poly", help="Schubert and Grothendieck polynomials").add_subparsers(dest="verb", required=True)
    p = leaf(poly, "schubert", _poly_schubert, "Schubert polynomial")
    p.add_argument("perm")
    p.add_argument("--algorithm", choices=SCHUBERT_ALGORITHMS, default="DividedDifference")
    leaf(poly, "double-schubert", _poly_double_schubert, "double Schubert polynomial").add_argument("perm")
    p = leaf(poly, "grothendieck", _poly_grothendieck, "Grothendieck polynomial")
    p.add_argument("perm")
    p.add_argument("--algorithm", choices=GROTHENDIECK_ALGORITHMS, default="DividedDifference")
    leaf(poly, "raj", _poly_raj, "Rajchgot index").add_argument("perm")
    leaf(poly, "regularity", _poly_regularity, "Castelnuovo-Mumford regularity of the quotient", guards=True).add_argument("input")

    pd = groups.add_parser("pipedream", help="reduced pipe dreams and subword complexes").add_subparsers(dest="verb", required=True)
    leaf(pd, "list", _pipedream_list, "cross sets of all reduced pipe dreams").add_argument("perm")
    p = leaf(pd, "render", _pipedream_render, "grid picture of one pipe dream")
    p.add_argument("perm")
    p.add_argument("index", type=int, nargs="?", default=0)
    p = leaf(pd, "subword-facets", _pipedream_facets, "facets of the subword complex")
    p.add_argument("perm")
    p.add_argument("--count", action="store_true", help="print only the facet count")

    dec = groups.add_parser("decomp", help="components, sums, intersections, recognition").add_subparsers(dest="verb", required=True)
    leaf(dec, "decompose", _decomp_decompose, "permutations labeling the components").add_argument("input")
    leaf(dec, "permset", _decomp_permset, "Bruhat-minimal permutations above an ASM").add_argument("input")
    leaf(dec, "is-asm", _decomp_is_asm, "is the intersection an ASM ideal", budget=True).add_argument("inputs", nargs="+")
    leaf(dec, "get-asm", _decomp_get_asm, "matrix recognized from an intersection", budget=True).add_argument("inputs", nargs="+")
    leaf(dec, "add", _decomp_add, "ASM of the ideal sum").add_argument("inputs", nargs="+")
    leaf(dec, "intersect", _decomp_intersect, "generators of the ideal intersection", budget=True).add_argument("inputs", nargs="+")
    leaf(dec, "is-cm", _decomp_is_cm, "Cohen-Macaulayness of the quotient", guards=True).add_argument("input")

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    want_stats = getattr(args, "stats", False)
    try:
        with collect_stats() if want_stats else nullcontext() as stats:
            text, payload = args.handler(args)
    except (ValueError, GroebnerBudgetError) as exc:
        print(str(exc), file=sys.stderr)
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
