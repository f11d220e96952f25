"""Tests for the command-line front end.

A golden corpus under tests/golden/ freezes the text and the JSON
output of one invocation per transcript-style listing; the files are
compared byte-for-byte.  Regenerate after an intentional output change with

    python3 tests/test_cli.py --record

The remaining tests cover the JSON schema round-trips, the exit-code
contract (0 success, 1 domain error, 2 usage error), and README's verb
and flag tables against the parser.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import string
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmschub import cli, decomp, groebner, schubpoly
from asmschub.asm import (
    asm_from_json,
    asm_to_json,
    complete_asm,
    make_partial_asm,
    rank_table,
    rank_table_from_json,
)
from asmschub.cli import _box, _build_parser, _schubertable_from_arg, dispatch
from asmschub.decomp import get_asm, is_asm_ideal, perm_set_of_asm, schubert_intersect
from asmschub.ideal import anti_diag_init
from asmschub.monomial import monomial_ideal_from_text
from asmschub.perm import Permutation, perm_from_json, rothe_diagram
from asmschub.poly import poly_from_json, poly_from_text
from asmschub.schubpoly import schubert_polynomial
from oracles import walks

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"

SPLIT = "0 1 0;1 -1 1;0 1 0"
BULGE = "0 0 1 0 0;0 0 0 1 0;1 0 -1 0 1;0 1 0 0 0;0 0 1 0 0"
MEET = "0 0 1 0;0 1 0 0;1 -1 0 1;0 1 0 0"

CORPUS: list[tuple[str, list[str]]] = [
    ("perm-diagram-21543", ["perm", "diagram", "2,1,5,4,3"]),
    ("perm-essential-21543", ["perm", "essential", "2,1,5,4,3"]),
    ("perm-length-21543", ["perm", "length", "2,1,5,4,3"]),
    ("ideal-fulton-3142", ["ideal", "fulton", "3,1,4,2"]),
    ("ideal-antidiag-4x4", ["ideal", "antidiag", "0 0 1 0;1 0 -1 1;0 0 1 0;0 1 0 0"]),
    ("asm-ranktable-2x3", ["asm", "ranktable", "0 1 0;1 -1 0"]),
    ("asm-from-ranktable-3x3", ["asm", "from-ranktable", "0 1 1;0 1 1;1 2 2"]),
    ("asm-normalize-ranktable-3x3", ["asm", "normalize-ranktable", "0 1 2;0 4 1;8 2 4"]),
    ("decomp-add-rectangular", ["decomp", "add", "0 1 0;1 -1 0", "1 0 0;0 0 1"]),
    ("perm-class-vexillary-false", ["perm", "class", "7,2,5,8,1,3,6,4", "vexillary"]),
    ("perm-class-vexillary-true", ["perm", "class", "1,6,9,2,4,7,3,5,8", "vexillary"]),
    ("perm-class-cdg-false", ["perm", "class", "5,7,2,1,6,4,3", "cdg"]),
    ("perm-class-cdg-true", ["perm", "class", "1,3,5,7,2,4,6", "cdg"]),
    ("perm-class-cs-false", ["perm", "class", "3,1,2,6,5,4", "cartwright-sturmfels"]),
    ("perm-class-cs-true", ["perm", "class", "6,3,5,2,1,4", "cartwright-sturmfels"]),
    ("poly-regularity-long", ["poly", "regularity", "1,2,3,9,8,4,5,6,7"]),
    ("poly-schubert-2143", ["poly", "schubert", "2,1,4,3"]),
    ("poly-double-schubert-2143", ["poly", "double-schubert", "2,1,4,3"]),
    ("poly-grothendieck-2143", ["poly", "grothendieck", "2,1,4,3"]),
    ("decomp-permset-split", ["decomp", "permset", SPLIT]),
    ("decomp-decompose-split", ["decomp", "decompose", SPLIT]),
    ("decomp-get-asm-3412-3241", ["decomp", "get-asm", "3,4,1,2", "3,2,4,1"]),
    ("decomp-is-cm-meet", ["decomp", "is-cm", MEET]),
    ("ideal-gens-bulge", ["ideal", "gens", BULGE]),
    ("decomp-is-cm-bulge", ["decomp", "is-cm", BULGE]),
    ("pipedream-facets-2143", ["pipedream", "subword-facets", "2,1,4,3"]),
    ("pipedream-facet-count-216354", ["pipedream", "subword-facets", "2,1,6,3,5,4", "--count"]),
    ("pipedream-list-214365", ["pipedream", "list", "2,1,4,3,6,5"]),
    ("pipedream-render-214365", ["pipedream", "render", "2,1,4,3,6,5"]),
    ("ideal-diaginit-lexse", ["ideal", "diaginit", "2,1,4,3,6,5", "LexSE"]),
    ("ideal-diaginit-lexnw", ["ideal", "diaginit", "2,1,4,3,6,5", "LexNW"]),
    ("ideal-diaginit-revlex", ["ideal", "diaginit", "2,1,4,3,6,5", "RevLex"]),
    ("asm-count-5", ["asm", "enumerate", "5", "--count"]),
    ("asm-complete-cancelling", ["asm", "complete", "0 1;1 -1"]),
    ("decomp-get-asm-21-partial", ["decomp", "get-asm", "2,1", "0 1 0;1 -1 0"]),
]


def run(argv) -> tuple[int, str, str]:
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(argv)
    return rc, out.getvalue(), err.getvalue()


# every corpus argv is frozen twice: <name>.txt in text mode, <name>.json with --json
GOLDEN = [
    (name + suffix, argv + flags)
    for name, argv in CORPUS
    for suffix, flags in ((".txt", []), (".json", ["--json"]))
]


@pytest.mark.parametrize("golden,argv", GOLDEN, ids=[g.removesuffix(".txt") for g, _ in GOLDEN])
def test_golden(golden, argv):
    rc, out, err = run(argv)
    assert rc == 0, err
    assert out == (GOLDEN_DIR / golden).read_text()


@pytest.mark.parametrize(
    "arg,value",
    [
        ("0 0 1 0;1 0 -1 1;0 0 1 0;0 1 0 0", [[0, 0, 1, 0], [1, 0, -1, 1], [0, 0, 1, 0], [0, 1, 0, 0]]),
        ("1,2,3", Permutation((1, 2, 3))),
    ],
)
def test_antidiag_text_parses_back(arg, value):
    J = anti_diag_init(value)
    rc, out, _ = run(["ideal", "antidiag", arg])
    assert rc == 0
    assert monomial_ideal_from_text(out, J.variables) == J


class TestSpotValues:
    def test_essential_set_layout(self):
        assert run(["perm", "essential", "2,1,5,4,3"])[1] == "{(1,1),(3,4),(4,3)}\n"

    def test_regularity_value(self):
        assert run(["poly", "regularity", "1,2,3,9,8,4,5,6,7"])[1] == "6\n"

    def test_enumeration_count(self):
        assert run(["asm", "enumerate", "5", "--count"])[1] == "429\n"

    def test_descents(self):
        assert run(["perm", "descents", "2,1,5,4,3"])[1] == "{1,3,4}\n"

    def test_avoids(self):
        assert run(["perm", "avoids", "1,2,3", "2,1"])[1] == "true\n"
        assert run(["perm", "avoids", "2,1,4,3", "2,1,4,3"])[1] == "false\n"

    def test_validate_classifies(self):
        assert run(["asm", "validate", "0 1 0;1 -1 0"])[1] == "partial asm\n"
        assert run(["asm", "validate", "0 1;1 0"])[1] == "asm\n"

    def test_matrix_from_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 1 0\n1 -1 0\n")
        assert run(["asm", "ranktable", str(path)]) == run(["asm", "ranktable", "0 1 0;1 -1 0"])

    def test_random_is_seed_deterministic(self):
        first = run(["asm", "random", "3", "4", "--seed", "7"])
        assert first == run(["asm", "random", "3", "4", "--seed", "7"])
        assert first[0] == 0
        assert run(["asm", "random", "3", "2", "--count"])[0] == 2


class TestJsonSchemas:
    def payload(self, argv) -> dict:
        rc, out, _ = run(argv + ["--json"])
        assert rc == 0
        data = json.loads(out)
        assert data.pop("schema_version") == 1
        return data

    def test_cells_round_trip(self):
        data = self.payload(["perm", "diagram", "2,1,5,4,3"])
        cells = tuple(tuple(c) for c in data["cells"])
        assert cells == rothe_diagram(Permutation((2, 1, 5, 4, 3)))

    def test_polynomial_round_trip(self):
        data = self.payload(["poly", "schubert", "2,1,4,3"])
        f = poly_from_json(data["polynomial"])
        assert f == schubert_polynomial(Permutation((2, 1, 4, 3)))

    def test_asm_round_trip(self):
        data = self.payload(["asm", "complete", "0 1 0;1 -1 0"])
        A = asm_from_json(data["asm"])
        assert A == complete_asm(make_partial_asm([[0, 1, 0], [1, -1, 0]]))

    def test_rank_table_round_trip(self):
        data = self.payload(["asm", "ranktable", "0 1 0;1 -1 1;0 1 0"])
        T = rank_table_from_json(data["rank_table"])
        assert T == rank_table(make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))

    def test_permutation_list_round_trip(self):
        data = self.payload(["decomp", "permset", SPLIT])
        perms = tuple(perm_from_json(w) for w in data["permutations"])
        assert perms == perm_set_of_asm(make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))

    def test_monomial_generators_parse_back(self):
        data = self.payload(["ideal", "antidiag", SPLIT])
        J = anti_diag_init(make_partial_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))
        parsed = tuple(poly_from_text(g).terms[0][0] for g in data["generators"])
        assert parsed == J.generators

    def test_boolean_payloads(self):
        assert self.payload(["decomp", "is-asm", "3,4,1,2", "3,2,4,1"]) == {"is_asm": True}
        assert self.payload(["perm", "class", "2,1,4,3", "vexillary"]) == {
            "class": "vexillary",
            "member": False,
        }

    def test_sum_payload_has_both_tables(self):
        data = self.payload(["decomp", "add", "0 1 0;1 -1 0", "1 0 0;0 0 1"])
        assert data["asm"] == [[0, 1, 0, 0], [1, -1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
        assert data["rank_table"][3] == [1, 2, 3, 4]


class TestExitCodes:
    def test_usage_errors(self):
        assert run([])[0] == 2
        assert run(["nope"])[0] == 2
        assert run(["perm"])[0] == 2
        assert run(["perm", "diagram"])[0] == 2
        assert run(["perm", "class", "2,1", "bogus"])[0] == 2
        assert run(["ideal", "diaginit", "2,1", "Lex"])[0] == 2

    def test_help_exits_zero(self):
        assert run(["--help"])[0] == 0
        assert run(["perm", "--help"])[0] == 0

    def test_domain_errors(self):
        rc, _, err = run(["perm", "length", "2,0"])
        assert rc == 1 and "entry out of range" in err
        assert run(["perm", "length", "abc"])[0] == 1
        assert run(["asm", "validate", "0 1;1 1"])[0] == 1
        assert run(["asm", "from-ranktable", "0 9;1 1"])[0] == 1
        assert run(["pipedream", "render", "2,1,4,3", "5"])[0] == 1
        assert run(["asm", "enumerate", "9"])[0] == 1
        rc, out, err = run(["asm", "random", "3", "-5"])
        assert rc == 1 and out == "" and "count m = -5" in err
        rc, _, err = run(["asm", "validate", "0 x;1 0"])
        assert rc == 1 and "separated by newlines or by ';'" in err

    # each flag is on the verbs that read it and a usage error elsewhere
    @pytest.mark.parametrize(
        "flag,reads,ignores",
        [
            (["--budget", "500"], ["ideal", "gens", "2,1,3"], ["decomp", "is-cm", "2,1,3"]),
            (["--seed", "9"], ["asm", "random", "3", "2"], ["asm", "enumerate", "3"]),
            # no reading verb: --data-dir is refused everywhere
            (["--data-dir", "no-such-dir"], [], ["asm", "enumerate", "3"]),
            (["--budget", "500"], [], ["decomp", "permset", "2,1,3"]),
            (["--max-lattice", "100"], ["poly", "regularity", "0 1 0;1 -1 1;0 1 0"], ["ideal", "codim", "2,1,3"]),
            (["--max-faces", "100"], ["decomp", "is-cm", "0 1 0;1 -1 1;0 1 0"], ["poly", "raj", "2,1,3"]),
            (["--stats"], ["ideal", "gens", "2,1,3"], ["ideal", "antidiag", "2,1,3"]),
            (["--stats"], ["decomp", "intersect", "2,1,3", "1,3,2"], ["decomp", "add", "2,1,3", "1,3,2"]),
            (["--stats"], ["decomp", "permset", SPLIT], ["decomp", "is-asm", "2,1,3"]),
            (["--stats"], ["decomp", "decompose", SPLIT], ["decomp", "get-asm", "2,1,3"]),
        ],
    )
    def test_flags_per_verb(self, flag, reads, ignores):
        if reads:
            assert run(reads + flag)[0] == 0
        assert run(ignores + flag)[0] == 2

    def test_enumerate_force_flag(self):
        rc, out, _ = run(["asm", "enumerate", "3", "--count", "--force"])
        assert rc == 0 and out == "7\n"
        rc, _, err = run(["asm", "enumerate", "9", "--count"])
        assert rc == 1 and "guard" in err

    def test_pipe_dream_route_guard(self):
        argv = ["poly", "grothendieck", "1,2,3,4,5,6,8,7"]
        assert run(argv + ["--algorithm", "PipeDream"]) == run(argv)
        rc, out, err = run(["poly", "grothendieck", "1,2,3,4,5,6,7,8,9", "--algorithm", "PipeDream"])
        assert (rc, out, err) == (1, "", "pipe dream formula is limited to n <= 8\n")

    def test_unrecognized_intersection(self):
        rc, _, err = run(["decomp", "get-asm", "1,2,4,3", "1,3,2,4"])
        assert rc == 1 and "no ASM attached" in err

    # is-asm and get-asm answer by the union test: the same output as the
    # elimination route, computed first, with every Buchberger run refused
    @pytest.mark.parametrize(
        "inputs",
        [
            ["3,4,1,2", "3,2,4,1"],
            ["1,2,4,3", "1,3,2,4"],
            [SPLIT, "2,1"],
            ["0 0 0;0 1 0;0 0 0", "3,1,2"],
            ["0 1 0;1 -1 0", "2,3,1"],
            ["0 1 0 0;1 -1 0 1;0 1 0 0"],
        ],
    )
    def test_union_verbs_run_no_buchberger(self, inputs, monkeypatch):
        I = schubert_intersect([_schubertable_from_arg(t) for t in inputs])
        A = get_asm(I) if is_asm_ideal(I) else None

        def refuse(*args, **kwargs):
            raise AssertionError("Buchberger run")

        monkeypatch.setattr(groebner, "buchberger", refuse)
        want = "true\n" if A else "false\n"
        assert run(["decomp", "is-asm", *inputs, "--budget", "0"]) == (0, want, "")
        assert json.loads(run(["decomp", "is-asm", *inputs, "--json"])[1]) == {"schema_version": 1, "is_asm": A is not None}
        got = run(["decomp", "get-asm", *inputs, "--budget", "0"])
        assert got == ((0, _box(A.rows) + "\n", "") if A else (1, "", "no ASM attached\n"))
        if A:
            assert json.loads(run(["decomp", "get-asm", *inputs, "--json"])[1])["asm"] == asm_to_json(A)

    # a tripped lattice or face guard is a domain error that names the guard
    @pytest.mark.parametrize("verb", [["poly", "regularity"], ["decomp", "is-cm"]])
    @pytest.mark.parametrize(
        "flag,message",
        [
            (["--max-lattice", "1"], "lcm lattice exceeds the size guard: 2 lcms against max_lattice = 1"),
            (["--max-faces", "1"], "simplicial complex too large after collapses: 2 faces against max_faces = 1"),
        ],
    )
    def test_guard_overrides(self, verb, flag, message):
        # unmixed, not Cohen-Macaulay and so without a vertex decomposition: it walks
        A = "0 0 0 1 0 0;0 0 0 0 1 0;1 0 0 -1 0 1;0 0 1 0 0 0;0 0 0 1 0 0;0 1 0 0 0 0"
        rc, out, err = run(verb + [A] + flag)
        assert rc == 1 and out == "" and err == message + "\n"
        # this 4x4 has a vertex decomposition (h = 1, 3, 1), so no lattice is walked
        assert run(verb + ["0 1 0 0;1 -1 0 1;0 0 1 0;0 1 0 0", "--max-lattice", "1"])[0] == 0
        # SPLIT is answered with no homology computed, so the face guard cannot trip
        assert run(verb + [SPLIT, "--max-faces", "1"])[0] == 0

    def test_draw_guard_refuses_before_drawing(self):
        rc, out, err = run(["asm", "random", "3", "100001"])
        assert rc == 1 and out == ""
        assert err == "count m = 100001 exceeds the draw guard (100000)\n"
        # `random` takes no --count, whatever its size and count
        assert run(["asm", "random", "3", "100001", "--count"])[0] == 2
        assert run(["asm", "random", "3", "-5", "--count"])[0] == 2
        assert run(["asm", "random", "9", "2", "--count"])[0] == 2

    @pytest.mark.parametrize("verb", [["poly", "regularity"], ["decomp", "is-cm"]])
    def test_stats_flag(self, verb):
        plain = run(verb + [BULGE])
        rc, out, err = run(verb + [BULGE, "--stats"])
        assert rc == 0 and out == plain[1]
        counts = dict(line.split(": ") for line in err.splitlines())
        # BULGE has two minimal primes, so its Alexander dual has 3 lcms
        assert (counts["route_dual"], counts["lattice"]) == ("1", "3")
        rc, out, _ = run(verb + [BULGE, "--stats", "--json"])
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["stats"]["lattice"] == int(counts["lattice"])
        without = json.loads(run(verb + [BULGE, "--json"])[1])
        assert {k: v for k, v in data.items() if k != "stats"} == without
        assert run(["poly", "raj", "2,1,3", "--stats"])[0] == 2

    def test_diaginit_stats(self):
        verb = ["ideal", "diaginit"]
        rc, out, err = run(verb + ["1,3,2", "LexSE", "--stats"])
        assert rc == 0 and out == run(verb + ["1,3,2", "LexSE"])[1]
        counts = dict(line.split(": ") for line in err.splitlines())
        # 132 avoids the CDG patterns: its initial ideal is read off, no pairs
        assert (counts["route_cdg"], counts["pairs"]) == ("1", "0")
        rc, out, _ = run(verb + ["1,3,2,5,4", "LexSE", "--stats", "--json"])
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["stats"]["route_cdg"] == 0 and data["stats"]["pairs"] > 0
        # 1,3,2,5,4 is a permutation, so its Hilbert function skips 4 of its 6 pairs
        assert (data["stats"]["pairs"], data["stats"]["pairs_hilbert"]) == (6, 4)
        without = json.loads(run(verb + ["1,3,2,5,4", "LexSE", "--json"])[1])
        assert {k: v for k, v in data.items() if k != "stats"} == without

    # the Groebner counters of a whole call: 2,1,5,4,3 splits off its seven
    # rank-0 variables in each basis that `minimal_generators` builds
    @pytest.mark.parametrize(
        "argv, pairs, split",
        [(["ideal", "gens", "2,1,5,4,3"], "64", "7"), (["decomp", "intersect", "3,4,1,2", "3,2,4,1"], "66", "0")],
    )
    def test_buchberger_verbs_stats(self, argv, pairs, split):
        rc, out, err = run(argv + ["--stats"])
        assert rc == 0 and out == run(argv)[1]
        counts = dict(line.split(": ") for line in err.splitlines())
        assert (counts["pairs"], counts["split_variables"]) == (pairs, split)
        data = json.loads(run(argv + ["--stats", "--json"])[1])
        assert data["stats"] == {k: int(v) for k, v in counts.items()}

    # SPLIT's row search keeps two paths at each of its two rows and cuts
    # four columns: column 1 and, below 2 and 3, columns 1 and 4 over a bound
    # or a lower cover
    @pytest.mark.parametrize("verb", ["permset", "decompose"])
    def test_component_search_stats(self, verb):
        argv = ["decomp", verb, SPLIT]
        rc, out, err = run(argv + ["--stats"])
        assert rc == 0 and out == run(argv)[1]
        counts = dict(line.split(": ") for line in err.splitlines())
        assert (counts["dp_states"], counts["dp_dropped"]) == ("4", "4")
        data = json.loads(run(argv + ["--stats", "--json"])[1])
        assert data["stats"] == {k: int(v) for k, v in counts.items()}
        assert {k: v for k, v in data.items() if k != "stats"} == json.loads(run(argv + ["--json"])[1])

    def test_memory_error_is_a_domain_error(self, monkeypatch):
        def exhaust(xs):
            raise MemoryError

        monkeypatch.setattr(decomp, "union_asm", exhaust)
        assert run(["decomp", "is-asm", "2,1", "1,2"]) == (1, "", "out of memory (MemoryError)\n")

    def test_recursion_error_is_a_domain_error(self):
        # s_49 in S_50 has no fixed point to trim, and its climb from the
        # longest element of S_50 recurses past Python's limit
        s49 = ",".join(map(str, [*range(1, 49), 50, 49]))
        for flags in ([], ["--json"]):
            assert run(["poly", "schubert", s49, *flags]) == (1, "", "recursion too deep (RecursionError)\n")

    def test_identity_climbs_from_s1(self, monkeypatch):
        # untrimmed, each climb would start at the longest element of S_14
        for name in ("_staircase", "_double_staircase"):
            base = getattr(schubpoly, name)
            monkeypatch.setattr(schubpoly, name, lambda n, base=base: base(n) if n <= 3 else pytest.fail(f"climb from S_{n}"))
        identity, cycle = ",".join(map(str, range(1, 15))), ",".join(map(str, [3, 1, 2, *range(4, 15)]))
        for verb in ("schubert", "double-schubert", "grothendieck"):
            assert run(["poly", verb, identity]) == (0, "1\n", "")
            rc, out, _ = run(["poly", verb, identity, "--json"])
            assert rc == 0 and json.loads(out)["polynomial"] == [{"coefficient": "1", "exponents": []}]
        assert run(["poly", "schubert", cycle]) == (0, "x[1]^2\n", "")

    def test_permutation_components_answer_at_once(self):
        # the S_12 permutation of the CLI census: its J has a prime per
        # reduced pipe dream, which the permutation-matrix check never builds
        w, line = "12,4,8,9,1,3,10,2,7,11,6,5", [12, 4, 8, 9, 1, 3, 10, 2, 7, 11, 6, 5]
        for verb in ("permset", "decompose"):
            for flags, want in (([], "{{12, 4, 8, 9, 1, 3, 10, 2, 7, 11, 6, 5}}\n"), (["--json"], None)):
                start = time.perf_counter()
                rc, out, err = run(["decomp", verb, w, *flags])
                assert time.perf_counter() - start < 2 and (rc, err) == (0, "")
                assert out == want if want else json.loads(out) == {"schema_version": 1, "permutations": [line]}
        # a seeded 12x12 walk, whose minimal-prime fold ran past 60 s: each
        # verb answers in a fresh process, where no memo is warm
        A = walks(12, 1, seed=112)[0]
        text = ";".join(" ".join(map(str, row)) for row in A.rows)
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parent.parent)}
        want = perm_set_of_asm(A)
        for verb in ("permset", "decompose"):
            for flags in ([], ["--json"]):
                argv = ["decomp", verb, text, *flags]
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "asmschub.cli", *argv], env=env, capture_output=True, text=True, timeout=60)
                assert time.perf_counter() - start < 2 and (proc.returncode, proc.stderr) == (0, "")
                assert proc.stdout == run(argv)[1]
        assert len(want) == len(json.loads(proc.stdout)["permutations"]) > 20

    def test_budget_exhaustion(self):
        rc, _, err = run(["decomp", "intersect", "3,4,1,2", "3,2,4,1", "--budget", "1"])
        assert rc == 1 and "budget" in err.lower()

    # the contract is total: any argv exits 0, 1, or 2 without raising
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(string.printable.replace("\x0c", ""), min_size=0, max_size=8),
            max_size=4,
        )
    )
    def test_never_raises(self, argv):
        rc, _, _ = run(argv)
        assert rc in (0, 1, 2)

    # guard flags refuse negatives as usage errors; any other value answers or trips a guard
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-(10**30), 10**30) | st.sampled_from([-1, 0, 1, 10**30]))
    def test_guard_values_never_raise(self, value):
        for argv in (
            ["ideal", "diaginit", "1,3,2", "LexSE", "--budget", str(value)],
            ["poly", "regularity", SPLIT, "--max-lattice", str(value)],
            ["decomp", "is-cm", MEET, "--max-faces", str(value)],
        ):
            rc = run(argv)[0]
            assert (rc == 2) if value < 0 else (rc in (0, 1))

    # huge counts are refused by a guard, or by the parser
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["asm", "random", "3", str(10**30)], 1),
            (["asm", "random", str(10**30), "2"], 1),
            (["asm", "random", "3", str(10**30), "--count"], 2),
            (["asm", "enumerate", str(10**30)], 1),
            (["asm", "enumerate", str(10**30), "--count"], 1),
            (["pipedream", "render", "2,1,4,3", str(10**30)], 1),
        ],
    )
    def test_huge_counts(self, argv, code):
        assert run(argv)[0] == code

    @settings(max_examples=40, deadline=None)
    @given(st.text(string.digits + ",-x", min_size=1, max_size=10))
    def test_malformed_permutation_is_domain_or_usage_error(self, text):
        rc, out, _ = run(["perm", "length", text])
        if rc == 0:
            # only well-formed one-line words get through
            assert out.strip().isdigit()
        else:
            assert rc in (1, 2)


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# (group, verb) -> its parser, read off the parser itself
PARSER = _build_parser()
PARSERS = {(g, v): p for g, sub in _subparsers(PARSER).items() for v, p in _subparsers(sub).items()}


def _readme_table(after: str) -> list[list[list[str]]]:
    """The body rows of README's first table below the line that starts
    with `after`, each cell as the list of its backticked words."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(after))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([re.findall(r"`([^`]*)`", cell) for cell in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]


# README and the module docstring list what the parser takes; nothing is computed
class TestDocumentedSurface:
    SAMPLE = {"N": "1", "NAME": "DividedDifference"}  # a value for each README placeholder

    def verbs(self) -> dict[str, list[str]]:
        grouped = {}
        for group, verb in PARSERS:
            grouped.setdefault(group, []).append(verb)
        return grouped

    def parses(self, argv) -> bool:
        try:
            PARSER.parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return False
        return True

    def test_readme_verb_groups(self):
        assert {cells[0][0]: cells[1] for cells in _readme_table("Verb groups:")} == self.verbs()

    def test_docstring_verbs(self):
        block = cli.__doc__.split("The verbs:\n\n")[1].split("\n\n")[0]
        listed = {}
        for line in block.splitlines():
            words = line.split()
            if words[0] != "|":
                group = words.pop(0)
            listed.setdefault(group, []).extend(w for w in words if w != "|")
        assert listed == self.verbs()

    # each flag parses on the verbs README lists for it and is a usage error elsewhere
    def test_readme_flags(self):
        readme = {}
        for flag_cell, verb_cell in _readme_table("Flags, each only"):
            flag, *value = flag_cell[0].split()
            readers = {tuple(v.split()) for v in verb_cell} if verb_cell else set(PARSERS)  # "every verb"
            readme[flag] = ([self.SAMPLE[v] for v in value], readers)
        taken = {s for p in PARSERS.values() for a in p._actions for s in a.option_strings}
        assert set(readme) == taken - {"-h", "--help"}
        for (group, verb), p in PARSERS.items():
            positionals = [next(iter(a.choices or ["1"])) for a in p._actions if not a.option_strings]
            for flag, (value, readers) in readme.items():
                argv = [group, verb, *positionals, flag, *value]
                assert self.parses(argv) == ((group, verb) in readers), argv


def _record():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden, argv in GOLDEN:
        rc, out, err = run(argv)
        if rc != 0:
            raise SystemExit(f"{golden}: exit {rc}: {err}")
        (GOLDEN_DIR / golden).write_text(out)
        print(f"recorded {golden} ({len(out)} bytes)")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        raise SystemExit("run under pytest, or pass --record to regenerate goldens")
