"""Replay a slice of the committed sweep corpora against the library."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from asmschub.asm import as_permutation, enumerate_asms
from asmschub.perm import Permutation

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "sweep.py")
sweep = sys.modules["sweep"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_homology_corpus_replays_every_tenth_item():
    corpus = json.loads((ROOT / "scripts" / "corpus" / "homology-5.json").read_text())
    items = corpus["items"]
    assert corpus["summary"]["items"] == len(items) == 309
    # every item agrees with its full Betti table
    assert all(cm_ok and reg_ok for _, _, cm_ok, reg_ok, _, _ in items.values())
    slice_ = sorted(items)[::10]
    pool = {sweep.asm_key(A): A for A in enumerate_asms(5) if as_permutation(A) is None}
    assert set(pool) == set(items)
    for key in slice_:
        assert sweep.homology_item(pool[key]) == items[key], key


def test_diag_cdg_corpus_replays_every_fortieth_item():
    corpus = json.loads((ROOT / "scripts" / "corpus" / "diag-cdg-6.json").read_text())
    items = corpus["items"]
    assert corpus["summary"]["items"] == len(items) == 2160
    slice_ = sorted(items)[::40]
    assert (len(slice_), sum(not items[key][0] for key in slice_)) == (54, 5)
    for key in slice_:
        one_line, variant = key.split("|")
        w = Permutation(tuple(int(c) for c in one_line))
        assert sweep.diag_cdg_item(w, variant) == items[key], key


def test_diag_cdg_corpus_replays_every_non_cdg_item():
    # every item that takes the Hilbert-driven Buchberger run
    corpus = json.loads((ROOT / "scripts" / "corpus" / "diag-cdg-6.json").read_text())
    keys = [key for key, (cdg, _, _) in corpus["items"].items() if not cdg]
    assert len(keys) == corpus["summary"]["non_cdg_items"] == 168
    for key in keys:
        one_line, variant = key.split("|")
        w = Permutation(tuple(int(c) for c in one_line))
        assert sweep.diag_cdg_item(w, variant) == corpus["items"][key], key


def test_flag_corpus_replays_every_tenth_item():
    corpus = json.loads((ROOT / "scripts" / "corpus" / "flag-5.json").read_text())
    items = corpus["items"]
    assert corpus["summary"]["items"] == len(items) == 120
    # every route agrees with its cross-check on every item
    assert all(row[0] == row[2] == row[4] == row[6] == 1 for row in items.values())
    for key in sorted(items)[::10]:
        w = Permutation(tuple(int(c) for c in key))
        assert sweep.flag_item(w) == items[key], key


def test_flag_corpus_replays_every_fortieth_item_of_s6():
    # 8 of the 18 keys do not end in 6, so they climb from the longest element
    # of S_6, as the flag_polys workload does
    corpus = json.loads((ROOT / "scripts" / "corpus" / "flag-6.json").read_text())
    items = corpus["items"]
    assert corpus["summary"]["items"] == len(items) == 720
    assert all(row[0] == row[2] == row[4] == row[6] == 1 for row in items.values())
    slice_ = sorted(items)[::40]
    assert (len(slice_), sum(key[-1] != "6" for key in slice_)) == (18, 8)
    for key in slice_:
        w = Permutation(tuple(int(c) for c in key))
        assert sweep.flag_item(w) == items[key], key


def test_check_names_the_first_differing_key(tmp_path, capsys):
    corpus = sweep.run(sweep.Config(family="diag-cdg", size=3))
    path = tmp_path / "diag-cdg-3.json"
    sweep.write_corpus(corpus, str(path))
    assert sweep.check(corpus, path) == 0
    keys = sorted(corpus["items"])
    assert len(keys) == 18
    stored = json.loads(path.read_text())
    stored["items"][keys[7]][1] = 0  # diag_init disagrees with Buchberger
    del stored["items"][keys[12]]
    path.write_text(json.dumps(stored))
    capsys.readouterr()
    assert sweep.check(corpus, path) == 1
    assert f"first at {keys[7]!r}: [1, 1, 1] here, [1, 0, 1] there" in capsys.readouterr().out
    stored["items"][keys[7]][1] = 1
    path.write_text(json.dumps(stored))
    assert sweep.check(corpus, path) == 1
    assert f"first at {keys[12]!r}" in capsys.readouterr().out


def test_decomp_corpus_replays_every_tenth_item():
    corpus = json.loads((ROOT / "scripts" / "corpus" / "decomp-5.json").read_text())
    items = corpus["items"]
    assert corpus["summary"]["items"] == len(items) == 429
    # every perm set agrees with the brute force and every dream with the primes
    assert all(row[1] == row[3] == 1 for row in items.values())
    pool = {sweep.asm_key(A): A for A in enumerate_asms(5)}
    assert set(pool) == set(items)
    for key in sorted(items)[::10]:
        assert sweep.decomp_item(pool[key]) == items[key], key


def test_union_corpus_replays_every_tenth_item():
    corpus = json.loads((ROOT / "scripts" / "corpus" / "union-4.json").read_text())
    items = corpus["items"]
    assert corpus["summary"]["items"] == len(items) == 276
    # union_asm agrees with is_asm_ideal on every pair of S_4
    assert all(agree for _, agree in items.values())
    slice_ = sorted(items)[::10]
    assert (len(slice_), sum(items[key][0] for key in slice_)) == (28, 21)
    for key in slice_:
        u, w = (Permutation(tuple(int(c) for c in x)) for x in key.split())
        assert sweep.union_item(u, w) == items[key], key
