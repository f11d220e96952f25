"""Every function, method and class the library defines is named
somewhere: in `src/`, `tests/`, `scripts/` or `perfbench/`.

A name counts when it is read as an identifier or an attribute, imported,
or written as a word inside a string (the benchmark's tracer names the
functions it wraps by string, and doctests call functions from
docstrings).  Comments do not count.  Dunder methods are exempt: Python
calls them.  Conversely, every name the benchmark's tracer wraps or
counts is a callable of the library.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "scripts", "perfbench")
WORD = re.compile(r"[A-Za-z_]\w*")


def definitions(source: str) -> list[str]:
    """Names of the functions, methods and classes a module defines,
    at any depth, dunders excluded."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def references(source: str) -> set[str]:
    """Every name a module reads, imports or spells inside a string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(WORD.findall(node.value))
    return names


def unreferenced(defining: list[str], searched: list[str]) -> list[str]:
    """Definitions in the `defining` sources that no searched source names."""
    named = set().union(*(references(s) for s in searched))
    return [name for s in defining for name in definitions(s) if name not in named]


def test_detects_unreferenced():
    lib = (
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def opened(self): pass\n"
        "    def sealed(self): pass\n"
        "def helper(): pass\n"
        "def traced(): pass\n"
        "def orphan():\n"
        "    def inner(): pass\n"
        "    return inner()\n"
    )
    user = "from lib import helper\nBox().opened()\nSPANS = ('lib.traced',)\n# sealed\n"
    assert unreferenced([lib], [lib, user]) == ["orphan", "sealed"]


def test_library_definitions_are_named():
    sources = [
        p.read_text() for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))
    ]
    library = [p.read_text() for p in sorted((ROOT / "src" / "asmschub").glob("*.py"))]
    assert unreferenced(library, sources) == []


def test_traced_names_resolve(monkeypatch):
    # a traced name that is renamed or deleted fails here, and not only
    # in traced benchmark runs; loading the tracer writes no bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, qual, *_ in tracing.SPANS + tracing.COUNTS:
        owner = importlib.import_module(f"asmschub.{module}")
        for attr in qual.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{qual}")
    assert missing == []
