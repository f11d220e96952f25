"""Exact sparse multivariate polynomials over the rationals.

Variables come in three families, z[i,j], x[i] and y[i], written as
tuples ("z", i, j), ("x", i), ("y", i) and ordered as tuples.  The
interface's monomials are tuples of (variable, exponent) pairs in that
order.  Inside, a monomial is one int (Bachmann and Schoenemann, ISSAC
1998): over the polynomial's alphabet, the sorted variables it uses, the
k-th variable has bits k*w up to (k+1)*w, where the width w is the bit
length of the total degree.  No exponent or partial sum of exponents
exceeds the degree, so a product of monomials is a sum of ints and
m * (1 + 2^w + 2^2w + ...) holds deg(m) in its top field, with no carry.
Alphabet and width depend on the polynomial alone, so equal polynomials
store equal maps; kernels work in a layout wide enough for the result,
with a field for a new variable on top.  `_collect` drops unused fields,
sorts the rest and narrows the width unless one degree fills its top
bit, and leaves the ints alone when nothing moves.  Coefficients are ints
when whole, so kernels add plain ints.  An int compares by its top field
first, so within one degree ascending ints are reverse-lex, and `terms`,
the (monomial, Fraction) pairs in display order, is one sort of the
ints.  `terms` and the read-only map `coeffs` are decoded on first read
and kept.

A term order ranks monomials in one place, the key of a `_Ring`, which
moves a polynomial's ints to a layout in the order's priority and back
by `_fields` and `_from_fields`.  The Groebner engine computes in a ring,
and `lead_monomial` is the key's max in a ring as wide as the degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations, permutations
from operator import itemgetter, or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Var = tuple
Monomial = tuple  # ((var, exp), ...) in tuple order of var, exps positive


def x_(i: int) -> Var:
    return ("x", i)


def y_(i: int) -> Var:
    return ("y", i)


def z_(i: int, j: int) -> Var:
    return ("z", i, j)


Z_GRID_CACHE = 16  # grid shapes whose variables `z_grid` keeps


@lru_cache(maxsize=Z_GRID_CACHE)
def z_grid(m: int, n: int) -> tuple[Var, ...]:
    """The z[i,j] of an m x n grid row-major, which is sorted: z[i,j] is the ((i - 1) * n + j - 1)-th,
    its bit in a grid mask and a `MonomialIdeal`.  One tuple per shape, kept."""
    return tuple(z_(i, j) for i in range(1, m + 1) for j in range(1, n + 1))


def var_to_text(v: Var) -> str:
    return f"{v[0]}[{','.join(str(k) for k in v[1:])}]"


def monomial(pairs: Iterable[tuple[Var, int]]) -> Monomial:
    acc: dict[Var, int] = {}
    for v, e in pairs:
        if e < 0:
            raise ValueError(f"negative exponent {e} on {var_to_text(v)}")
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def mono_degree(a: Monomial) -> int:
    return sum(map(itemgetter(1), a))


def mono_support(a: Monomial) -> tuple[Var, ...]:
    return tuple(v for v, _ in a)


def _plain(c: Fraction) -> int | Fraction:
    """c as an int when its denominator is 1."""
    return c.numerator if c.denominator == 1 else c


def _mover(moves: Iterable[tuple[int, int]], width: int):
    """The map on packed ints that moves the `width`-bit field at bit a to
    bit b, for each (a, b) in moves, and drops the rest.  Fields side by
    side at both ends move as one run, and up to three runs move in one
    expression."""
    runs: list[list[int]] = []
    for a, b in sorted(moves):
        if runs and a - runs[-1][0] == b - runs[-1][1] == runs[-1][2]:
            runs[-1][2] += width
        else:
            runs.append([a, b, width])
    if len(runs) <= 3:
        (a, b, n), (c, d, p), (e, g, q) = runs + [[0, 0, 0]] * (3 - len(runs))
        ka, kc, ke = (1 << n) - 1, (1 << p) - 1, (1 << q) - 1
        return lambda m: (m >> a & ka) << b | (m >> c & kc) << d | (m >> e & ke) << g
    owner, keep = [None] * (runs[-1][0] + runs[-1][2] if runs else 0), 0  # bit -> its run
    for a, b, n in runs:
        owner[a:a + n] = [(a, (1 << n) - 1, b)] * n
        keep |= (1 << n) - 1 << a

    def move(m: int) -> int:  # visits only the runs that hold a set bit
        m &= keep
        out = 0
        while m:
            a, k, b = owner[(m & -m).bit_length() - 1]
            bits = m >> a & k
            out |= bits << b
            m ^= bits << a
        return out

    return move


def _degree_field(n: int, w: int) -> tuple[int, int, int]:
    """(ones, field, top) of n fields of w bits: m * ones & field is the
    degree of m, shifted up by top."""
    top = max(n - 1, 0) * w
    return ((1 << n * w) - 1) // ((1 << w) - 1) if w else 0, (1 << w) - 1 << top, top


def _collect(acc: dict, alphabet: tuple, w: int) -> "Polynomial":
    """The polynomial of acc, packed over alphabet with w-bit fields, at
    least as wide as its degree needs.  It takes acc over: zeros go and
    whole Fractions become ints, in place; unused fields and spare width
    go, and the kept fields are ordered by variable; when they are a prefix
    of alphabet in that order at the same width, the ints stand.  The width
    stays w at the first int whose degree has bit w - 1 set, as any term of
    a homogeneous result of width w has; only if none has (the degree fell
    past a power of two, or its top cancelled) is every degree read.  A map
    that lost a term is built afresh, so no table sized for the cancelled
    terms is kept."""
    popped = [m for m, c in acc.items() if not c or type(c) is not int]
    for m in popped:
        c = acc.pop(m)
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        if c:
            acc[m] = _plain(c)
    if not acc:
        return ZERO
    used, (ones, dfield, top) = reduce(or_, acc), _degree_field(len(alphabet), w)
    full = w and any((m * ones & dfield) >> top + w - 1 for m in acc)  # a degree has bit w - 1 set
    width = w if full else (max(map(dfield.__and__, map(ones.__mul__, acc))) >> top).bit_length()
    kept = sorted((k for k in range(len(alphabet)) if used >> k * w & (1 << w) - 1), key=alphabet.__getitem__)
    if kept != list(range(len(kept))) or width != w:
        move = _mover([(k * w, j * width) for j, k in enumerate(kept)], w)
        acc = {move(m): c for m, c in acc.items()}
    elif popped:  # a dict keeps its table after a pop
        acc = dict(acc)
    return Polynomial(tuple(alphabet[k] for k in kept), width, acc)


def _fields(f: "Polynomial", shift: Mapping[Var, int], degree_at: int | None = None) -> dict:
    """f's coefficient map with each variable v's exponent moved to the
    field at bit shift[v], and the monomial's degree to bit degree_at."""
    w = f._width
    move = _mover([(k * w, shift[v]) for k, v in enumerate(f._alphabet)], w)
    if degree_at is None:
        return {move(m): c for m, c in f._packed.items()}
    ones, dfield, top = _degree_field(len(f._alphabet), w)
    return {move(m) | (m * ones & dfield) >> top << degree_at: c for m, c in f._packed.items()}


def _aligned(f: "Polynomial", g: "Polynomial", w: int) -> tuple[tuple, dict, dict]:
    """The alphabet of f and g together, and both packed maps over it with
    w-bit fields."""
    alphabet = f._alphabet if f._alphabet == g._alphabet else tuple(sorted({*f._alphabet, *g._alphabet}))
    pos = {v: k * w for k, v in enumerate(alphabet)}
    f, g = ((h._packed if (h._alphabet, h._width) == (alphabet, w) else _fields(h, pos)) for h in (f, g))
    return alphabet, f, g


def _decoder(f: "Polynomial"):
    """The map from f's packed ints to pair tuples.  The fields fall into
    four runs, and each run's bits are looked up in a table of pair tuples
    filled as its values are met (and dropped with the map)."""
    w = f._width
    fields = [(k * w, v) for k, v in enumerate(f._alphabet)]
    q = -(-len(fields) // 4)
    parts = []
    for run in (fields[g * q:(g + 1) * q] for g in range(4)):
        start = run[0][0] if run else 0
        piece = lambda bits, run=run, start=start: tuple(  # noqa: E731
            (v, e) for a, v in run if (e := bits >> a - start & (1 << w) - 1))
        parts.append((start, (1 << len(run) * w) - 1, lru_cache(maxsize=None)(piece)))
    (s0, k0, t0), (s1, k1, t1), (s2, k2, t2), (s3, k3, t3) = parts
    return lambda m: t0(m >> s0 & k0) + t1(m >> s1 & k1) + t2(m >> s2 & k2) + t3(m >> s3 & k3)


@dataclass(frozen=True, eq=False, repr=False)
class Polynomial:
    """Immutable polynomial with exact rational coefficients.

    `_packed` maps the packed ints of its monomials over `_alphabet`, with
    `_width`-bit fields, to nonzero int or Fraction coefficients (see the
    module docstring).  `coeffs` maps pair-tuple monomials to them, and
    `terms` has them in display order as Fractions; both are decoded on
    first read and kept.

    >>> f = variable(x_(1)) + variable(x_(2))
    >>> poly_to_text(f * f)
    'x[1]^2 + 2*x[1]*x[2] + x[2]^2'
    """

    _alphabet: tuple
    _width: int
    _packed: dict

    @cached_property
    def coeffs(self) -> Mapping[Monomial, int | Fraction]:
        decode = _decoder(self)
        return MappingProxyType({decode(m): c for m, c in self._packed.items()})

    @cached_property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        # degree descending, then ascending ints: one sort on m - deg(m) * 2^(n*w)
        packed, w = self._packed, self._width
        ones, dfield, _ = _degree_field(len(self._alphabet), w)
        order = sorted(packed, key=lambda m: m - ((m * ones & dfield) << w))
        fracs = {c: Fraction(c) for c in set(packed.values())}
        return tuple(zip(map(_decoder(self), order), map(fracs.__getitem__, map(packed.__getitem__, order))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self._alphabet, self._width, self._packed) == (other._alphabet, other._width, other._packed)

    def __hash__(self) -> int:
        return hash((self._alphabet, frozenset(self._packed.items())))

    def __repr__(self) -> str:
        return f"Polynomial(terms={self.terms!r})"

    def __reduce__(self):
        return Polynomial, (self._alphabet, self._width, dict(self._packed))

    @staticmethod
    def from_dict(d: Mapping[Monomial, Fraction | int]) -> "Polynomial":
        alphabet = tuple(sorted({v for m in d for v, _ in m}))
        # monomial() refuses a negative exponent and keeps the degree
        w = max(map(mono_degree, map(monomial, d)), default=0).bit_length()
        pos, acc = {v: k * w for k, v in enumerate(alphabet)}, {}
        for m, c in d.items():
            p = sum(e << pos[v] for v, e in m)
            acc[p] = acc[p] + c if p in acc else c
        return _collect(acc, alphabet, w)

    @property
    def is_zero(self) -> bool:
        return not self._packed

    def coefficient(self, m: Monomial) -> Fraction:
        return Fraction(self.coeffs.get(m, 0))

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        if not self._packed:
            return -1
        ones, dfield, top = _degree_field(len(self._alphabet), self._width)
        return max(map(dfield.__and__, map(ones.__mul__, self._packed))) >> top

    def variables(self) -> set:
        return set(self._alphabet)

    def __add__(self, other) -> "Polynomial":
        other = as_polynomial(other)
        w = max(self._width, other._width)
        alphabet, left, right = _aligned(self, other, w)
        acc = dict(left)
        get = acc.get
        for m, c in right.items():
            acc[m] = get(m, 0) + c
        return _collect(acc, alphabet, w)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self._alphabet, self._width, {m: -c for m, c in self._packed.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-as_polynomial(other))

    def __rsub__(self, other) -> "Polynomial":
        return as_polynomial(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = as_polynomial(other)
        if self.is_zero or other.is_zero:
            return ZERO
        w = (self.degree() + other.degree()).bit_length()  # bounds every field of the product
        alphabet, left, right = _aligned(self, other, w)
        acc: dict[int, int | Fraction] = {}
        get = acc.get
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
        return _collect(acc, alphabet, w)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def __str__(self) -> str:
        return poly_to_text(self)


ZERO = Polynomial((), 0, {})
ONE = Polynomial((), 0, {0: 1})


def as_polynomial(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return constant(value)
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


def constant(c) -> Polynomial:
    return term(c, ())


def variable(v: Var) -> Polynomial:
    return Polynomial((v,), 1, {1: 1})


def term(c, pairs: Iterable[tuple[Var, int]]) -> Polynomial:
    return Polynomial.from_dict({monomial(pairs): Fraction(c)})


def _from_fields(items, shift: Mapping[Var, int], degree_at: int, width: int) -> Polynomial:
    """The polynomial of (int, coefficient) pairs whose ints hold each
    variable v's exponent in the `width`-bit field at bit shift[v] and the
    degree in the one at bit degree_at; shift lists the variables in order."""
    items, mask = list(items), (1 << width) - 1
    used = reduce(or_, (m for m, _ in items), 0)
    alphabet = tuple(v for v, at in shift.items() if used >> at & mask)
    w = max((m >> degree_at & mask for m, _ in items), default=0).bit_length()
    move = _mover([(shift[v], k * w) for k, v in enumerate(alphabet)], width)
    return _collect({move(m): c for m, c in items}, alphabet, w)


@dataclass(frozen=True)
class TermOrder:
    """Lex or graded reverse-lex over an explicit variable priority.

    The priority sequence lists variables highest first and must cover
    every variable of any monomial it compares.
    """

    kind: str
    priority: tuple[Var, ...]
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        object.__setattr__(self, "priority", tuple(self.priority))
        object.__setattr__(
            self, "_pos", {v: k for k, v in enumerate(self.priority)}
        )


def lex_order(priority: Sequence[Var]) -> TermOrder:
    return TermOrder("lex", tuple(priority))


def antidiagonal_order(m: int, n: int) -> TermOrder:
    """Lex order making every minor of Z lead with its antidiagonal.

    Priority runs through rows top to bottom, columns right to left, so
    the top-right entry of any submatrix dominates.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    priority = [z_(i, j) for i in range(1, m + 1) for j in range(n, 0, -1)]
    return lex_order(priority)


class _Overflow(Exception):
    """A packed exponent or degree outgrew its field."""


class _Ring:
    """The monomials of one computation over the variables `used`, packed
    with `width`-bit fields (Bachmann and Schoenemann, "Monomial
    representations for Groebner bases computations", ISSAC 1998).  Each
    variable of `used` gets a field, as does
    the degree, and each field is topped by a guard bit that stays clear.
    Under lex the variable fields run from the top in priority order and
    the degree field is lowest, so a monomial is its own key; under
    grevlex the degree field is on top with the variable fields below it
    in reversed priority, and the key m ^ flip complements the variable
    fields."""

    def __init__(self, order: TermOrder, used: set, width: int):
        for v in sorted(used - order._pos.keys()):
            raise ValueError(f"variable {var_to_text(v)} not covered by the term order")
        n, s, lex = len(used), width + 1, order.kind == "lex"
        shifts = [s * (n - k) if lex else s * k for k in range(n)]  # by priority
        self.shift = dict(sorted(zip(sorted(used, key=order._pos.get), shifts)))  # in variable order
        self.width, self.field, self.deg = width, (1 << width) - 1, 0 if lex else s * n
        self.guard = sum(1 << (sh + width) for sh in shifts + [self.deg])
        self.varmask = sum(self.field << sh for sh in shifts)
        self.flip = 0 if lex else self.varmask  # the key of m is m ^ flip
        self.ones, self.top = sum(1 << (s * k) for k in range(n)), max(shifts, default=0)

    def pack(self, f: Polynomial) -> dict:
        if f.degree() > self.field:  # no exponent exceeds it
            raise _Overflow
        return _fields(f, self.shift, self.deg)

    def unpack(self, terms) -> Polynomial:
        return _from_fields(terms, self.shift, self.deg, self.width)

    def lcm(self, a: int, b: int) -> int:
        """Field-wise max, where the guard bits of (a | G) - b mark a >= b.
        Each partial sum of its fields is below 2^(width+1), so one field
        of v * ones, the top one, holds the degree without carries."""
        t = ((a | self.guard) - b) & self.guard
        keep = t - (t >> self.width)
        v = ((a & keep) | (b & ~keep)) & self.varmask
        d = (v * self.ones) >> self.top & (2 * self.field + 1)
        if d > self.field:
            raise _Overflow
        return v | d << self.deg

    def lead(self, coeffs) -> int:  # the packed int of largest key
        return max(coeffs, key=lambda m: m ^ self.flip)

    def monic(self, coeffs: dict) -> tuple[int, tuple]:
        """The entry (lead, tail) of coeffs divided by its lead coefficient."""
        lead = self.lead(coeffs)
        lc = coeffs[lead]
        if lc == 1:
            return lead, tuple((m, c) for m, c in coeffs.items() if m != lead)
        if lc == -1 and type(lc) is int:
            return lead, tuple((m, -c) for m, c in coeffs.items() if m != lead)
        return lead, tuple((m, _plain(Fraction(c, lc))) for m, c in coeffs.items() if m != lead)


def lead_monomial(f: Polynomial, order: TermOrder) -> Monomial:
    """The largest monomial of f: the ring key's max over f's ints, in a
    ring wide enough for f's degree, so packing cannot overflow, decoded
    alone."""
    if f.is_zero:
        raise ValueError("zero polynomial has no lead term")
    ring = _Ring(order, f.variables(), max(f.degree(), 1).bit_length())
    lead = ring.lead(_fields(f, ring.shift, ring.deg))
    return tuple((v, e) for v, at in ring.shift.items() if (e := lead >> at & ring.field))


LEIBNIZ_CACHE = 8  # minor sizes whose Leibniz map `generic_minor` keeps


@lru_cache(maxsize=LEIBNIZ_CACHE)
def _leibniz(k: int) -> dict:
    """The packed Leibniz sum of a k x k determinant over its k^2 entries,
    row-major: no two products share a monomial.  Every minor of size k
    shares the map, which no `Polynomial` mutates."""
    w = k.bit_length()
    return {sum(1 << (r * k + c) * w for r, c in enumerate(p)): (-1) ** sum(a > b for a, b in combinations(p, 2))
            for p in permutations(range(k))}


def generic_minor(rows: Iterable[int], cols: Iterable[int]) -> Polynomial:
    """Determinant of the z-submatrix on the given rows and columns.

    >>> poly_to_text(generic_minor([1, 2], [1, 2]))
    '-z[1,2]*z[2,1] + z[1,1]*z[2,2]'
    """
    rows, cols = sorted(rows), sorted(cols)
    if len(rows) != len(cols) or not rows:
        raise ValueError("row and column sets must be nonempty and of equal size")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("row and column indices must be distinct")
    return Polynomial(tuple(z_(r, c) for r in rows for c in cols), len(rows).bit_length(), _leibniz(len(rows)))


def _difference(f: Polynomial, i: int, shifts) -> Polynomial:
    """Sum over (k, sign) in shifts of sign * partial_i(x_{i+1}^k f).

    x_i and x_{i+1} keep their fields, at bits su and sv; one that f lacks
    gets a field on top of f's layout.  With U = 2^su, V = 2^sv and a, b
    the two exponents of a term m, let d = a - b - k.  partial_i(x_i^a
    x_{i+1}^(b+k)) is the d monomials m + kV - U - t(U - V), 0 <= t < d,
    or if d < 0 minus the -d monomials m + kV - V + t(U - V): one
    arithmetic progression of ints, wherever the two fields lie.  No new
    exponent exceeds max(a, b), and no new degree the input's, so the
    input's width holds the result; `_collect` sorts in a field it opened,
    and a homogeneous result that keeps the width shows so in its first int.
    """
    if i < 1:
        raise ValueError("index must be positive")
    u, v = x_(i), x_(i + 1)
    w = max(f._width, 1)  # a constant's ints are all 0
    alphabet = f._alphabet + tuple(x for x in (u, v) if x not in f._alphabet)
    su, sv, mask = alphabet.index(u) * w, alphabet.index(v) * w, (1 << w) - 1
    step = (1 << sv) - (1 << su)
    acc: dict[int, int | Fraction] = {}
    get = acc.get
    for shift, sign in shifts:
        up, down = (shift << sv) - (1 << su), shift - 1 << sv
        for m, c in f._packed.items():
            d = (m >> su & mask) - (m >> sv & mask) - shift
            if d > 0:
                nm, s = m + up, step
            elif d:
                nm, s, d, c = m + down, -step, -d, -c
            else:
                continue
            if sign < 0:
                c = -c
            if d == 1:
                acc[nm] = get(nm, 0) + c
            else:
                for nm in range(nm, nm + d * s, s):
                    acc[nm] = get(nm, 0) + c
    return _collect(acc, alphabet, w)


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """Newton divided difference (f - swap_i f) / (x_i - x_{i+1}).

    Computed term by term with no division: the output monomials of each
    term are one arithmetic progression of packed ints, and integer
    coefficients are summed as ints (see `_difference`).

    >>> poly_to_text(divided_difference(variable(x_(1)) ** 2, 1))
    'x[1] + x[2]'
    """
    return _difference(f, i, ((0, 1),))


def isobaric_divided_difference(f: Polynomial, i: int) -> Polynomial:
    """Demazure operator f -> partial_i(f - x_{i+1} f).

    One pass of the same kernel: each term contributes partial_i of
    itself and minus partial_i of itself times x_{i+1}.
    """
    return _difference(f, i, ((0, 1), (1, -1)))


def mono_to_text(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(var_to_text(v) + (f"^{e}" if e > 1 else "") for v, e in m)


def poly_to_text(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    chunks = []
    for k, (m, c) in enumerate(f.terms):
        mag = abs(c)
        body = mono_to_text(m) if mag == 1 else str(mag) + (f"*{mono_to_text(m)}" if m else "")
        if k == 0:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append(("- " if c < 0 else "+ ") + body)
    return " ".join(chunks)


_VAR_RE = re.compile(r"^([xyzt])\[(\d+(?:,\d+)*)\](?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^\d+(?:/0*[1-9]\d*)?$")  # no zero denominator


def poly_from_text(text: str) -> Polynomial:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ZERO
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if "".join(pieces) != s:
        raise ValueError(f"sign without a term in {text!r}")
    out: dict[Monomial, Fraction] = {}
    for piece in pieces:
        sign = Fraction(1)
        if piece[0] in "+-":
            if piece[0] == "-":
                sign = Fraction(-1)
            piece = piece[1:]
        coeff = sign
        pairs: list[tuple[Var, int]] = []
        for factor in piece.split("*"):
            mv = _VAR_RE.match(factor)
            if mv:
                fam, idx, exp = mv.group(1), mv.group(2), mv.group(3)
                v = (fam,) + tuple(int(t) for t in idx.split(","))
                if (fam == "z") != (len(v) == 3):
                    raise ValueError(f"bad variable {factor!r} in {text!r}")
                pairs.append((v, int(exp) if exp else 1))
            elif _COEFF_RE.match(factor):
                coeff *= Fraction(factor)
            else:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
        m = monomial(pairs)
        out[m] = out.get(m, Fraction(0)) + coeff
    return Polynomial.from_dict(out)


def poly_to_json(f: Polynomial) -> list[dict]:
    return [
        {"coefficient": str(c), "exponents": [list(v) + [e] for v, e in m]}
        for m, c in f.terms
    ]


def poly_from_json(data: Sequence[Mapping]) -> Polynomial:
    acc: dict[Monomial, Fraction] = {}
    for entry in data:
        pairs = [(tuple(item[:-1]), item[-1]) for item in entry["exponents"]]
        m = monomial(pairs)
        acc[m] = acc.get(m, Fraction(0)) + Fraction(entry["coefficient"])
    return Polynomial.from_dict(acc)
