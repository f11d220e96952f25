"""Exact sparse multivariate polynomials over the rationals.

Variables come in three families: a generic matrix z[i,j] and two
alphabets x[i], y[i], written as tuples ("x", i), ("y", i) and
("z", i, j).  The canonical order is Python's tuple order on those
tuples, so x < y < z and each family runs ascending by index.  A
monomial lists its variables in that order.  A polynomial stores a
read-only map from monomial to nonzero coefficient, an `int` when its
denominator is 1 and a `Fraction` otherwise, so kernels add plain ints;
its `terms` list the pairs, with `Fraction` coefficients, in a canonical
descending order (degree first, then reverse-lex in tuple order), sorted
once, on first read.  Term orders for Groebner work are separate values
so the same polynomial can be read under several orders.

A product monomial is one merge of two sorted pair tuples.  As x_i and
x_{i+1} are adjacent in variable order, a divided difference splices
new x_i, x_{i+1} pairs, made once per exponent, into the input monomial
between its pairs before x_i and after x_{i+1}, with no sort.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from operator import itemgetter
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


MONE: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials by one merge of their sorted pairs."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def mono_degree(a: Monomial) -> int:
    return sum(map(itemgetter(1), a))


def mono_support(a: Monomial) -> tuple[Var, ...]:
    return tuple(v for v, _ in a)


def _display_sort(coeffs: Mapping[Monomial, int | Fraction]):
    # Degree descending, then reverse-lex: the reversed monomials first
    # differ exactly where dense exponent vectors read from the top
    # variable down would, and neither is a prefix of the other when the
    # degrees agree.  Two stable sorts on keys computed in C beat one
    # sort on a pair of keys.  Equal coefficients share one Fraction.
    monos = sorted(coeffs, key=itemgetter(slice(None, None, -1)))
    monos.sort(key=mono_degree, reverse=True)
    fracs = {c: Fraction(c) for c in set(coeffs.values())}
    return tuple(zip(monos, map(fracs.__getitem__, map(coeffs.__getitem__, monos))))


def _plain(c: Fraction) -> int | Fraction:
    """c as an int when its denominator is 1."""
    return c.numerator if c.denominator == 1 else c


def _collect(acc: dict[Monomial, int | Fraction]) -> "Polynomial":
    """The polynomial of the nonzero coefficients of acc, which it takes
    over: zeros go, and whole Fractions become ints, in place."""
    for m in [m for m, c in acc.items() if not c or type(c) is not int]:
        c = acc.pop(m)
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        if c:
            acc[m] = _plain(c)
    return Polynomial(acc)


@dataclass(frozen=True, repr=False)
class Polynomial:
    """Immutable polynomial with exact rational coefficients.

    `coeffs` maps monomials to nonzero int or Fraction coefficients;
    `terms`, sorted on first read, has them in display order as Fractions.

    >>> f = variable(x_(1)) + variable(x_(2))
    >>> poly_to_text(f * f)
    'x[1]^2 + 2*x[1]*x[2] + x[2]^2'
    """

    coeffs: Mapping[Monomial, int | Fraction]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", MappingProxyType(self.coeffs))

    @cached_property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        return _display_sort(self.coeffs)

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"Polynomial(terms={self.terms!r})"

    def __reduce__(self):
        return Polynomial, (dict(self.coeffs),)

    @staticmethod
    def from_dict(d: Mapping[Monomial, Fraction | int]) -> "Polynomial":
        return _collect(dict(d))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: Monomial) -> Fraction:
        return Fraction(self.coeffs.get(m, 0))

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        return max(map(mono_degree, self.coeffs), default=-1)

    def variables(self) -> set:
        return {v for m in self.coeffs for v, _ in m}

    def __add__(self, other) -> "Polynomial":
        acc = self.coeffs.copy()
        for m, c in as_polynomial(other).coeffs.items():
            acc[m] = acc.get(m, 0) + c
        return _collect(acc)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-as_polynomial(other))

    def __rsub__(self, other) -> "Polynomial":
        return as_polynomial(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        right = as_polynomial(other).coeffs.items()
        acc: dict[Monomial, int | Fraction] = {}
        get = acc.get
        for m1, c1 in self.coeffs.items():
            for m2, c2 in right:
                m = mono_mul(m1, m2)
                acc[m] = get(m, 0) + c1 * c2
        return _collect(acc)

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


ZERO = Polynomial({})
ONE = Polynomial({MONE: 1})


def as_polynomial(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return constant(value)
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


def constant(c) -> Polynomial:
    return term(c, ())


def variable(v: Var) -> Polynomial:
    return Polynomial({monomial([(v, 1)]): 1})


def term(c, pairs: Iterable[tuple[Var, int]]) -> Polynomial:
    return _collect({monomial(pairs): Fraction(c)})


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

    def key(self, m: Monomial) -> tuple[int, ...]:
        """Flat tuple of ints: larger key means larger monomial."""
        vec = [0] * len(self.priority)
        for v, e in m:
            k = self._pos.get(v)
            if k is None:
                raise ValueError(f"variable {var_to_text(v)} not covered by the term order")
            vec[k] = e
        if self.kind == "lex":
            return tuple(vec)
        return (sum(vec),) + tuple(-e for e in reversed(vec))


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


def lead_monomial(f: Polynomial, order: TermOrder) -> Monomial:
    if f.is_zero:
        raise ValueError("zero polynomial has no lead term")
    return max(f.coeffs, key=order.key)


def generic_minor(rows: Iterable[int], cols: Iterable[int]) -> Polynomial:
    """Determinant of the z-submatrix on the given rows and columns.

    >>> poly_to_text(generic_minor([1, 2], [1, 2]))
    '-z[1,2]*z[2,1] + z[1,1]*z[2,2]'
    """
    rows = sorted(rows)
    cols = sorted(cols)
    if len(rows) != len(cols) or not rows:
        raise ValueError("row and column sets must be nonempty and of equal size")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("row and column indices must be distinct")
    # the Leibniz sum: with rows ascending each product is already a
    # monomial in variable order, and no two products share a monomial
    acc = {}
    for perm in permutations(cols):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        acc[tuple((z_(r, c), 1) for r, c in zip(rows, perm))] = -1 if inversions & 1 else 1
    return _collect(acc)


def _difference(f: Polynomial, i: int, shifts) -> Polynomial:
    """Sum over (k, sign) in shifts of sign * partial_i(x_{i+1}^k f).

    One bisection splits each monomial into (head, x_i^a, x_{i+1}^b,
    tail).  partial_i(x_i^a x_{i+1}^b) is the sum of x_i^p
    x_{i+1}^(a+b-1-p) over min(a, b) <= p < max(a, b), negated when
    a < b, and each of its monomials is spliced between head and tail.
    """
    if i < 1:
        raise ValueError("index must be positive")
    u, v = x_(i), x_(i + 1)
    U, V = [()], [()]  # U[p] is ((x_i, p),), made once; () for p = 0
    acc: dict[Monomial, int | Fraction] = {}
    get = acc.get
    for m, c in f.coeffs.items():
        k = bisect_left(m, (u,))
        a = m[k][1] if k < len(m) and m[k][0] == u else 0
        j = k + (a > 0)
        b = m[j][1] if j < len(m) and m[j][0] == v else 0
        head, tail = m[:k], m[j + (b > 0) :]
        while len(U) <= a + b:  # no new exponent exceeds max(a - 1, b)
            U.append(((u, len(U)),))
            V.append(((v, len(V)),))
        for shift, sign in shifts:
            bk = b + shift
            if a == bk:
                continue
            lo, hi, s = (bk, a, sign * c) if a > bk else (a, bk, -sign * c)
            for p in range(lo, hi):
                nm = head + U[p] + V[a + bk - 1 - p] + tail
                acc[nm] = get(nm, 0) + s
    return _collect(acc)


def divided_difference(f: Polynomial, i: int) -> Polynomial:
    """Newton divided difference (f - swap_i f) / (x_i - x_{i+1}).

    Computed term by term with no division: each output monomial is
    spliced around the new x_i and x_{i+1} exponents and integer
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


_VAR_RE = re.compile(r"^([xyz])\[(\d+(?:,\d+)*)\](?:\^(\d+))?$")
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
