"""Monomials in x, y, the star kernel, the B argument table and ETerm terms.

The star product of two monomials x^c y^d * x^f y^g expands as a finite sum

    sum_{k=0}^{min(d,f)} C(d,k) (f)_k  x^{c+f-k} y^{d+g-k} h^k

with (f)_k the falling factorial.  The y-degree of the left factor and the
x-degree of the right factor drive the expansion length; everything here is
exact integer arithmetic.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from typing import NamedTuple


class Monomial2(NamedTuple("_Exponents", [("x", int), ("y", int)])):
    """A monomial x^x_exp * y^y_exp with nonnegative exponents.

    A tuple (x, y), so monomials compare and hash in C; the tuple's + and
    repetition raise TypeError rather than act on the exponents.
    """

    __slots__ = ()

    def __new__(cls, x: int = 0, y: int = 0):
        if x < 0 or y < 0:
            raise ValueError("monomial exponents must be nonnegative")
        return super().__new__(cls, x, y)

    def degree(self) -> int:
        return self.x + self.y

    def __mul__(self, other: "Monomial2") -> "Monomial2":
        # commutative (classical) product
        return Monomial2(self.x + other.x, self.y + other.y)

    def __add__(self, other):
        raise TypeError("monomials neither add nor repeat")

    __rmul__ = __add__


class ScaledMonomial(NamedTuple("_Scaled", [("coeff", int),
                                            ("mono", Monomial2)])):
    """An integer multiple of a monomial; coeff 0 is the canonical zero."""

    __slots__ = ()

    def __new__(cls, coeff: int, mono: Monomial2 = Monomial2()):
        # zero terms compare equal regardless of the carried monomial
        return super().__new__(cls, coeff, mono if coeff else Monomial2())


def star_pair(p: Monomial2, q: Monomial2) -> list[tuple[int, ScaledMonomial]]:
    """All h-graded terms of the monomial star product p * q.

    Returns [(k, term)] for k = 0..min(p.y, q.x); the k = 0 coefficient is
    always 1 and term k has total degree deg(p) + deg(q) - 2k.  The
    coefficients C(d, k) (e)_k, with d = deg_y p and e = deg_x q, follow
    the exact recurrence c_{k+1} = c_k (d - k)(e - k) / (k + 1).
    """
    d, e = p.y, q.x
    out = []
    coeff = 1
    for k in range(min(d, e) + 1):
        mono = Monomial2(p.x + e - k, d + q.y - k)
        out.append((k, ScaledMonomial(coeff, mono)))
        coeff = coeff * (d - k) * (e - k) // (k + 1)
    return out


class BTable(NamedTuple):
    """The flattened argument table B(p, q), keyed by cubical place.

    entries maps each place (k, i, j) of a cubical matrix, indexed as in
    CubicalMatrix.entries (row 0 and column 0 the boundary), to the
    argument a unit there contributes: (0, i, 0) to p_i, (0, 0, j) to q_j
    and (k, i, j) to the star-kernel term of grade k for p_i * q_j, for
    k <= K_ij, so an interior place missing from the map lies above K_ij.
    Its flat order, the by-pair vector layout, is p's, q's, then the pairs
    (i, j) row-major with k innermost; columns maps each place to its index.
    Equal p and q give equal tables; holding dicts, a table is unhashable.
    l(B), the flat length, is len(entries).
    """

    p_args: tuple
    q_args: tuple
    entries: dict
    columns: dict

    @property
    def a(self) -> int:
        return len(self.p_args)

    @property
    def b(self) -> int:
        return len(self.q_args)

    def k_max(self, i: int, j: int) -> int:
        """Highest h-grade K_ij with a nonzero entry for the pair (i, j)."""
        return min(self.p_args[i - 1].y, self.q_args[j - 1].x)


def build_B(p, q) -> BTable:
    """Construct the B table for monomial lists p and q, as in BTable."""
    p = tuple(p)
    q = tuple(q)
    if not p or not q:
        raise ValueError("p and q must be nonempty")
    entries = {}
    for i, pi in enumerate(p, start=1):
        entries[0, i, 0] = ScaledMonomial(1, pi)
    for j, qj in enumerate(q, start=1):
        entries[0, 0, j] = ScaledMonomial(1, qj)
    for i, pi in enumerate(p, start=1):
        for j, qj in enumerate(q, start=1):
            for k, term in star_pair(pi, qj):
                entries[k, i, j] = term
    columns = {place: col for col, place in enumerate(entries)}
    return BTable(p, q, entries, columns)


def canonical_slots(slots) -> tuple:
    """Sort (multiplicity, monomial) slots; equal monomials stay separate.

    The order is total degree, then x, then y, then multiplicity, sorted
    as plain tuples with no key function.
    """
    keyed = sorted([(mono.x + mono.y, mono, mult) for mult, mono in slots])
    return tuple([(mult, mono) for _, mono, mult in keyed])


class ETerm(NamedTuple):
    """scalar * e_(multiplicities)(monomials) * h^hbar.

    slots holds ordered (multiplicity, Monomial2) pairs.  A term keeps no
    matrix: pair each capped matrix with its term through the lift route,
    (gamma_to_eterm(g, btable), g) for g in lift_all(L, M, btable.k_max).
    """

    hbar: int
    scalar: int
    slots: tuple

    def multiplicities(self) -> tuple:
        return tuple(mult for mult, _ in self.slots)

    def arguments(self) -> tuple:
        return tuple(mono for _, mono in self.slots)


# sign, coefficient digits, x part, y part; only ASCII digits
_MONOMIAL = re.compile(r"([+-]?)([0-9]*)(x(?:\^([0-9]+))?)?(y(?:\^([0-9]+))?)?")


class MonomialSyntaxError(ValueError):
    """Malformed monomial text; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def parse_monomial(text: str) -> ScaledMonomial:
    """Parse compact monomial text like "x^2y", "3x^4" or "-2y^3".

    The grammar is _MONOMIAL, and at least one of the coefficient, the x
    part and the y part must be present.  The parts convert in text order
    before any syntax error is raised, so an oversized number ahead of the
    error raises int()'s ValueError, as a left-to-right scan would.
    """
    match = _MONOMIAL.match(text)
    sign, digits, x, x_exp, y, y_exp = match.groups()
    coeff = int(digits) if digits else 1
    mono = Monomial2(int(x_exp or 1) if x else 0, int(y_exp or 1) if y else 0)
    end = match.end()
    if end < len(text):
        if end and text[end - 1:end + 1] in ("x^", "y^"):
            raise MonomialSyntaxError("expected digits", end + 1)
        raise MonomialSyntaxError(f"unexpected character {text[end]!r}", end)
    if not (digits or x or y):
        raise MonomialSyntaxError("empty monomial", 0)
    return ScaledMonomial(-coeff if sign == "-" else coeff, mono)


def render_monomial(sm: ScaledMonomial) -> str:
    """Canonical text form: "1" coefficients and "^1" exponents omitted."""
    if sm.coeff == 0:
        return "0"
    parts = []
    m = sm.mono
    if m == Monomial2():
        return str(sm.coeff)
    if sm.coeff == -1:
        parts.append("-")
    elif sm.coeff != 1:
        parts.append(str(sm.coeff))
    for var, e in (("x", m.x), ("y", m.y)):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
    return "".join(parts)


@contextmanager
def full_ints():
    """Lift Python 3.11+'s int-to-str digit limit inside the block: each
    writer of an integer that can outgrow the input enters it; parsing keeps
    the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
