"""Monomials in x, y, the monomial star kernel, and the B argument table.

The star product of two monomials x^c y^d * x^f y^g expands as a finite sum

    sum_{k=0}^{min(d,f)} C(d,k) (f)_k  x^{c+f-k} y^{d+g-k} h^k

with (f)_k the falling factorial.  The y-degree of the left factor and the
x-degree of the right factor drive the expansion length; everything here is
exact integer arithmetic.
"""

from __future__ import annotations

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

    def is_zero(self) -> bool:
        return self.coeff == 0


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


class _ReadOnly:
    """Base of the __slots__ records: __init__ sets each field once."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class BTable(_ReadOnly):
    """The flattened argument table B(p, q), keyed by cubical place.

    entries maps each place (k, i, j) of a cubical matrix, indexed as in
    CubicalMatrix.entries (row 0 and column 0 the boundary), to the
    argument a unit there contributes: (0, i, 0) to p_i, (0, 0, j) to q_j
    and (k, i, j) to the star-kernel term of grade k for p_i * q_j, for
    k <= K_ij, so an interior place missing from the map lies above K_ij.
    The map is in flat order, which is also the by-pair vector layout:
    p's, then q's, then the pairs (i, j) row-major with k innermost.
    """

    __slots__ = ("p_args", "q_args", "entries")

    def __init__(self, p_args: tuple, q_args: tuple, entries: dict):
        object.__setattr__(self, "p_args", p_args)
        object.__setattr__(self, "q_args", q_args)
        object.__setattr__(self, "entries", entries)

    @property
    def a(self) -> int:
        return len(self.p_args)

    @property
    def b(self) -> int:
        return len(self.q_args)

    def k_max(self, i: int, j: int) -> int:
        """Highest h-grade K_ij with a nonzero entry for the pair (i, j)."""
        return min(self.p_args[i - 1].y, self.q_args[j - 1].x)

    def flat_entries(self) -> list[ScaledMonomial]:
        return list(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)


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
    return BTable(p, q, entries)


def b_length(p, q) -> int:
    """Flat length l(B) of B(p, q)."""
    return len(build_B(p, q))


class MonomialSyntaxError(ValueError):
    """Malformed monomial text; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _scan_digits(text: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise MonomialSyntaxError("expected digits", start)
    return int(text[start:pos]), pos


def parse_monomial(text: str) -> ScaledMonomial:
    """Parse compact monomial text like "x^2y", "3x^4" or "-2y^3".

    Grammar: sign? digits? xpart? ypart? with xpart = "x" ("^" digits)? and
    likewise for y; at least one of the three parts must be present.
    """
    pos = 0
    sign = 1
    if pos < len(text) and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    coeff = None
    if pos < len(text) and "0" <= text[pos] <= "9":
        coeff, pos = _scan_digits(text, pos)
    exps = {}
    for var in "xy":
        if pos < len(text) and text[pos] == var:
            pos += 1
            if pos < len(text) and text[pos] == "^":
                pos += 1
                exps[var], pos = _scan_digits(text, pos)
            else:
                exps[var] = 1
    if pos != len(text):
        raise MonomialSyntaxError(f"unexpected character {text[pos]!r}", pos)
    if coeff is None and not exps:
        raise MonomialSyntaxError("empty monomial", 0)
    c = sign * (1 if coeff is None else coeff)
    return ScaledMonomial(c, Monomial2(exps.get("x", 0), exps.get("y", 0)))


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
