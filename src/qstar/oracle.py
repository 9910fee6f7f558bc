"""Ground-truth checks in the explicit 2n-variable polynomial ring.

NPoly is a sparse exact polynomial in x_1..x_n, y_1..y_n and h.  Elementary
multisymmetric functions are expanded straight from their generating
product, the n-particle Moyal product is applied term by term, and the main
star-product identity is verified coefficient for coefficient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import chain, product
from math import comb, perm
from operator import add, sub

from .algebra import Monomial2
from .expansion import ETerm, StarExpansion, star_product
from .tables import classical_product, weight


class NPoly:
    """Exact polynomial over n copies of (x, y) plus the formal h.

    Exponent keys are tuples (ex_1..ex_n, ey_1..ey_n, eh).  Coefficients
    keep the exact type they were given: ints from the engine, Fractions
    where a caller passes them.  The constructor is the one place that
    drops zero coefficients, so none is ever stored.
    """

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, n: int) -> "NPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "NPoly":
        key = (0,) * (2 * n + 1)
        return cls(n, {key: c})

    @classmethod
    def from_monomial(cls, mono: Monomial2, copy: int, n: int) -> "NPoly":
        """The monomial evaluated at copy i, i.e. x_i^c y_i^d."""
        key = [0] * (2 * n + 1)
        key[copy - 1] = mono.x
        key[n + copy - 1] = mono.y
        return cls(n, {tuple(key): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other: "NPoly") -> "NPoly":
        if self.n != other.n:
            raise ValueError("mismatched number of copies")
        return _accumulate(
            self.n, chain(self.terms.items(), other.terms.items())
        )

    def __sub__(self, other: "NPoly") -> "NPoly":
        return self + (other * -1)

    def __mul__(self, other):
        if not isinstance(other, NPoly):
            return NPoly(
                self.n, {k: v * other for k, v in self.terms.items()}
            )
        if self.n != other.n:
            raise ValueError("mismatched number of copies")
        return _accumulate(self.n, (
            (tuple(map(add, k1, k2)), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__

    def shift_hbar(self, k: int) -> "NPoly":
        return NPoly(
            self.n,
            {key[:-1] + (key[-1] + k,): c for key, c in self.terms.items()},
        )

    def hbar_coefficient(self, k: int) -> "NPoly":
        """Coefficient of h^k, as an h-free polynomial."""
        return NPoly(self.n, {
            key[:-1] + (0,): c for key, c in self.terms.items()
            if key[-1] == k
        })

    def has_hbar(self) -> bool:
        return any(key[-1] for key in self.terms)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def permute_copies(self, perm_map) -> "NPoly":
        """Apply a permutation of copy indices; perm_map[i] is 0-based."""
        out = {}
        for key, c in self.terms.items():
            new = [0] * (2 * self.n + 1)
            for i in range(self.n):
                new[perm_map[i]] = key[i]
                new[self.n + perm_map[i]] = key[self.n + i]
            new[-1] = key[-1]
            out[tuple(new)] = c
        return NPoly(self.n, out)

    def __repr__(self) -> str:
        return f"NPoly(n={self.n}, {len(self.terms)} terms)"


def _accumulate(n: int, pairs) -> NPoly:
    """Sum (key, coefficient) pairs into one polynomial.

    Every sparse sum of this module goes through here: the pairs are added
    into one dict in a single pass, and NPoly drops the zeros.
    """
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return NPoly(n, out)


def _placed(poly: NPoly, mono: Monomial2, i: int):
    """(key, coefficient) pairs of poly times mono at 0-based copy i."""
    n = poly.n
    for key, c in poly.terms.items():
        key = list(key)
        key[i] += mono.x
        key[n + i] += mono.y
        yield tuple(key), c


def expand_elementary(alpha, p, n: int) -> NPoly:
    """Coefficient of t^alpha in prod_i (1 + sum_j p_j(i) t_j)."""
    alpha = tuple(alpha)
    p = tuple(p)
    if len(alpha) != len(p):
        raise ValueError("alpha and p must have equal length")
    if weight(alpha) > n:
        warnings.warn(
            f"|alpha|={weight(alpha)} exceeds n={n}: zero polynomial",
            stacklevel=2,
        )
        return NPoly.zero(n)
    # t-degree -> polynomial in the copies placed so far
    acc = {(0,) * len(alpha): NPoly.constant(n, 1)}
    for i in range(n):
        parts = {}
        for tdeg, poly in acc.items():
            # copy i + 1 left out: the "1" in its factor
            parts.setdefault(tdeg, []).append(poly.terms.items())
            for j, mono in enumerate(p):
                if tdeg[j] < alpha[j]:
                    ndeg = tdeg[:j] + (tdeg[j] + 1,) + tdeg[j + 1:]
                    parts.setdefault(ndeg, []).append(
                        _placed(poly, mono, i)
                    )
        acc = {
            tdeg: _accumulate(n, chain.from_iterable(streams))
            for tdeg, streams in parts.items()
        }
    return acc.get(alpha, NPoly.zero(n))


def expand_eterm(term: ETerm, n: int) -> NPoly:
    """Expand one symbolic term, including its scalar and h power.

    A term of total multiplicity above n expands to zero, with the warning
    expand_elementary gives.
    """
    poly = expand_elementary(term.multiplicities(), term.arguments(), n)
    return (poly * term.scalar).shift_hbar(term.hbar)


def moyal(f: NPoly, g: NPoly) -> NPoly:
    """n-particle Moyal product: all y-derivatives act on the left factor.

    f * g = sum_kappa h^|kappa| / kappa! * d_y^kappa f * d_x^kappa g, with
    kappa running over n-vectors.  Integer inputs give integer output; this
    is asserted rather than assumed.
    """
    if f.n != g.n:
        raise ValueError("mismatched number of copies")
    n = f.n

    def pairs():
        for kf, cf in f.terms.items():
            yexp = kf[n: 2 * n]
            for kg, cg in g.terms.items():
                xexp = kg[:n]
                base = tuple(map(add, kf, kg))
                ranges = [
                    range(min(d, e) + 1) for d, e in zip(yexp, xexp)
                ]
                for kappa in product(*ranges):
                    # kernel perm(d, k) perm(e, k) / k! = C(d, k) perm(e, k)
                    coeff = cf * cg
                    for d, e, k in zip(yexp, xexp, kappa):
                        if k:
                            coeff *= comb(d, k) * perm(e, k)
                    # x_i and y_i each lose kappa_i, h gains |kappa|
                    shift = kappa * 2 + (-sum(kappa),)
                    yield tuple(map(sub, base, shift)), coeff

    result = _accumulate(n, pairs())
    if f.is_integral() and g.is_integral():
        assert result.is_integral(), "Moyal product lost integrality"
    return result


def _derivative(f: NPoly, var: str, copy: int) -> NPoly:
    n = f.n
    pos = copy - 1 if var == "x" else n + copy - 1
    # lowering one exponent is injective on keys, so nothing merges
    return NPoly(n, {
        key[:pos] + (key[pos] - 1,) + key[pos + 1:]: c * key[pos]
        for key, c in f.terms.items()
        if key[pos]
    })


def poisson(f: NPoly, g: NPoly) -> NPoly:
    """Canonical bracket sum_i (dx_i f dy_i g - dy_i f dx_i g)."""
    if f.n != g.n:
        raise ValueError("mismatched number of copies")
    if f.has_hbar() or g.has_hbar():
        raise ValueError("poisson bracket requires h-free inputs")
    out = NPoly.zero(f.n)
    for i in range(1, f.n + 1):
        out = out + _derivative(f, "x", i) * _derivative(g, "y", i)
        out = out - _derivative(f, "y", i) * _derivative(g, "x", i)
    return out


def expand_terms(terms, n: int) -> NPoly:
    """Sum of the expanded symbolic terms, accumulated in one pass."""
    return _accumulate(n, chain.from_iterable(
        expand_eterm(term, n).terms.items() for term in terms
    ))


def expand_expansion(expansion: StarExpansion, n: int) -> NPoly:
    """Sum of all expanded terms of a star expansion."""
    return expand_terms(expansion.terms(), n)


@dataclass
class VerifyReport:
    identity_ok: bool
    classical_ok: bool
    paths_ok: bool
    details: list

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.classical_ok and self.paths_ok


def verify(alpha, beta, p, q, n, drop_scalars: bool = False) -> VerifyReport:
    """End-to-end check of the star expansion against the Moyal oracle.

    drop_scalars is a negative-control hook: it strips the term scalars
    before comparing, which must make the identity fail whenever a
    nontrivial kernel coefficient occurs.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    p = tuple(p)
    q = tuple(q)
    details = []
    exp_enum = star_product(alpha, beta, p, q, n, path="enumerate")
    exp_lift = star_product(alpha, beta, p, q, n, path="lift")
    paths_ok = exp_enum.canonical() == exp_lift.canonical()
    if not paths_ok:
        details.append("enumerate and lift paths produced different terms")

    expansion = exp_enum
    if drop_scalars:
        expansion = replace(exp_enum, by_order={
            m: [replace(t, scalar=1) for t in ts]
            for m, ts in exp_enum.by_order.items()
        })

    lhs = expand_expansion(expansion, n)
    rhs = moyal(
        expand_elementary(alpha, p, n), expand_elementary(beta, q, n)
    )
    identity_ok = lhs == rhs
    if not identity_ok:
        diff = lhs - rhs
        details.append(
            f"expansion differs from Moyal oracle in {len(diff.terms)} "
            f"coefficient(s), e.g. {sorted(diff.terms.items())[:3]}"
        )

    classical_poly = expand_terms(classical_product(alpha, p, beta, q, n), n)
    classical_ok = lhs.hbar_coefficient(0) == classical_poly
    if not classical_ok:
        details.append("h^0 slice differs from the classical product")

    return VerifyReport(identity_ok, classical_ok, paths_ok, details)
