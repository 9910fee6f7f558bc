"""Assembly of symbolic star-product terms from cubical matrices.

Each cubical matrix contributes one elementary multisymmetric term whose
arguments are read off the B table at the places (k, i, j) of its runs.
Star-kernel coefficients enter the term scalar raised to the slot
multiplicity; a matrix with a unit above the pair's top grade K_ij
contributes nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    BTable,
    Monomial2,
    ScaledMonomial,
    _ReadOnly,
    build_B,
    render_monomial,
)
from .cubes import CubicalMatrix, contributing_support, lift_all, max_order
from .tables import level_stacks, weight


def canonical_slots(slots) -> tuple:
    """Sort (multiplicity, monomial) slots; equal monomials stay separate.

    The order is total degree, then x, then y, then multiplicity, sorted
    as plain tuples with no key function.
    """
    keyed = sorted([(mono.x + mono.y, mono, mult) for mult, mono in slots])
    return tuple([(mult, mono) for _, mono, mult in keyed])


class ETerm(_ReadOnly):
    """scalar * e_(multiplicities)(monomials) * h^hbar.

    slots holds ordered (multiplicity, Monomial2) pairs; origin, the matrix
    the term came from, is left out of equality, hash and repr.
    """

    __slots__ = ("hbar", "scalar", "slots", "origin")

    def __init__(self, hbar: int, scalar: int, slots: tuple, origin=None):
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "origin", origin)

    def _key(self) -> tuple:
        return self.hbar, self.scalar, self.slots

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "ETerm(hbar={!r}, scalar={!r}, slots={!r})".format(*self._key())

    def multiplicities(self) -> tuple:
        return tuple(mult for mult, _ in self.slots)

    def arguments(self) -> tuple:
        return tuple(mono for _, mono in self.slots)


class StarExpansion(NamedTuple):
    alpha: tuple
    beta: tuple
    p: tuple
    q: tuple
    n: int
    s_bound: int
    m_bound: int
    by_order: dict  # hbar power -> list of ETerm

    def terms(self):
        for m in sorted(self.by_order):
            yield from self.by_order[m]

    def term_counts(self) -> dict:
        return {m: len(ts) for m, ts in sorted(self.by_order.items())}

    def order_slice(self, m: int) -> list:
        return list(self.by_order.get(m, ()))

    def canonical(self) -> list:
        """Sorted (hbar, scalar, slots) triples, for comparing expansions."""
        return sorted((t.hbar, t.scalar, t.slots) for t in self.terms())


def gamma_to_eterm(gamma: CubicalMatrix, btable: BTable):
    """One symbolic term per matrix, or None when the term vanishes.

    Run (k, i, j, v) takes the argument at place (k, i, j) of
    btable.entries v times.  An interior run with no place is a unit above
    K_ij, so the term vanishes; any other run with no place raises.
    """
    a, b = gamma.a, gamma.b
    if a != btable.a or b != btable.b:
        raise ValueError("matrix dimensions do not match the BTable")
    slots = []
    scalar = 1
    hbar = 0
    for k, i, j, v in gamma.entries:
        entry = btable.entries.get((k, i, j))
        if entry is None:
            if 0 < i <= a and 0 < j <= b:
                return None
            raise ValueError(f"run {k, i, j, v} is outside the shape {a},{b}")
        scalar *= entry.coeff ** v
        slots.append((v, entry.mono))
        hbar += k * v
    return ETerm(hbar, scalar, canonical_slots(slots), gamma)


def star_product(alpha, beta, p, q, n, path: str = "enumerate") -> StarExpansion:
    """Full star product of e_alpha(p) and e_beta(q), truncated at S and M.

    The enumerate path makes one pass over the level stacks with the cap of
    cell (i, j) at K_ij and weight at most M, so every matrix contributes.
    The lift path makes one lift_all call with the same caps and budget, so
    it builds no vanishing term either, and places the levels without
    tables.level_stacks.  The per-slice sort by (slots, scalar) renders
    both paths' terms alike, whatever order they come in.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    p = tuple(p)
    q = tuple(q)
    if len(p) != len(alpha) or len(q) != len(beta):
        raise ValueError("monomial lists must match multi-index lengths")
    if weight(alpha) > n or weight(beta) > n:
        raise ValueError("margins exceed n")
    if path not in ("enumerate", "lift"):
        raise ValueError(f"unknown path {path!r}")
    btable = build_B(p, q)
    s_bound = contributing_support(p, q)
    m_bound = max_order(alpha, beta, n, s_bound)
    if path == "enumerate":
        gammas = (
            CubicalMatrix(len(alpha), len(beta), runs)
            for runs in level_stacks(alpha, beta, n, btable.k_max, m_bound)
        )
    else:
        gammas = lift_all(alpha, beta, n, m_bound, btable.k_max)
    by_order = {}
    for gamma in gammas:
        term = gamma_to_eterm(gamma, btable)
        if term is not None:
            by_order.setdefault(term.hbar, []).append(term)
    for terms in by_order.values():
        terms.sort(key=lambda t: (t.slots, t.scalar))
    return StarExpansion(
        alpha, beta, p, q, n, s_bound, m_bound, by_order
    )


def _monomial_text(mono: Monomial2) -> str:
    return render_monomial(ScaledMonomial(1, mono))


def _render_text(expansion: StarExpansion) -> str:
    texts = {}  # each distinct argument rendered once
    out = []
    for t in expansion.terms():
        mults = ",".join(str(mult) for mult, _ in t.slots)
        args = []
        for _, mono in t.slots:
            text = texts.get(mono)
            if text is None:
                text = texts[mono] = _monomial_text(mono)
            args.append(text)
        body = f"e_({mults})({','.join(args)})"
        if t.scalar != 1:
            body = f"{t.scalar} {body}"
        if t.hbar == 1:
            body += " h"
        elif t.hbar > 1:
            body += f" h^{t.hbar}"
        out.append(body)
    return " + ".join(out)


def _json_list(items: list, indent: str) -> str:
    """A list whose items are already written at indent + 2 spaces."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _json_term(t: ETerm) -> str:
    slots = [
        f'        {{\n          "mult": {mult},\n          "monomial": {{\n'
        f'            "x": {mono.x},\n            "y": {mono.y}\n'
        f'          }}\n        }}'
        for mult, mono in t.slots
    ]
    return (
        f'    {{\n      "m": {t.hbar},\n      "scalar": {t.scalar},\n'
        f'      "slots": {_json_list(slots, "      ")}\n    }}'
    )


def _render_json(expansion: StarExpansion) -> str:
    import json  # here, so that importing the CLI does not load json
    head = json.dumps({
        "params": {
            "alpha": list(expansion.alpha),
            "beta": list(expansion.beta),
            "p": [_monomial_text(mono) for mono in expansion.p],
            "q": [_monomial_text(mono) for mono in expansion.q],
            "n": expansion.n,
        },
        "bounds": {"S": expansion.s_bound, "M": expansion.m_bound},
    }, indent=2)
    terms = [_json_term(t) for t in expansion.terms()]
    # head ends with the closing brace of "bounds" and then of the document
    return head[:-2] + ',\n  "terms": ' + _json_list(terms, "  ") + "\n}"


def render(expansion: StarExpansion, fmt: str = "text") -> str:
    """Deterministic serialization; text mirrors e_(...)(...) h^m notation.

    JSON is the bytes of json.dumps(doc, indent=2) for the document
    {"params", "bounds", "terms"}, but only the params/bounds head goes
    through json; the terms are written directly at the same indentation,
    and tests/test_expansion.py holds the two byte-identical.  JSON
    "bounds.S" is the sharp contributing_support the expansion was
    truncated at, not the paper's length-based max_support.
    """
    if fmt == "text":
        return _render_text(expansion)
    if fmt == "json":
        return _render_json(expansion)
    raise ValueError(f"unknown format {fmt!r}")
