"""Correctness gate: which ops produced wrong output.

Every generated op is valid input, so an op fails when it exits non-zero,
raises, prints a traceback or prints wrong output.  Output is checked two
ways, once per distinct op and outside the timed region:

* on the default seed, against a SHA-256 digest per op recorded at the
  commit that defined the benchmark (``golden.json``), which holds the text
  and JSON bytes fixed;
* on any seed, against an independent route: star terms against the
  ``lift`` route, or for single-cell margins against the word route (see
  ``_word_route``), ``enum`` counts against the other enumerator (Q and L
  against the word enumerator A, A against Q), and the word codec by
  decode/encode round trips.
"""

from __future__ import annotations

import hashlib

from qstar import cubes, expansion, words
from qstar.algebra import Monomial2, build_B

VERIFY_OK = "oracle identity: ok\nclassical slice: ok\npath agreement:  ok\n"


def digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def _emitted(text: str) -> str:
    """What the CLI prints for a rendered text."""
    return text + "\n" if text else ""


def _parse_word(text: str) -> tuple:
    if not text.strip():
        return ()
    return tuple(
        tuple(int(v) for v in chunk.strip("()").split(","))
        for chunk in text.strip().split(";")
    )


def _word_route(alpha, beta, p, q, n):
    """The star expansion with Q(m) taken from the word enumerator A.

    For a single cell the lift route lifts every classical matrix to every
    support level of every weight, O(K^2) lifts, about 30 times the time of
    the enumerate route at K = 150.  A is just as independent of
    enumerate_Q and stays fast there (but not for many cells, where lift is
    the cheaper).
    """
    btable = build_B(p, q)
    s_bound = cubes.contributing_support(p, q)
    m_bound = cubes.max_order(alpha, beta, n, s_bound)
    by_order = {}
    for m in range(m_bound + 1):
        terms = []
        for omega in words.enumerate_A(alpha, beta, n, m):
            gamma = words.decode(omega, shape=(len(alpha), len(beta)))
            if gamma.support_level() <= s_bound:
                term = expansion.gamma_to_eterm(gamma, btable)
                if term is not None:
                    terms.append(term)
        if terms:
            by_order[m] = sorted(terms, key=lambda t: (t.slots, t.scalar))
    return expansion.StarExpansion(
        alpha, beta, p, q, n, s_bound, m_bound, by_order
    )


def _check_star(spec, out):
    alpha, beta, n = spec["alpha"], spec["beta"], spec["n"]
    p = tuple(Monomial2(x, y) for x, y in spec["p"])
    q = tuple(Monomial2(x, y) for x, y in spec["q"])
    if len(alpha) * len(beta) == 1:
        route, want = "word", _word_route(alpha, beta, p, q, n)
    else:
        route = "lift"
        want = expansion.star_product(alpha, beta, p, q, n, path="lift")
    if out != _emitted(expansion.render(want, spec["format"])):
        return f"star output differs from the {route} route"
    return None


def _check_enum(spec, out):
    alpha, beta, n = spec["alpha"], spec["beta"], spec["n"]
    got = int(out) if spec["count_only"] else len(out.splitlines())
    if spec["what"] == "A":
        want = len(cubes.enumerate_Q(alpha, beta, n, spec["m"]))
    else:
        want = len(words.enumerate_A(alpha, beta, n, spec.get("m", 0)))
    if got != want:
        return f"enum {spec['what']} gave {got} items, the other route {want}"
    return None


def _check_word(spec, out):
    action = spec["action"]
    if action == "encode":
        a, b = spec["shape"]
        vec = spec["vector"]
        gamma = words.decode(words.ThreeWord(_parse_word(out)), shape=(a, b))
        levels = (len(vec) - a - b) // (a * b)
        if cubes.to_vector(gamma, levels=levels) != vec:
            return "encode does not round-trip through decode"
    elif action == "decode":
        vec = tuple(int(v) for v in out.strip().split(","))
        gamma = cubes.from_vector(vec, shape=spec["shape"])
        if words.encode(gamma).columns != spec["word"]:
            return "decode does not round-trip through encode"
    else:
        cols = spec["word"]

        def row_counts(row):
            top = max(c[row] for c in cols)
            return ",".join(
                str(sum(1 for c in cols if c[row] == v))
                for v in range(2, top + 1)
            )

        want = (f"N={len(cols)} s={cols[-1][0]} m={sum(c[0] for c in cols)} "
                f"alpha={row_counts(1)} beta={row_counts(2)}\n")
        if out != want:
            return "word stats differ from the word read directly"
    return None


def check_op(op, rc, out: str, err: str, golden: dict | None):
    """None when the op's result is correct, else the first reason."""
    if rc != 0:
        return f"exit code {rc}"
    if "Traceback" in err:
        return "printed a traceback"
    if golden is not None and golden.get(op.key) != digest(rc, out):
        return "digest differs from the recorded one"
    if op.kind == "star":
        return _check_star(op.spec, out)
    if op.kind == "verify":
        return None if out == VERIFY_OK else "verify did not report ok"
    if op.kind == "enum":
        return _check_enum(op.spec, out)
    return _check_word(op.spec, out)
