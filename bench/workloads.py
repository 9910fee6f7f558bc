"""Seeded op generators for the benchmark workloads.

Each generator returns one *pass*: a list of distinct ops.  An op is the
argv list handed to ``qstar.cli.main`` plus the structured spec the
correctness checks read; the program itself only ever sees the argv.

Costs grow steeply with margin shape, n and the kernel grade K, so drawing
specs independently would make the pass cost, and with it every timing,
depend on the seed.  The generators therefore stratify: every pass holds
the same classes of spec in the same numbers (margins, grades, n, output
format), and the seed draws what does not set the cost (the order of
entries, the exponents that set no grade, the order of ops).  That keeps
two seeds' timings comparable while their inputs and outputs differ.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str  # star | verify | enum | word
    spec: dict = field(compare=False, hash=False)

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _monos(exps) -> str:
    return ",".join(f"x^{x}y^{y}" for x, y in exps)


def _grade(p, q) -> int:
    """K = max_ij min(deg_y p_i, deg_x q_j), the sharp support bound."""
    return max(min(pi[1], qj[0]) for pi in p for qj in q)


def _exponents(rng, a, b, k, top=3):
    """Exponent pairs for p (a of them) and q (b of them), grade exactly k."""
    while True:
        p = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(a)]
        q = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(b)]
        if _grade(p, q) == k:
            return p, q


def _shuffled(rng, values) -> tuple:
    values = list(values)
    rng.shuffle(values)
    return tuple(values)


def _spec_op(command, alpha, beta, p, q, n, fmt=None):
    argv = (
        command, "--alpha", _csv(alpha), "--beta", _csv(beta),
        "--p", _monos(p), "--q", _monos(q), "--n", str(n),
    )
    if fmt is not None:
        argv += ("--format", fmt)
    return Op(argv, command, {"alpha": alpha, "beta": beta, "p": p, "q": q,
                              "n": n, "format": fmt})


# -- star-wide ---------------------------------------------------------------

WIDE_MARGINS = [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2)]
# Largest grade drawn per number of interior cells a*b.  Above these the
# three-entry shapes run for seconds per op, longer than a pass should.
WIDE_GRADE_CAP = {4: 3, 6: 2, 9: 1}
WIDE_MAX_N = 6
# ROADMAP ladder rungs that fit in a pass; run verbatim on every seed.
WIDE_RUNGS = [
    ((1, 1), (2, 1), [(2, 1), (3, 1)], [(3, 0), (2, 2)], 4, "text"),
    ((1, 1), (2, 1), [(2, 1), (3, 1)], [(3, 0), (2, 2)], 4, "json"),
    ((2, 2), (2, 2), [(2, 3), (1, 3)], [(3, 1), (4, 2)], 6, "text"),
    ((1, 1, 1), (1, 1, 1), [(1, 2), (0, 3), (2, 2)],
     [(3, 0), (2, 1), (2, 2)], 4, "json"),
]


def _classes(margins, grade_cap, max_n):
    """(alpha, beta, K, n, format) classes, the same for every seed.

    Enumeration cost is set by the margins, n and K; n rotates through its
    range across the classes of one margin pair, and half the classes
    render JSON.
    """
    out = []
    for pair, (alpha, beta) in enumerate(
        (alpha, beta) for alpha in margins for beta in margins
    ):
        n_range = range(max(sum(alpha), sum(beta)), max_n + 1)
        for k in range(grade_cap(alpha, beta) + 1):
            n = n_range[(pair + k) % len(n_range)]
            out.append((alpha, beta, k, n, "json" if len(out) % 2 else "text"))
    return out


def star_wide(rng) -> list[Op]:
    """One op per (alpha, beta, K) class plus the fixed ladder rungs.

    Which matrices vanish depends on every pair's grade, so each class
    fixes its y-degrees of p and x-degrees of q (drawn once from the class
    itself); the seed draws the other degrees and the order of entries.
    """
    ops = []
    for alpha, beta, k, n, fmt in _classes(
        WIDE_MARGINS, lambda a, b: WIDE_GRADE_CAP[len(a) * len(b)],
        WIDE_MAX_N,
    ):
        grades = random.Random(f"star-wide/{alpha}/{beta}/{k}")
        p_deg, q_deg = _exponents(grades, len(alpha), len(beta), k)
        p = [(rng.randint(0, 3), y) for _, y in p_deg]
        q = [(x, rng.randint(0, 3)) for x, _ in q_deg]
        left = _shuffled(rng, zip(alpha, p))
        right = _shuffled(rng, zip(beta, q))
        ops.append(_spec_op(
            "star", tuple(a for a, _ in left), tuple(b for b, _ in right),
            [m for _, m in left], [m for _, m in right], n, fmt,
        ))
    for alpha, beta, p, q, n, fmt in WIDE_RUNGS:
        ops.append(_spec_op("star", alpha, beta, p, q, n, fmt))
    rng.shuffle(ops)
    return ops


# -- star-deep ---------------------------------------------------------------

# (alpha, beta, ops per pass, lowest K, highest K).  (2);(2) alone at
# K = 60 takes 6.3 s, so margins holding a 2 stay at K <= 40.
DEEP_STRATA = [
    ((1,), (1,), 24, 40, 150),
    ((1,), (2,), 6, 20, 40),
    ((2,), (1,), 6, 20, 40),
    ((2,), (2,), 5, 12, 28),
]


def star_deep(rng) -> list[Op]:
    """Single-cell products with many levels, K spread over its range.

    Cost grows about as K^3, so the ops of a pass span two decades of it
    and a uniform draw of K would move the median and tail op from seed to
    seed.  K is instead drawn within one of the points of a geometric grid,
    which spaces the ops' costs evenly on a log scale.
    """
    ops = []
    for alpha, beta, count, lo, hi in DEEP_STRATA:
        for slot in range(count):
            k = round(lo * (hi / lo) ** (slot / (count - 1)))
            k = min(max(k + rng.randint(-1, 1), lo), hi)
            n = 2 if max(alpha[0], beta[0]) == 2 else 1 + slot % 2
            # one side carries exactly K, the other may exceed it
            extra = rng.randint(0, 3)
            dy, dx = (0, extra) if rng.random() < 0.5 else (extra, 0)
            p = [(rng.randint(0, 3), k + dy)]
            q = [(k + dx, rng.randint(0, 3))]
            fmt = "json" if len(ops) % 2 else "text"
            ops.append(_spec_op("star", alpha, beta, p, q, n, fmt))
    rng.shuffle(ops)
    return ops


# -- verify-oracle -----------------------------------------------------------

VERIFY_MARGINS = [(1,), (2,), (3,), (1, 1), (1, 2)]
VERIFY_MAX_N = 5
VERIFY_TOP = 3  # largest exponent


def _oracle_exponents(rng, a, b, k):
    """Exponents with every pair's grade min(deg_y p_i, deg_x q_j) equal to k.

    The Moyal sum runs over min(deg_y, deg_x) per copy, so the oracle's
    cost is fixed by k; the seed draws the other degrees, which one side
    sits exactly at k, and distinct monomials within p and within q.
    """
    p_x = rng.sample(range(VERIFY_TOP + 1), a)
    q_y = rng.sample(range(VERIFY_TOP + 1), b)
    if rng.random() < 0.5:
        p_y = [k] * a
        q_x = [rng.randint(k, VERIFY_TOP) for _ in range(b)]
    else:
        p_y = [rng.randint(k, VERIFY_TOP) for _ in range(a)]
        q_x = [k] * b
    return list(zip(p_x, p_y)), list(zip(q_x, q_y))


def verify_oracle(rng) -> list[Op]:
    """One verify per (alpha, beta, K) class, margins of weight <= 3."""
    ops = []
    for alpha, beta, k, n, _ in _classes(
        VERIFY_MARGINS, lambda a, b: VERIFY_TOP, VERIFY_MAX_N
    ):
        alpha, beta = _shuffled(rng, alpha), _shuffled(rng, beta)
        p, q = _oracle_exponents(rng, len(alpha), len(beta), k)
        ops.append(_spec_op("verify", alpha, beta, p, q, n))
    rng.shuffle(ops)
    return ops


# -- enum-words --------------------------------------------------------------

ENUM_MARGINS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (1, 1, 2)]
ENUM_LEVELS = range(5)
ENUM_MAX_N = 6


def _enum_op(kind, alpha, beta, n, extra=(), **spec):
    argv = ("enum", kind, "--alpha", _csv(alpha), "--beta", _csv(beta),
            "--n", str(n), *extra)
    return Op(argv, "enum", {"what": kind, "alpha": alpha, "beta": beta,
                             "n": n, "count_only": "--count-only" in extra,
                             **spec})


def _random_word(rng, a, b, length):
    """A sorted 3-word with a preimage: no (s,1,1), no s > 0 on the border."""
    cols = []
    while len(cols) < length:
        s = rng.choice([0, 0, 1, 2, 3])
        lo = 2 if s else 1
        i, j = rng.randint(lo, a + 1), rng.randint(lo, b + 1)
        if (i, j) != (1, 1):
            cols.append((s, i, j))
    return tuple(sorted(cols))


def _render_word(cols) -> str:
    return ";".join(f"({s},{i},{j})" for s, i, j in cols)


def enum_words(rng) -> list[Op]:
    """enum L|Q|A over a margin x level grid, plus word codec round trips."""
    ops = []
    grid = [(alpha, beta) for alpha in ENUM_MARGINS for beta in ENUM_MARGINS]
    for idx, (alpha, beta) in enumerate(grid):
        # n and m set the enumerators' cost, so they are fixed per grid cell
        n_range = range(max(sum(alpha), sum(beta)), ENUM_MAX_N + 1)
        n = n_range[idx % len(n_range)]
        m = ENUM_LEVELS[idx % len(ENUM_LEVELS)]
        alpha, beta = _shuffled(rng, alpha), _shuffled(rng, beta)
        count_only = ("--count-only",) if idx % 2 else ()
        ops.append(_enum_op("L", alpha, beta, n, count_only))
        ops.append(_enum_op("A", alpha, beta, n, ("--m", str(m)), m=m))
        ops.append(_enum_op("Q", alpha, beta, n, ("--m", str(m)), m=m))
        # by-pair needs every pair's grade K_ij >= m
        k = rng.randint(m, m + 2)
        p = [(rng.randint(0, 3), k + rng.randint(0, 1)) for _ in alpha]
        q = [(k + rng.randint(0, 1), rng.randint(0, 3)) for _ in beta]
        ops.append(_enum_op(
            "Q", alpha, beta, n,
            ("--m", str(m), "--layout", "by-pair",
             "--p", _monos(p), "--q", _monos(q)),
            m=m,
        ))
    for idx in range(len(grid)):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        levels = 1 + idx % 4
        vec = [rng.choice([0, 0, 1, 2]) for _ in range(a + b + levels * a * b)]
        ops.append(Op(("word", "encode", _csv(vec), "--shape", _csv((a, b))),
                      "word", {"action": "encode", "vector": tuple(vec),
                               "shape": (a, b)}))
        cols = _random_word(rng, a, b, 1 + idx % 8)
        shaped = idx % 2 == 0
        argv = ["word", "decode", _render_word(cols)]
        if shaped:
            argv += ["--shape", _csv((a, b))]
            shape = (a, b)
        else:
            shape = (max(max(c[1] for c in cols) - 1, 1),
                     max(max(c[2] for c in cols) - 1, 1))
        ops.append(Op(tuple(argv), "word",
                      {"action": "decode", "word": cols, "shape": shape}))
        cols = _random_word(rng, a, b, 1 + (idx + 3) % 8)
        ops.append(Op(("word", "stats", _render_word(cols)), "word",
                      {"action": "stats", "word": cols}))
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "star-wide": star_wide,
    "star-deep": star_deep,
    "verify-oracle": verify_oracle,
    "enum-words": enum_words,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The distinct ops of one pass; the same seed gives the same ops."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))
