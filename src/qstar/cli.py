"""Command-line front-end.

Subcommands: star (full expansion), enum (L / Q / A listings), word
(3-word codec) and verify (oracle cross-check).  Exit codes: 0 ok,
1 verification failure, 2 input error, 3 internal path mismatch, 4 internal
error (any other exception, reported as one "error: internal:" line), 141
(128 + SIGPIPE, silently) when the output's reader leaves early, as in
`qstar ... | head`.  All output is deterministic for fixed inputs.  Only
verify loads the oracle.  A process builds the argument parser once and
reuses it for every main() call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager

from . import algebra, cubes, expansion, tables, words

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_PATH_MISMATCH = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 128 + 13  # SIGPIPE

# the enum options each kind reads; the others are refused, not ignored
ENUM_OPTIONS = {
    "L": (),
    "A": ("m",),
    "Q": ("m", "p", "q", "layout", "levels"),
}


def _int(text: str) -> int:
    """int(text), refusing the digit separators and non-ASCII digits it reads.

    int() takes "1_0" as 10 and Arabic-Indic digits; its sign and spaces stay.
    """
    if "_" in text or not text.isascii():
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type: "invalid int value"


def _parse_multiindex(text: str) -> tuple:
    try:
        values = tuple(_int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad multi-index {text!r}")
    if not values or any(v < 0 for v in values):
        raise ValueError(f"bad multi-index {text!r}")
    return values


def _parse_shape(text: str) -> tuple:
    shape = _parse_multiindex(text)
    if len(shape) != 2:
        raise ValueError(f"shape {text!r} needs two entries a,b")
    if min(shape) < 1:
        raise ValueError("shape entries must be positive")
    return shape


def _parse_monomials(text: str) -> tuple:
    out = []
    for part in text.split(","):
        sm = algebra.parse_monomial(part.strip())
        if sm.coeff != 1:
            raise ValueError(
                f"monomial {part!r} must have coefficient 1"
            )
        out.append(sm.mono)
    return tuple(out)


def _read_monomials(args, alpha, beta) -> tuple:
    p = _parse_monomials(args.p)
    q = _parse_monomials(args.q)
    if len(p) != len(alpha) or len(q) != len(beta):
        raise ValueError("monomial lists must match multi-index lengths")
    return p, q


@contextmanager
def _unlimited_int_digits():
    """Lift the int-to-str digit limit of Python 3.11+ inside the block.

    Star scalars grow without bound; parsing keeps the limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_word(text: str) -> words.ThreeWord:
    """Parse "(s,i,j);(s,i,j);..." columns; blank text is the empty word."""
    text = text.strip()
    if not text:
        return words.ThreeWord(())
    cols = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        try:
            s, i, j = map(_int, chunk.split(","))
        except ValueError:
            raise ValueError(
                f"bad word column {chunk!r}: expected (s,i,j);(s,i,j);..."
            ) from None
        cols.append((s, i, j))
    return words.ThreeWord(tuple(cols))


def _render_word(omega: words.ThreeWord) -> str:
    return ";".join(f"({s},{i},{j})" for s, i, j in omega.columns)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n" if text else text)
    elif text:
        print(text, flush=True)  # a closed pipe raises here, inside main


def _add_spec_args(parser, need_pq=True):
    parser.add_argument("--alpha", required=True)
    parser.add_argument("--beta", required=True)
    parser.add_argument("--n", type=_int, required=True)
    if need_pq:
        parser.add_argument("--p", required=True)
        parser.add_argument("--q", required=True)


def _read_spec(args):
    alpha = _parse_multiindex(args.alpha)
    beta = _parse_multiindex(args.beta)
    spec = {"alpha": alpha, "beta": beta, "n": args.n}
    spec["p"], spec["q"] = _read_monomials(args, alpha, beta)
    return spec


def cmd_star(args) -> int:
    spec = _read_spec(args)
    paths = ["enumerate", "lift"] if args.path == "both" else [args.path]
    results = [
        expansion.star_product(
            spec["alpha"], spec["beta"], spec["p"], spec["q"], spec["n"],
            path=path,
        )
        for path in paths
    ]
    if len(results) == 2:
        if list(results[0].terms()) != list(results[1].terms()):
            print("error: enumerate and lift paths disagree", file=sys.stderr)
            return EXIT_PATH_MISMATCH
    with _unlimited_int_digits():
        text = expansion.render(results[0], args.format)
    _emit(text, args.output)
    return EXIT_OK


def cmd_enum(args) -> int:
    alpha = _parse_multiindex(args.alpha)
    beta = _parse_multiindex(args.beta)
    kind = args.kind
    refused = [
        f"--{name}" for name in ENUM_OPTIONS["Q"]
        if name not in ENUM_OPTIONS[kind] and getattr(args, name) is not None
    ]
    if refused:
        raise ValueError(f"enum {kind} does not take {', '.join(refused)}")
    if kind == "L":
        items = tables.enumerate_L(alpha, beta, args.n)
        lines = [
            ",".join(str(v) for row in g.rows for v in row) for g in items
        ]
    else:
        if args.m is None:
            raise ValueError(f"enum {kind} requires --m")
        if kind == "A":
            items = words.enumerate_A(alpha, beta, args.n, args.m)
            lines = [_render_word(w) for w in items]
        else:
            if args.levels is not None and args.levels < 1:
                raise ValueError("--levels must be at least 1")
            if args.levels is not None and args.layout == "by-pair":
                raise ValueError(
                    "enum Q --layout by-pair does not take --levels"
                )
            if (args.p is None) != (args.q is None):
                raise ValueError("--p and --q must be given together")
            btable = None
            pad = None
            if args.p is not None:
                p, q = _read_monomials(args, alpha, beta)
                btable = algebra.build_B(p, q)
                pad = cubes.contributing_support(p, q) + 1
            if args.levels is not None:
                pad = args.levels
            items = cubes.enumerate_Q(alpha, beta, args.n, args.m)
            lines = [
                ",".join(map(str, cubes.to_vector(
                    g, layout=args.layout or "by-level", btable=btable,
                    levels=pad,
                )))
                for g in items
            ]
    if args.count_only:
        _emit(str(len(items)), args.output)
    else:
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_word(args) -> int:
    if args.action == "stats" and args.shape is not None:
        raise ValueError("word stats does not take --shape")
    if args.action == "encode":
        if args.shape is None:
            raise ValueError("encode requires --shape a,b")
        a, b = _parse_shape(args.shape)
        vec = (
            [_int(v) for v in args.input.split(",")]
            if args.input.strip()
            else []
        )
        gamma = cubes.from_vector(vec, layout="by-level", shape=(a, b))
        _emit(_render_word(words.encode(gamma)), args.output)
        return EXIT_OK
    omega = _parse_word(args.input)
    bad = words.validate_word(omega)
    if bad is not None:
        print(f"error: invalid word: {bad}", file=sys.stderr)
        return EXIT_INPUT
    if args.action == "decode":
        shape = _parse_shape(args.shape) if args.shape else None
        gamma = words.decode(omega, shape=shape)
        vec = cubes.to_vector(gamma, layout="by-level")
        _emit(",".join(map(str, vec)), args.output)
    else:  # stats
        n_cols, s, m, alpha, beta = words.word_stats(omega)
        _emit(
            f"N={n_cols} s={s} m={m} "
            f"alpha={','.join(map(str, alpha))} "
            f"beta={','.join(map(str, beta))}",
            args.output,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle  # the only command that needs it

    spec = _read_spec(args)
    report = oracle.verify(
        spec["alpha"], spec["beta"], spec["p"], spec["q"], spec["n"]
    )
    lines = [
        f"oracle identity: {'ok' if report.identity_ok else 'FAIL'}",
        f"classical slice: {'ok' if report.classical_ok else 'FAIL'}",
        f"path agreement:  {'ok' if report.paths_ok else 'FAIL'}",
    ]
    lines.extend(report.details)
    _emit("\n".join(lines), args.output)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstar",
        description="Exact star products of elementary multisymmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_star = sub.add_parser("star", help="compute a star product expansion")
    _add_spec_args(p_star)
    p_star.add_argument(
        "--path", choices=["enumerate", "lift", "both"], default="enumerate"
    )
    p_star.add_argument("--format", choices=["text", "json"], default="text")
    p_star.add_argument("--output")
    p_star.set_defaults(func=cmd_star)

    p_enum = sub.add_parser("enum", help="list L, Q or A elements")
    p_enum.add_argument("kind", choices=["L", "Q", "A"])
    _add_spec_args(p_enum, need_pq=False)
    p_enum.add_argument("--m", type=_int)
    p_enum.add_argument("--count-only", action="store_true")
    p_enum.add_argument(
        "--layout", choices=["by-level", "by-pair"],
        help="Q vector layout (default by-level)",
    )
    p_enum.add_argument("--p", help="pads Q vectors to the support bound")
    p_enum.add_argument("--q")
    p_enum.add_argument(
        "--levels", type=_int,
        help="pad Q vectors to at least this many levels (never truncates)",
    )
    p_enum.add_argument("--output")
    p_enum.set_defaults(func=cmd_enum)

    p_word = sub.add_parser("word", help="3-word codec")
    p_word.add_argument("action", choices=["encode", "decode", "stats"])
    p_word.add_argument("input", help="word text, or a by-level vector for encode")
    p_word.add_argument("--shape", help="a,b matrix shape")
    p_word.add_argument("--output")
    p_word.set_defaults(func=cmd_word)

    p_verify = sub.add_parser("verify", help="cross-check against the oracle")
    _add_spec_args(p_verify)
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one qstar command; return its exit code.

    Every call in a process reuses one parser, built on the first call.
    Its set_defaults(func=...) binds the cmd_* functions at that moment,
    so rebinding a cmd_* attribute later does not reach main, while the
    functions the cmd_* call are still looked up at call time.  Usage
    errors leave through argparse's SystemExit(2).
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        if not args.output:  # fd 1 to devnull: the exit flush writes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, not of its input
        line = f"{type(exc).__name__}: {exc}".splitlines()[0]
        print(f"error: internal: {line}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
