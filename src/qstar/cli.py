"""Command-line front-end: the command line only.

Subcommands: star (full expansion), enum (L / Q / A listings), word
(3-word codec) and verify (oracle cross-check).  Exit codes: 0 ok,
1 verification failure, 2 input error (a number past Python's int digit
limit included: parsing keeps it, while every writer prints integers in
full through algebra.full_ints), 3 internal path mismatch, 4 internal
error (any other exception, one "error: internal:" line), 141 (128 +
SIGPIPE, silently) when the output's reader leaves early, as in `qstar
... | head`.  Output is deterministic for fixed inputs.  Only verify loads
the oracle.  A process builds the argument parser once.  A well-formed
argv is parsed from a per-command table of that parser's actions;
argparse answers everything else, so help and usage errors are its own.
main() pauses the cyclic GC for one command.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

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


class _Text(dict):
    """str(v) for the ints of one listing, each made once, on first use."""

    def __missing__(self, v: int) -> str:
        return self.setdefault(v, str(v))


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


def _read_spec(args) -> tuple:
    """(alpha, beta, p, q, n), as star_product and verify take them."""
    alpha = _parse_multiindex(args.alpha)
    beta = _parse_multiindex(args.beta)
    return (alpha, beta, *_read_monomials(args, alpha, beta), args.n)


def cmd_star(args) -> int:
    spec = _read_spec(args)
    paths = ["enumerate", "lift"] if args.path == "both" else [args.path]
    results = [expansion.star_product(*spec, path=path) for path in paths]
    if len(results) == 2:
        if list(results[0].terms()) != list(results[1].terms()):
            print("error: enumerate and lift paths disagree", file=sys.stderr)
            return EXIT_PATH_MISMATCH
    _emit(expansion.render(results[0], args.format), args.output)
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
    text = _Text().__getitem__
    if kind == "L":
        items = tables.enumerate_L(alpha, beta, args.n)

        def line(g):
            return ",".join([text(v) for row in g.rows for v in row])
    elif args.m is None:
        raise ValueError(f"enum {kind} requires --m")
    elif kind == "A":
        items = words.enumerate_A(alpha, beta, args.n, args.m)
        line = _render_word
    else:
        layout = args.layout or "by-level"
        if args.levels is not None and args.levels < 1:
            raise ValueError("--levels must be at least 1")
        if args.levels is not None and layout == "by-pair":
            raise ValueError("enum Q --layout by-pair does not take --levels")
        if (args.p is None) != (args.q is None):
            raise ValueError("--p and --q must be given together")
        if args.p is None and layout == "by-pair":
            raise ValueError("enum Q --layout by-pair requires --p and --q")
        btable = pad = None
        if args.p is not None:
            p, q = _read_monomials(args, alpha, beta)
            btable = algebra.build_B(p, q)
            pad = cubes.contributing_support(p, q) + 1
        items = cubes.enumerate_Q(alpha, beta, args.n, args.m)

        def line(g):
            return ",".join(map(text, cubes.to_vector(
                g, layout=layout, btable=btable, levels=args.levels or pad)))
    # the one place that decides whether a line is built: never to count
    _emit(str(len(items)) if args.count_only
          else "\n".join(map(line, items)), args.output)
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
        raise ValueError(f"invalid word: {bad}")
    if args.action == "decode":
        shape = _parse_shape(args.shape) if args.shape else None
        gamma = words.decode(omega, shape=shape)
        vec = cubes.to_vector(gamma, layout="by-level")
        _emit(",".join(map(str, vec)), args.output)
    else:  # stats
        n_cols, s, m, alpha, beta = words.word_stats(omega)
        with algebra.full_ints():  # m sums the word's levels
            text = (f"N={n_cols} s={s} m={m} "
                    f"alpha={','.join(map(str, alpha))} "
                    f"beta={','.join(map(str, beta))}")
        _emit(text, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle  # the only command that needs it

    spec = _read_spec(args)
    report = oracle.verify(*spec)
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
    parser.commands = sub.choices  # name -> subparser, filled below

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


@functools.cache
def _table() -> dict:
    """Per command: (options, positionals, required, defaults).

    options maps each option string but -h/--help to its action; required
    holds the dests of the required options; defaults holds what parse_args
    sets when nothing is given, command and func included.  A command with
    an action of another nargs, or with a str default that its type would
    convert, has no entry: argparse answers for it.
    """
    table = {}
    for name, sub in _parser().commands.items():
        # _actions: where every argparse since 2.7 lists a parser's actions;
        # a SUPPRESS default (-h/--help) sends its options to argparse
        actions = [a for a in sub._actions
                   if a.default is not argparse.SUPPRESS]
        if any(a.nargs not in (None, 0)
               or a.type and isinstance(a.default, str) for a in actions):
            continue
        table[name] = (
            {s: a for a in actions for s in a.option_strings},
            [a for a in actions if not a.option_strings],
            {a.dest for a in actions if a.required and a.option_strings},
            {a.dest: a.default for a in actions}
            | {"command": name, "func": sub.get_default("func")},
        )
    return table


def _value(action, token: str):
    """token converted by action's type and checked against its choices."""
    value = action.type(token) if action.type else token
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{token!r} is not a choice")
    return value


def _from_table(argv) -> argparse.Namespace | None:
    """parse_args's Namespace for a well-formed argv, else None.

    Well-formed: a known command, then only its exact option strings, each
    value-taking one followed by a value that is not empty, does not start
    with "-" and converts to one of its choices; exactly its positionals,
    each a choice; every required option.  A repeated option keeps its last
    value, as argparse does.
    """
    entry = _table().get(argv[0]) if argv else None
    if entry is None:
        return None
    options, positionals, required, defaults = entry
    given, tokens, rest = {}, iter(argv[1:]), []
    try:
        for token in tokens:
            if token[:1] != "-":
                rest.append(token)
            elif (action := options.get(token)) is None:
                return None
            elif action.nargs == 0:
                given[action.dest] = action.const
            elif (value := next(tokens, ""))[:1] in ("", "-"):
                return None
            else:
                given[action.dest] = _value(action, value)
        if len(rest) != len(positionals) or not required.issubset(given):
            return None
        for action, token in zip(positionals, rest):
            given[action.dest] = _value(action, token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None  # the errors argparse turns into usage errors
    return argparse.Namespace(**(defaults | given))


def _parse(argv) -> argparse.Namespace:
    """Same as _parser().parse_args(argv): from the table for a well-formed
    argv, else from argparse, help and usage errors word for word."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _from_table(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one qstar command; return its exit code.

    Every call in a process reuses one parser, built on the first call,
    and the table made from its actions (see _parse).  Its
    set_defaults(func=...) binds the cmd_* functions at that moment, so
    rebinding a cmd_* attribute later does not reach main, while the cmd_*
    look their callees up at call time.  Usage errors leave through
    argparse's SystemExit(2).  The cyclic GC is paused for the parse and
    the command and then set back as the caller had it; nothing calls
    gc.collect(), which costs short commands more than it frees.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(_parse(argv))
    finally:
        if enabled:
            gc.enable()


def _run(args) -> int:
    """args.func(args), its exceptions mapped to exit codes."""
    try:
        return args.func(args)
    except BrokenPipeError:
        if not args.output:  # fd 1 to devnull: the exit flush writes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    # no float arithmetic: an OverflowError is a size read from the input
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, not of its input
        line = f"{type(exc).__name__}: {exc}".splitlines()[0]
        print(f"error: internal: {line}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
