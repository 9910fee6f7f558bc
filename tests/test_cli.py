import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import scalars_dropped
from qstar import cli
from qstar.algebra import Monomial2, ScaledMonomial, render_monomial
from qstar.cli import main

SRC = Path(cli.__file__).resolve().parent.parent
# the line enum prints too: the library checks the margins, once
MARGIN_ERROR = "error: margins exceed n: |alpha|=3, |beta|=1, n=2\n"
WORKED_FLAGS = [
    "--alpha", "1,1", "--beta", "2,1",
    "--p", "x^2y,x^3y", "--q", "x^3,x^2y^2", "--n", "4",
]

WORKED_H0_VECTORS = {
    "0,0,1,0,1,0,0,1,0,0,0,0",
    "0,0,1,0,0,1,1,0,0,0,0,0",
    "0,0,0,1,1,0,1,0,0,0,0,0",
    "1,0,2,0,0,0,0,1,0,0,0,0",
    "0,1,2,0,0,1,0,0,0,0,0,0",
    "1,0,1,1,0,0,1,0,0,0,0,0",
    "0,1,1,1,1,0,0,0,0,0,0,0",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStar:
    def test_worked_counts(self, capsys):
        code, out, _ = run(capsys, "star", *WORKED_FLAGS, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        counts = {}
        for term in doc["terms"]:
            counts[term["m"]] = counts.get(term["m"], 0) + 1
        assert counts == {0: 7, 1: 10, 2: 3}

    def test_text_golden(self, capsys):
        code, out, _ = run(
            capsys, "star", "--alpha", "1", "--beta", "1",
            "--p", "y", "--q", "x", "--n", "1",
        )
        assert code == 0
        assert out.strip() == "e_(1)(xy) + e_(1)(1) h"

    def test_both_paths_agree(self, capsys):
        code, out, _ = run(capsys, "star", *WORKED_FLAGS, "--path", "both")
        assert code == 0
        assert out

    def test_invalid_margin(self, capsys):
        code, out, err = run(
            capsys, "star", "--alpha", "3", "--beta", "1",
            "--p", "x", "--q", "y", "--n", "2",
        )
        assert (code, out, err) == (2, "", MARGIN_ERROR)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "star", "--alpha", "1", "--beta", "1",
            "--p", "y", "--q", "x", "--n", "1",
            "--output", str(target),
        )
        assert code == 0
        assert target.read_text().strip() == "e_(1)(xy) + e_(1)(1) h"

    def test_scalar_beyond_int_digit_limit(self, capsys):
        code, out, err = run(
            capsys, "star", "--alpha", "1", "--beta", "1",
            "--p", "x^1700y^1700", "--q", "x^1700y^2", "--n", "1",
        )
        assert (code, err) == (0, "")
        # the h^1700 scalar is 1700!, 4,700 digits
        scalar = max((tok for tok in out.split() if tok.isdigit()), key=len)
        assert len(scalar) > 4300

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="interpreter has no int-to-str digit limit",
    )
    def test_digit_limit_kept_for_parsing(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(
            capsys, "star", "--alpha", "1", "--beta", "1",
            "--p", "x^" + "1" * 4301, "--q", "y", "--n", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        run(capsys, "star", "--alpha", "1", "--beta", "1",
            "--p", "y^1700", "--q", "x^1700", "--n", "1")
        assert sys.get_int_max_str_digits() == limit


class TestEnum:
    def test_q_by_level_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "enum", "Q", "--alpha", "1,1", "--beta", "2,1",
            "--n", "4", "--m", "0", "--layout", "by-level",
            "--p", "x^2y,x^3y", "--q", "x^3,x^2y^2",
        )
        assert code == 0
        assert set(out.strip().splitlines()) == WORKED_H0_VECTORS

    def test_l_count_only(self, capsys):
        code, out, _ = run(
            capsys, "enum", "L", "--alpha", "1", "--beta", "1",
            "--n", "1", "--count-only",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_a_contains_example(self, capsys):
        code, out, _ = run(
            capsys, "enum", "A", "--alpha", "2,1", "--beta", "1,2",
            "--n", "3", "--m", "2",
        )
        assert code == 0
        assert "(0,3,3);(1,2,2);(1,2,3)" in out.splitlines()

    def test_invalid_params(self, capsys):
        code, _, err = run(
            capsys, "enum", "L", "--alpha", "5", "--beta", "1", "--n", "2",
        )
        assert code == 2

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_levels_below_one(self, capsys, levels):
        code, out, err = run(
            capsys, "enum", "Q", "--alpha", "1", "--beta", "1",
            "--n", "1", "--m", "1", "--levels", levels,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --levels must be at least 1\n"

    def test_levels_pads_but_never_truncates(self, capsys):
        flags = ["--alpha", "1", "--beta", "1", "--n", "1", "--m", "1"]
        _, out1, _ = run(capsys, "enum", "Q", *flags, "--levels", "1")
        _, out3, _ = run(capsys, "enum", "Q", *flags, "--levels", "3")
        assert (out1, out3) == ("0,0,0,1\n", "0,0,0,1,0\n")

    def test_by_pair_refuses_levels(self, capsys):
        # by-pair vectors have one place per B table entry, so nothing
        # would read --levels
        code, out, err = run(
            capsys, "enum", "Q", "--alpha", "1", "--beta", "1", "--n", "1",
            "--m", "1", "--layout", "by-pair", "--p", "xy", "--q", "xy",
            "--levels", "3",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: enum Q --layout by-pair does not take --levels\n"
        )

    def test_q_monomials_must_match_margins(self, capsys):
        code, out, err = run(
            capsys, "enum", "Q", "--alpha", "1,1", "--beta", "1",
            "--n", "2", "--m", "1", "--layout", "by-pair",
            "--p", "x", "--q", "y",
        )
        assert (code, out) == (2, "")
        assert err == "error: monomial lists must match multi-index lengths\n"

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_q_needs_both_monomial_lists(self, capsys, flag):
        code, out, err = run(
            capsys, "enum", "Q", "--alpha", "1", "--beta", "1",
            "--n", "1", "--m", "1", flag, "xy",
        )
        assert (code, out) == (2, "")
        assert err == "error: --p and --q must be given together\n"

    @pytest.mark.parametrize("kind,flags,named", [
        ("L", ["--p", "x"], "--p"),
        ("L", ["--q", "y", "--layout", "by-level"], "--q, --layout"),
        ("L", ["--m", "0"], "--m"),
        ("L", ["--levels", "2"], "--levels"),
        ("A", ["--m", "0", "--p", "bogus", "--layout", "by-pair"],
         "--p, --layout"),
        ("A", ["--m", "0", "--q", "x", "--levels", "1"], "--q, --levels"),
    ])
    def test_l_and_a_refuse_options_they_ignore(self, capsys, kind, flags,
                                                named):
        code, out, err = run(
            capsys, "enum", kind, "--alpha", "1", "--beta", "1", "--n", "1",
            *flags,
        )
        assert (code, out) == (2, "")
        assert err == f"error: enum {kind} does not take {named}\n"

    def test_q_layout_defaults_to_by_level(self, capsys):
        flags = ["--alpha", "1,1", "--beta", "2,1", "--n", "4", "--m", "1"]
        _, default, _ = run(capsys, "enum", "Q", *flags)
        _, by_level, _ = run(capsys, "enum", "Q", *flags,
                             "--layout", "by-level")
        assert default and default == by_level

    @pytest.mark.parametrize("kind", ["A", "Q"])
    def test_negative_m(self, capsys, kind):
        code, out, err = run(
            capsys, "enum", kind, "--alpha", "1", "--beta", "1",
            "--n", "1", "--m", "-1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: m must be nonnegative\n"


    def test_a_depth_does_not_grow_with_m(self, capsys):
        # enumerate_A used to recurse once per candidate, and so per level
        code, out, err = run(
            capsys, "enum", "A", "--alpha", "1", "--beta", "1", "--n", "1",
            "--m", "100000", "--count-only",
        )
        assert (code, out, err) == (0, "1\n", "")


class TestWord:
    def test_decode_example(self, capsys):
        code, out, _ = run(
            capsys, "word", "decode", "(0,3,3);(1,2,2);(1,2,3)",
        )
        assert code == 0
        assert out.strip() == "0,0,0,0,0,0,0,1,1,1,0,0"

    def test_stats_example(self, capsys):
        code, out, _ = run(
            capsys, "word", "stats", "(0,3,3);(1,2,2);(1,2,3)",
        )
        assert code == 0
        assert out.strip() == "N=3 s=1 m=2 alpha=2,1 beta=1,2"

    def test_encode_round_trip(self, capsys):
        vec = "0,0,0,0,0,0,0,1,1,1,0,0"
        code, out, _ = run(capsys, "word", "encode", vec, "--shape", "2,2")
        assert code == 0
        assert out.strip() == "(0,3,3);(1,2,2);(1,2,3)"

    def test_encode_zero_matrix(self, capsys):
        code, out, _ = run(
            capsys, "word", "encode", "0,0,0", "--shape", "1,1",
        )
        assert code == 0
        assert out.strip() == ""

    def test_invalid_word(self, capsys):
        code, _, err = run(capsys, "word", "stats", "(1,2,2);(0,3,3)")
        assert code == 2
        assert "invalid word" in err

    @pytest.mark.parametrize("word,err", [
        ("(1,1,1)", "error: column 1 is (s,1,1): no preimage\n"),
        ("(0,2,2);(1,1,1)", "error: column 2 is (s,1,1): no preimage\n"),
        ("(1,2,1)", "error: column 1 puts a positive level on the boundary\n"),
        ("(0,1,1)", "error: column 1 is (s,1,1): no preimage\n"),
    ])
    def test_stats_rejects_what_decode_rejects(self, capsys, word, err):
        # stats used to print N=1 s=1 m=1 ... for words no matrix encodes
        for action in ("stats", "decode"):
            assert run(capsys, "word", action, word) == (2, "", err)

    def test_decode_index_outside_shape(self, capsys):
        code, out, err = run(
            capsys, "word", "decode", "(0,3,3)", "--shape", "1,1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("word,shape", [
        ("", "0,0"), ("(0,1,2)", "0,1"), ("(0,2,2)", "0,5"),
    ])
    def test_decode_nonpositive_shape(self, capsys, word, shape):
        code, out, err = run(capsys, "word", "decode", word, "--shape", shape)
        assert (code, out) == (2, "")
        assert err == "error: shape entries must be positive\n"

    @pytest.mark.parametrize(
        "vec,shape",
        [("", "1,1"), ("1", "1,1"), ("1,2,3", "0,1")],
    )
    def test_encode_bad_vector_or_shape(self, capsys, vec, shape):
        code, out, err = run(capsys, "word", "encode", vec, "--shape", shape)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize("shape", ["1,1,1", "1"])
    @pytest.mark.parametrize(
        "action,word", [("encode", "1,2,3"), ("decode", "(0,2,2)")],
    )
    def test_shape_needs_two_entries(self, capsys, action, word, shape):
        code, out, err = run(capsys, "word", action, word, "--shape", shape)
        assert code == 2
        assert out == ""
        assert err == f"error: shape '{shape}' needs two entries a,b\n"

    @pytest.mark.parametrize("action", ["encode", "decode", "stats"])
    def test_three_row_input_is_refused(self, capsys, action):
        # the undocumented rows form "s,...\ni,...\nj,..." is not a word
        rows = "0,1,1\n3,2,2\n3,2,3"
        extra = ["--shape", "2,2"] if action == "encode" else []
        code, out, err = run(capsys, "word", action, rows, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("action", ["decode", "stats"])
    @pytest.mark.parametrize("word,column", [
        ("(0,2,2);(1,x,2)", "1,x,2"),
        ("(0,2,2);(1,2)", "1,2"),
        ("(0,2,2);;(1,2,2)", ""),
        ("0,1,1\n3,2,2\n3,2,3", "0,1,1\n3,2,2\n3,2,3"),
    ])
    def test_malformed_column_is_named(self, capsys, action, word, column):
        code, out, err = run(capsys, "word", action, word)
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad word column {column!r}: expected (s,i,j);(s,i,j);...\n"
        )

    def test_stats_refuses_shape(self, capsys):
        # stats used to ignore --shape and exit 0
        code, out, err = run(
            capsys, "word", "stats", "(0,2,2)", "--shape", "5,5",
        )
        assert (code, out) == (2, "")
        assert err == "error: word stats does not take --shape\n"


class TestVerify:
    def test_invalid_margin(self, capsys):
        code, out, err = run(
            capsys, "verify", "--alpha", "3", "--beta", "1",
            "--p", "x", "--q", "y", "--n", "2",
        )
        assert (code, out, err) == (2, "", MARGIN_ERROR)

    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "verify", *WORKED_FLAGS)
        assert code == 0
        assert "oracle identity: ok" in out

    def test_small_case(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "1", "--beta", "1",
            "--p", "y", "--q", "x", "--n", "2",
        )
        assert code == 0

    def test_no_copies(self, capsys):
        code, out, err = run(
            capsys, "verify", "--alpha", "0", "--beta", "0",
            "--p", "x", "--q", "y", "--n", "0",
        )
        assert (code, err) == (0, "")
        assert out == (
            "oracle identity: ok\nclassical slice: ok\npath agreement:  ok\n"
        )

    def test_negative_control(self, capsys, monkeypatch):
        with scalars_dropped(monkeypatch):
            code, out, _ = run(capsys, "verify", *WORKED_FLAGS)
        assert code == 1
        assert "FAIL" in out
        assert out.splitlines()[-1] == (
            "expansion differs from Moyal oracle in 13 orbit(s); first "
            "(1, x^2y^2, x^4, x^6y) h^1: expansion 1, oracle 3"
        )


class TestLongMargins:
    # one interior cell per row, a thousand of them, and one interior unit
    # in all: a walk that recursed once per cell would hit the recursion
    # limit here
    SPEC = ["--alpha", ",".join(["1"] * 1000), "--beta", "1", "--n", "1000"]

    def test_enum_l(self, capsys):
        code, out, err = run(capsys, "enum", "L", *self.SPEC, "--count-only")
        assert (code, out, err) == (0, "1000\n", "")

    def test_star(self, capsys):
        code, out, err = run(capsys, "star", *self.SPEC,
                             "--p", ",".join(["x"] * 1000), "--q", "y")
        # the unit lands in one of 1,000 rows, each giving the same term
        term = f"e_({','.join(['1'] * 1000)})({'x,' * 999}xy)"
        assert (code, out, err) == (0, " + ".join([term] * 1000) + "\n", "")

    @pytest.mark.parametrize("argv", [
        ["star", "--p", ",".join(["x"] * 1000), "--q", "y"],
        ["enum", "L"],
    ], ids=["star", "enum-L"])
    def test_reader_leaves_early(self, argv):
        # qstar ... | head -c 100: a closed stdout is not bad input; exit
        # as the shell reports SIGPIPE, with nothing on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "qstar.cli", *argv, *self.SPEC],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestInternalError:
    def test_any_fault_exits_4(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr("qstar.oracle.moyal_orbits", broken)
        code, out, err = run(capsys, "verify", *WORKED_FLAGS)
        assert (code, out) == (4, "")
        assert err == "error: internal: RuntimeError: first line\n"

    def test_input_errors_keep_exit_2(self, capsys):
        code, _, err = run(capsys, "enum", "L", "--alpha", "x", "--beta",
                           "1", "--n", "1")
        assert code == 2
        assert err == "error: bad multi-index 'x'\n"

    def test_usage_errors_still_exit_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "L", "--alpha", "1"])
        assert exc.value.code == 2


def fresh(code, *args):
    """stdout of code in a new process with SRC first on sys.path.

    -S keeps site's .pth hooks from loading modules themselves.
    """
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); " + code,
         str(SRC), *args],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


class TestStartup:
    def test_import_loads_no_dataclasses_or_json(self):
        code = (
            "import qstar.cli; qstar.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect', 'json', 'qstar.oracle'}"
            " & set(sys.modules)))"
        )
        assert fresh(code) == "[]\n"  # nor the oracle

    @pytest.mark.parametrize("argv, loaded", [
        (["star", *WORKED_FLAGS], False),
        (["enum", "Q", "--alpha", "1,1", "--beta", "2,1", "--n", "4",
          "--m", "1"], False),
        (["word", "stats", "(0,2,2)"], False),
        (["verify", *WORKED_FLAGS], True),
    ], ids=["star", "enum", "word", "verify"])
    def test_only_verify_loads_the_oracle(self, argv, loaded):
        code = (
            "from qstar.cli import main; rc = main(sys.argv[2:]); "
            "print(rc, 'qstar.oracle' in sys.modules)"
        )
        assert fresh(code, *argv).splitlines()[-1] == f"0 {loaded}"


class TestParser:
    def test_threads_environment_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("QSTAR_THREADS", "abc")
        code, out, _ = run(capsys, "word", "stats", "(0,2,2)")
        assert code == 0
        assert out.strip() == "N=1 s=0 m=0 alpha=1 beta=1"

    def test_threads_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "word", "stats", "(0,2,2)"])
        assert exc.value.code == 2


    def test_one_parser_per_process(self, capsys, monkeypatch):
        calls = [
            ["enum", "L", "--alpha", "1"],  # usage error in a subparser
            ["enum", "L", "--alpha", "x", "--beta", "1", "--n", "1"],
            ["star", *WORKED_FLAGS, "--format", "json"],
            ["enum", "A", "--alpha", "1,1", "--beta", "2,1", "--n", "4",
             "--m", "1"],
            ["verify", *WORKED_FLAGS],
            ["star", "--alpha", "1", "--beta", "1", "--p", "y", "--q", "x",
             "--n", "1"],
            ["--threads", "2", "word", "stats", "(0,2,2)"],
            ["star", *WORKED_FLAGS, "--format", "json"],
        ]

        def results():
            out = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        assert cli._parser() is cli._parser()
        reused = results()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = results()
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 2, 0, 0, 0, 0, 2, 0]


class TestAsciiIntegers:
    """Integers are ASCII digits: int() also reads "1_0" and "\u0661"."""

    @pytest.mark.parametrize("alpha,beta,bad", [
        ("0_1", "1", "0_1"), ("1", "\u0661", "\u0661"),
    ])
    def test_multiindex(self, capsys, alpha, beta, bad):
        code, out, err = run(
            capsys, "enum", "L", "--alpha", alpha, "--beta", beta, "--n", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: bad multi-index {bad!r}\n"

    def test_word_column(self, capsys):
        code, out, err = run(capsys, "word", "stats", "(0,2_2,2)")
        assert (code, out) == (2, "")
        assert err == (
            "error: bad word column '0,2_2,2': expected (s,i,j);(s,i,j);...\n"
        )

    def test_encode_vector(self, capsys):
        code, out, err = run(
            capsys, "word", "encode", "0,0,1_0", "--shape", "1,1",
        )
        assert (code, out) == (2, "")
        assert err == "error: invalid integer '1_0'\n"

    @pytest.mark.parametrize("flags", [
        ["--n", "\u0663"],
        ["--n", "1", "--m", "\u0662"],
        ["--n", "1", "--m", "1", "--levels", "\u0662"],
        ["--n", "1_0"],
    ])
    def test_argparse_types(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "Q", "--alpha", "1", "--beta", "1", *flags])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"error: argument {flags[-2]}: invalid int value: " in err

    @pytest.mark.parametrize("p", ["x^\u0661", "x^\u00b2"])
    def test_monomial_exponent(self, capsys, p):
        code, out, err = run(
            capsys, "star", "--alpha", "1", "--beta", "1", "--n", "1",
            "--p", p, "--q", "y",
        )
        assert (code, out) == (2, "")
        assert err == "error: expected digits (at offset 2)\n"

    def test_sign_and_spaces_still_read(self, capsys):
        code, out, err = run(
            capsys, "word", "encode", " 0,+1, 0 ", "--shape", "1,1",
        )
        assert (code, out, err) == (0, "(0,1,2)\n", "")
        code, out, _ = run(
            capsys, "enum", "L", "--alpha", " +1", "--beta", "1", "--n", "1 ",
        )
        assert (code, out) == (0, "0,0,0,1\n")


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "star", *WORKED_FLAGS, "--format", "json")
            outputs.add(out)
        assert len(outputs) == 1


# Malformed tokens, drawn in place of a value.  Large numbers are left out
# on purpose: a valid large n, m or vector entry is a slow input, not a
# bad one.
GARBAGE = st.sampled_from([
    "", " ", "x", "-1", "-x", "--", "1,,2", "1.5", ",", "()", "a,b",
    "x^-1", "2x", "y^", "(0,1,1", "(1,1);", "1,-2", "0x1", "\u00e9",
])


def _or_garbage(valid):
    """Mostly valid values, garbage one time in eight."""
    return st.integers(0, 7).flatmap(lambda r: GARBAGE if r == 7 else valid)


def _csv(values, max_size=2):
    return st.lists(values, min_size=1, max_size=max_size).map(
        lambda vs: ",".join(map(str, vs))
    )


_MONOMIAL = st.builds(
    lambda x, y: render_monomial(ScaledMonomial(1, Monomial2(x, y))),
    st.integers(0, 3), st.integers(0, 3),
)
_COLUMNS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 3), st.integers(1, 3)),
    max_size=4,
).map(lambda cols: ";".join(f"({s},{i},{j})" for s, i, j in cols))
_VECTOR = st.lists(st.integers(0, 2), max_size=12).map(
    lambda vs: ",".join(map(str, vs))
)

# Every option of the real subcommands but --output; None marks a flag.
OPTIONS = {
    "--alpha": _or_garbage(_csv(st.integers(0, 2))),
    "--beta": _or_garbage(_csv(st.integers(0, 2))),
    "--n": _or_garbage(st.integers(0, 4).map(str)),
    "--p": _or_garbage(_csv(_MONOMIAL)),
    "--q": _or_garbage(_csv(_MONOMIAL)),
    "--m": _or_garbage(st.integers(0, 3).map(str)),
    "--levels": _or_garbage(st.integers(0, 3).map(str)),
    "--layout": _or_garbage(st.sampled_from(["by-level", "by-pair"])),
    "--shape": _or_garbage(_csv(st.integers(0, 2), max_size=3)),
    "--format": _or_garbage(st.sampled_from(["text", "json"])),
    "--path": _or_garbage(st.sampled_from(["enumerate", "lift", "both"])),
    "--count-only": None,
}
SPEC = ("--alpha", "--beta", "--n")
# subcommand -> (positionals, options it requires, options it may take)
COMMANDS = {
    "star": ((), SPEC + ("--p", "--q"), ("--path", "--format")),
    "verify": ((), SPEC + ("--p", "--q"), ()),
    "enum": (
        (_or_garbage(st.sampled_from(["L", "Q", "A"])),),
        SPEC,
        ("--m", "--p", "--q", "--layout", "--levels", "--count-only"),
    ),
    "word": (
        (
            _or_garbage(st.sampled_from(["encode", "decode", "stats"])),
            _or_garbage(st.one_of(_COLUMNS, _VECTOR)),
        ),
        (),
        ("--shape",),
    ),
}


@st.composite
def argvs(draw):
    """An argv for a real subcommand: its positionals, nearly always the
    options it requires, some it may take and now and then any other."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, required, optional = COMMANDS[command]
    names = [name for name in required if draw(st.integers(0, 19)) < 19]
    names += [name for name in optional if draw(st.booleans())]
    if draw(st.integers(0, 3)) == 3:
        names.append(draw(st.sampled_from(sorted(OPTIONS))))
    argv = [command] + [draw(values) for values in positionals]
    for name in draw(st.permutations(names)):
        argv.append(name)
        if OPTIONS[name] is not None:
            argv.append(draw(OPTIONS[name]))
    return argv


class TestProperty:
    @settings(max_examples=300, deadline=None)
    @given(argvs())
    def test_every_call_ends_in_a_documented_way(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                assert exc.code == 2
                assert "usage:" in err.getvalue()
                code = None
        err = err.getvalue()
        assert "Traceback" not in err
        if code is not None:
            assert code in (0, 1, 2, 3)
            if code in (0, 1):
                assert err == ""
            else:
                assert err.startswith("error: ")
                assert err.count("\n") == 1 and err.endswith("\n")
