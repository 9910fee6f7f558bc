"""Smoke-size self-test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Runs a short slice of the enum-words workload in-process and checks the
result schema, that every metric named in BENCHMARK.json appears with its
unit, that a planted wrong digest is counted as a failure, that a traced
function gone from its module is flagged as missing, and that the
benchmark refuses to run without the program's sources.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = workloads.DEFAULT_SEED
SLICE = 24  # ops of the pass kept for the smoke runs


@pytest.fixture(autouse=True)
def smoke_size(monkeypatch):
    full = workloads.generate
    monkeypatch.setattr(workloads, "generate",
                        lambda name, seed: full(name, seed)[:SLICE])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def _units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_end_to_end_schema():
    result = run.run_workload("enum-words", SEED, 0.05, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics",
                           "environment"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= SLICE
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(e["value"] > 0 for e in result["metrics"].values())
    assert set(result["environment"]) == {"python", "git_sha", "nproc",
                                          "load1", "seed"}


def test_traced_schema_and_counts():
    result = run.run_workload("enum-words", SEED, 0.05, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert not [m for m, e in metrics.items() if e.get("missing")]
    assert metrics["words.enumerate_A.calls"]["value"] > 0
    assert metrics["cli.main.calls"]["value"] == SLICE
    oracle = [m for m, e in metrics.items()
              if m.startswith("oracle.") and e["unit"] == "count"]
    assert oracle and all(metrics[m]["value"] == 0 for m in oracle)


def test_planted_wrong_digest_is_a_failure():
    golden = dict(run.load_golden()["enum-words"])
    golden[workloads.generate("enum-words", SEED)[0].key] = "0" * 64
    result = run.run_workload("enum-words", SEED, 0.05, trace=False,
                              golden=golden)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_seed_fixes_the_ops():
    for name in workloads.GENERATORS:
        assert workloads.generate(name, 3) == workloads.generate(name, 3)
        assert workloads.generate(name, 3) != workloads.generate(name, 4)


def test_refuses_to_run_without_sources(monkeypatch):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-directory")
    with pytest.raises(SystemExit) as exc:
        run._import_program()
    assert exc.value.code != 0


def test_missing_function_is_flagged_not_zero(monkeypatch):
    import tracing

    gone = tracing.Target("words.enumerate_A", "qstar.words", "no_such_name")
    monkeypatch.setattr(tracing, "TARGETS", [*tracing.TARGETS, gone])
    result = run.run_workload("enum-words", SEED, 0.05, trace=True)
    metrics = result["metrics"]
    assert result["correct"]
    assert metrics["words.enumerate_A.calls"].get("missing") is True
    assert "missing" not in metrics["cli.main.calls"]
