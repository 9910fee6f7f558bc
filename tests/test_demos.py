"""Each demo script runs to completion against the source tree.

Its stdout is pinned by SHA-256; the demos print nothing that depends on
the Python version (the digests are the same on 3.10 to 3.13).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "oracle_check.py":
        "864e86346105662f0702884bca14160b2a98fb47a9ddc0347544767411edd135",
    "words_bijection.py":
        "81c65f4f21f986532615f3cefec4530fac4927afcaff1ac056e2f2b6473a074e",
    "worked_product.py":
        "9ec250c59baa7736b5b2369ec9fe908cbca4a209c17891ac35407846e6605be5",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if script.name == "oracle_check.py":
        assert "equal: True" in done.stdout.splitlines()
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[script.name], done.stdout


def test_demos_found():
    # an empty glob would leave test_demo_runs with no cases, and every
    # demo needs a pinned digest
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)
