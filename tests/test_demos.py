"""Each fast demo script runs to completion.

Demo 02 is left out: it takes tens of seconds and repeats the soundness
gate that the acceptance suite already runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_prove_and_verify.py",
    "03_hash_derived_coins.py",
    "04_delay_function.py",
    "05_forging_openings.py",
    "06_experiment_reports.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
