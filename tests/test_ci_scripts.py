"""The workflow's shell steps, run here through `python -m seqproof.cli`.

Each script under ci/ takes the seqproof command as its arguments; the
workflow passes the installed console script, and these tests pass the
module, so the steps run without installing the package.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / "ci"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
MODULE = [sys.executable, "-m", "seqproof.cli"]
SCRIPTS = ["console-script.sh", "proof-file.sh", "pinned-reports.sh"]


def _run(script: str, *command: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(["sh", str(CI / script), *command], env=env, capture_output=True, text=True, timeout=300)


def test_the_workflow_calls_every_script():
    assert sorted(path.name for path in CI.glob("*.sh")) == sorted(SCRIPTS)
    workflow = WORKFLOW.read_text()
    for script in SCRIPTS:
        assert f"ci/{script} seqproof" in workflow


@pytest.mark.parametrize(
    "script",
    [
        "console-script.sh",
        "proof-file.sh",
        pytest.param(
            "pinned-reports.sh",
            marks=pytest.mark.skipif(shutil.which("taskset") is None, reason="taskset is missing"),
        ),
    ],
)
def test_the_script_passes_through_the_module(script):
    done = _run(script, *MODULE)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("script", SCRIPTS)
def test_the_script_fails_when_its_command_fails(script):
    assert _run(script, "false").returncode != 0


def test_the_proof_file_script_fails_when_out_without_fs_is_accepted(tmp_path):
    # a command that proves interactively and writes a file anyway: the
    # refusal check, not the round trip, is what fails
    shim = tmp_path / "shim.py"
    shim.write_text(
        "import sys\n"
        "from seqproof.cli import main\n"
        "argv = sys.argv[1:]\n"
        "if argv[0] == 'prove-tqbf' and '--fs' not in argv:\n"
        "    open(argv[argv.index('--out') + 1], 'wb').close()\n"
        "    sys.exit(0)\n"
        "sys.exit(main(argv))\n"
    )
    done = _run("proof-file.sh", sys.executable, str(shim))
    assert done.returncode != 0 and "accepted" in done.stdout
