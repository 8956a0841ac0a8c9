"""Every function in the package is reached by the command line, or named here.

One pass of `seqproof.cli.main` calls runs under `sys.setprofile`: every
command, `--json`, argv that names no command, a malformed formula, a
flipped proof file and an interactive bundle.  Each `def` under
`src/seqproof` must be entered by that pass or be on ALLOWLIST, which names
the caller that keeps it.  An allowlisted function that the pass reaches
fails too, so the list holds only what the command line leaves unused.

Functions are matched by file and first line, as a code object and the
source's syntax tree both give them (`co_qualname` is CPython 3.11+).
"""

import ast
import sys
import time
from pathlib import Path

import seqproof
from seqproof import cli

PACKAGE = Path(seqproof.__file__).parent  # as the code objects name their files

# (module, qualified name in the source) -> the caller that keeps it
ALLOWLIST = {
    ("noninteractive", "fs_prove_tqbf"): "the benchmark's workloads, for their proof files",
    ("noninteractive", "fs_vdf_open"): "the benchmark's workloads, for their bundles",
    ("noninteractive", "save_transcript"): "the benchmark's workloads",
    ("noninteractive", "transcript_to_bytes"): "save_transcript; the benchmark's tracer times it",
    ("noninteractive", "load_transcript"): "the reading half of save_transcript",
    ("shvdf", "vdf_open"): "the benchmark's tracer times it; demo 04",
    ("sumcheck", "default_prime"): "demos 01 and 02",
    ("turing", "decide_spacehalt"): "acceptance criterion 10",
    ("turing", "TmDescription.from_table"): "acceptance criterion 10's machines",
    ("turing", "TmDescription.from_table.delta"): "acceptance criterion 10's machines, the rule closure",
    ("shvdf", "VdfVerdict.__bool__"): "the tests' `assert verdict`",
    ("sumcheck", "Verdict.__bool__"): "the tests' `assert verdict`",
}

TRUE_FORMULA = "p cnf 3 3\ne 1 0\na 2 0\ne 3 0\n1 -2 3 0\n-1 2 0\n2 3 0\n"
FALSE_FORMULA = "p cnf 1 1\na 1 0\n1 0\n"


def _defs() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module, qualified name) for every def in the
    package; a decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = (module, name)
                visit(child, module, path, name + ".")
            else:
                visit(child, module, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path), "")
    return found


def _flip_last_byte(source: Path, target: Path) -> None:
    data = bytearray(source.read_bytes())
    data[-1] ^= 1
    target.write_bytes(bytes(data))


def _steps(tmp: Path) -> list:
    """The pass: (argv, expected exit code) pairs, and the file edits between them."""
    (tmp / "true.qdimacs").write_text(TRUE_FORMULA)
    (tmp / "false.qdimacs").write_text(FALSE_FORMULA)
    (tmp / "bad.qdimacs").write_text("p cnf 1 1\nq 1 0\n1 0\n")
    true, false, bad = (str(tmp / f"{name}.qdimacs") for name in ("true", "false", "bad"))
    proof, flipped = tmp / "true.proof", tmp / "flipped.proof"
    pp, other_pp = str(tmp / "vdf.pp"), str(tmp / "other.pp")
    bundle, interactive, forged = (str(tmp / f"{name}.bundle") for name in ("fs", "interactive", "forged"))
    setup = ["vdf", "setup", "--lambda", "8", "--log2t", "8", "--space", "16"]
    return [
        (["prove-tqbf", "--in", true, "--seed", "3"], 0),
        (["prove-tqbf", "--in", true, "--fs", "--out", str(proof)], 0),
        (["prove-tqbf", "--in", false, "--fs"], 1),
        (["prove-tqbf", "--in", true, "--out", str(proof)], 1),
        (["prove-tqbf", "--in", bad], 1),
        (["verify-tqbf", "--in", true, "--transcript", str(proof)], 0),
        lambda: _flip_last_byte(proof, flipped),
        (["verify-tqbf", "--in", true, "--transcript", str(flipped)], 1),
        (["verify-tqbf", "--in", bad, "--transcript", str(proof)], 1),
        (setup + ["--seed", "s", "--pp", pp], 0),
        (setup + ["--seed", "t", "--pp", other_pp], 0),
        (["vdf", "eval", "--pp", pp, "--input", "101"], 0),
        (["vdf", "open", "--pp", pp, "--input", "101", "--proof", bundle], 0),
        (["vdf", "open", "--pp", pp, "--input", "101", "--challenge", "250", "--proof", interactive], 0),
        (["vdf", "verify", "--proof", bundle, "--pp", pp, "--input", "101"], 0),
        (["vdf", "verify", "--proof", bundle, "--pp", other_pp], 1),
        (["vdf", "verify", "--proof", bundle, "--input", "11"], 1),
        (["vdf", "verify", "--proof", interactive], 1),
        (["vdf", "verify", "--proof", interactive, "--challenge", "250"], 0),
        (["vdf", "attack", "--pp", pp, "--input", "101", "--proof", forged], 0),
        (["vdf", "verify", "--proof", forged], 0),
        (["exp", "soundness", "--trials", "1000", "--json"], 0),
        (["exp", "growth", "--lambda", "8", "--log2t", "5,6", "--space", "8"], 0),
        (["exp", "growth", "--log2t", "5,x"], 1),
        (["exp", "attack", "--lambda", "8", "--log2t", "8", "--space", "16", "--instances", "100", "--json"], 0),
        (["exp", "min-vars", "--steps", "100"], 0),
        (["no-such-command"], 2),
    ]


def _run_pass(tmp: Path) -> set[tuple[str, int]]:
    """The (file, first line) of every package function the pass entered."""
    for name, module in list(sys.modules.items()):  # a kept result would skip its function's body
        if name.startswith("seqproof."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    entered, exits = set(), []
    root = str(PACKAGE)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    steps, previous = _steps(tmp), sys.getprofile()
    sys.setprofile(profile)
    try:
        for step in steps:
            if callable(step):
                step()
                continue
            try:
                exits.append(cli.main(step[0]))
            except SystemExit as exc:  # argparse's usage error
                exits.append(exc.code)
    finally:
        sys.setprofile(previous)
    runs = [step for step in steps if not callable(step)]
    assert list(zip((argv for argv, _ in runs), exits)) == runs
    return entered


def test_every_function_is_reached_by_the_command_line_or_named(tmp_path):
    start = time.perf_counter()
    defs = _defs()
    named = {key for key in defs.values() if key in ALLOWLIST}
    assert named == set(ALLOWLIST), "allowlisted but not defined: " + repr(set(ALLOWLIST) - named)
    entered = _run_pass(tmp_path)
    unreached = {name for place, name in defs.items() if place not in entered}
    assert sorted(unreached - set(ALLOWLIST)) == [], "reached by no command and not allowlisted"
    assert sorted(set(ALLOWLIST) - unreached) == [], "allowlisted, but the command line reaches it"
    assert time.perf_counter() - start < 5.0
