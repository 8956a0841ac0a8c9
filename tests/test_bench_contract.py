"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` rebinds seqproof functions by name and reads their
arguments.  Renaming or re-signing one of them would leave a layer of the
traced benchmark empty or crash it; this test makes that a test failure.
"""

import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import seqproof.cli
import seqproof.field
import seqproof.fiatshamir
import seqproof.harness
import seqproof.noninteractive
import seqproof.qbf
import seqproof.shvdf
import seqproof.sumcheck
import seqproof.turing

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cli", "field", "fiatshamir", "harness", "noninteractive", "qbf", "shvdf", "sumcheck", "turing")
# x2 is universal, so block 1 keeps its Lin round and the inner-Lin span opens
TRUE_FORMULA = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"
SPANS_USED = (
    "cli",
    "field.interpolate",
    "field.is_prime",
    "sumcheck.round_poly.quant",
    "sumcheck.round_poly.lin",
    "sumcheck.round_poly.final",
    "turing.run",
    "shvdf.verify",
    "fiatshamir.ro",
    "noninteractive.encode",
)
# the spans a verify-tqbf call must open: its framing and round polynomials,
# its decode and its verdict
VERIFY_TQBF_SPANS = ("fiatshamir.decode", "noninteractive.decode", "sumcheck.verify")
# the spans a vdf verify call must open: its framing and its decode
VDF_VERIFY_SPANS = ("fiatshamir.decode", "noninteractive.decode")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(sp) -> dict:
    """Every module-level name and every attribute of the modules' own classes."""
    out = {}
    for name in MODULES:
        mod = getattr(sp, name)
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cls_attr, cls_value in vars(value).items():
                    out[(name, attr, cls_attr)] = cls_value
    return out


def test_tracer_wraps_every_layer_and_leaves_nothing_behind(tmp_path, capsys):
    tracing = _load_tracing()
    sp = SimpleNamespace(**{name: getattr(seqproof, name) for name in MODULES})
    formula, transcript = tmp_path / "f.qdimacs", tmp_path / "f.transcript"
    formula.write_text(TRUE_FORMULA)
    pp, proof, forged = tmp_path / "pp.bin", tmp_path / "o.proof", tmp_path / "forged.proof"
    calls = [
        ["prove-tqbf", "--in", formula, "--fs", "--out", transcript],
        ["verify-tqbf", "--in", formula, "--transcript", transcript],
        ["vdf", "setup", "--lambda", "16", "--log2t", "8", "--space", "8", "--seed", "contract", "--pp", pp],
        ["vdf", "open", "--pp", pp, "--input", "0110", "--proof", proof],
        ["vdf", "verify", "--proof", proof, "--pp", pp, "--input", "0110"],
        ["vdf", "attack", "--pp", pp, "--input", "0110", "--proof", forged],
        ["exp", "soundness", "--n", "1", "--m", "1", "--prime", "223", "--trials", "1000"],
    ]

    before = _bindings(sp)
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    opened = {}  # spans each command opened, by its command words
    try:
        tracer.install(sp)
        for argv in calls:
            calls_before = Counter(rec.calls)
            assert sp.cli.main([str(a) for a in argv]) == 0, argv
            command = " ".join(a for a in argv[:2] if not a.startswith("--"))
            opened[command] = {name for name in rec.calls if rec.calls[name] > calls_before[name]}
    finally:
        tracer.uninstall()
    capsys.readouterr()

    for name in SPANS_USED:
        assert rec.calls[name] > 0, name
    for name in VERIFY_TQBF_SPANS:
        assert name in opened["verify-tqbf"], name
    for name in VDF_VERIFY_SPANS:
        assert name in opened["vdf verify"], name
    assert rec.counts["sumcheck.f_evals"] > 0
    assert rec.counts["fiatshamir.ro.bytes_hashed"] > 0
    assert rec.counts["turing.steps.live"] > 0
    assert rec.counts["harness.trials"] > 0
    after = _bindings(sp)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
