"""Command-line front end: prove/verify, delay-function ops, experiments.

Exit status is 0 exactly when the requested check holds: a verifier
accepted, an experiment's pass criterion was met, or an artifact was
produced.  Malformed inputs and rejections exit 1.

The parser is built from the COMMANDS table on the first `main` call and
reused by every later call in the process.  `main` hands the words after a
command's name straight to that command's own parser; argv that names no
command, or that the command's parser leaves unread, goes to the whole tree,
which prints what it always has.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from .fiatshamir import TQBF_ORACLE, VDF_ORACLE, FiatShamirChallenges
from .fiatshamir import InteractiveChallenges, RecordedChallenges
from .harness import (
    exp_attack,
    exp_soundness,
    exp_vdf_growth,
    min_formula_vars,
)
from .noninteractive import (
    file_bytes,
    fs_vdf_verify,
    load_bundle,
    open_bundle,
    save_bundle,
    verify_bundle,
    verify_transcript_bytes,
)
from .qbf import parse_qbf
from .shvdf import (
    params_from_bytes,
    params_to_bytes,
    vdf_attack,
    vdf_eval,
    vdf_setup,
)
from .sumcheck import sumcheck_prove


def _read_formula(path: str):
    return parse_qbf(Path(path).read_text())


def _read_params(path: str):
    return params_from_bytes(Path(path).read_bytes())


# ── proof system commands ──────────────────────────────────────────────────


def _cmd_prove_tqbf(args) -> int:
    if args.out and not args.fs:
        raise ValueError("--out writes a Fiat-Shamir proof; a file cannot carry the verifier's coins, so add --fs")
    if args.fs and args.seed is not None:
        raise ValueError("--seed seeds the verifier's coins, and --fs derives them by hashing; give one of the two")
    formula = _read_formula(getattr(args, "in"))
    source = FiatShamirChallenges(TQBF_ORACLE) if args.fs else InteractiveChallenges(args.seed or 0)
    transcript = sumcheck_prove(formula, args.prime, source)
    print(f"mode {transcript.mode}")
    print(f"prime {transcript.p}")
    print(f"rounds {len(transcript.polys)}")
    print(f"claimed {transcript.claimed_value}")
    if transcript.claimed_value == 0:
        print("formula is false; no membership proof exists", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_bytes(file_bytes(source))
        print(f"wrote {args.out}")
    return 0


def _cmd_verify_tqbf(args) -> int:
    formula = _read_formula(getattr(args, "in"))
    verdict = verify_transcript_bytes(formula, Path(args.transcript).read_bytes())
    if verdict.accepted:
        print("accepted")
        return 0
    print(f"rejected ({verdict.reason})")
    return 1


# ── delay function commands ────────────────────────────────────────────────


def _cmd_vdf_setup(args) -> int:
    pp = vdf_setup(args.lam, args.log2t, args.space, args.seed, state_bits=args.state_bits)
    Path(args.pp).write_bytes(params_to_bytes(pp))
    print(f"lambda {pp.lam} steps {pp.num_steps} space {pp.space} state-bits {pp.state_bits}")
    print(f"wrote {args.pp}")
    return 0


def _cmd_vdf_eval(args) -> int:
    pp = _read_params(args.pp)
    run = vdf_eval(pp, args.input)
    print(f"value {run.value}")
    print(f"steps {pp.num_steps}")
    print(f"live-steps {run.steps}")
    return 0


def _cmd_vdf_open(args) -> int:
    pp = _read_params(args.pp)
    coin = args.challenge
    if coin is not None:
        pp.check_challenge(coin)  # before the T steps of the run
    challenges = FiatShamirChallenges(VDF_ORACLE) if coin is None else RecordedChallenges([coin])
    bundle = open_bundle(vdf_eval(pp, args.input), args.input, challenges)
    save_bundle(args.proof, bundle)
    print(f"mode {bundle.mode}")
    print(f"value {bundle.output_value}")
    print(f"challenge {bundle.challenge}")
    print(f"wrote {args.proof}")
    return 0


def _vdf_refusal(args, bundle) -> str | None:
    """Why the caller's own parameters or input refuse the bundle."""
    if args.pp is not None and _read_params(args.pp) != bundle.params:
        return "parameter-mismatch"
    if args.input is not None and args.input != bundle.x:
        return "input-mismatch"
    return None


def _cmd_vdf_verify(args) -> int:
    bundle = load_bundle(args.proof)
    reason = _vdf_refusal(args, bundle)
    if reason is None:
        verdict = verify_bundle(bundle, args.challenge)
        if verdict.accepted:
            print(f"accepted (replayed {verdict.steps} steps)")
            return 0
        reason = verdict.reason
    print(f"rejected ({reason})")
    return 1


def _cmd_vdf_attack(args) -> int:
    pp = _read_params(args.pp)
    forgery = vdf_attack(pp, args.input, random.Random(args.seed))
    bundle = open_bundle(forgery, args.input, FiatShamirChallenges(VDF_ORACLE))
    verdict = fs_vdf_verify(bundle)
    print(f"forged value {forgery.value}")
    print(f"forger steps {forgery.steps} (honest evaluation takes {pp.num_steps})")
    print("forged opening " + ("accepted" if verdict.accepted else f"rejected ({verdict.reason})"))
    if args.proof:
        save_bundle(args.proof, bundle)
        print(f"wrote {args.proof}")
    return 0 if verdict.accepted else 1


# ── experiments ────────────────────────────────────────────────────────────


def _emit_report(report, as_json: bool) -> int:
    if as_json:
        print(report.to_json())
    else:
        print(f"experiment {report.name}")
        for key, value in report.metrics.items():
            print(f"  {key}: {value}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_exp_soundness(args) -> int:
    report = exp_soundness(args.n, args.m, args.prime, trials=args.trials, seed=args.seed)
    return _emit_report(report, args.json)


def _int_list(option: str, text: str) -> tuple[int, ...]:
    """A comma-separated list of integers; a bad item is refused by name."""
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise ValueError(f"{option}: {item!r} is not an integer") from None
    return tuple(values)


def _cmd_exp_growth(args) -> int:
    log2_list = _int_list("--log2t", args.log2t)
    report = exp_vdf_growth(
        lam=args.lam, log2_steps_list=log2_list, space=args.space, seed=args.seed
    )
    return _emit_report(report, args.json)


def _cmd_exp_attack(args) -> int:
    report = exp_attack(
        lam=args.lam,
        log2_steps=args.log2t,
        space=args.space,
        instances=args.instances,
        seed=args.seed,
    )
    return _emit_report(report, args.json)


def _cmd_exp_min_vars(args) -> int:
    print(min_formula_vars(args.steps))
    return 0


# ── parser ─────────────────────────────────────────────────────────────────

# One row per command: its words, its help, its handler, and its arguments as
# (flag, add_argument keywords) pairs.  Group words get their help from GROUPS.
GROUPS = {"vdf": "delay function operations", "exp": "measurement experiments"}
COMMANDS = (
    (("prove-tqbf",), "prove a quantified formula true", _cmd_prove_tqbf, (
        ("--in", dict(required=True, help="formula file (qdimacs)")),
        ("--prime", dict(type=int, default=None, help="field modulus (default: smallest admissible one at which a true formula's claim is nonzero)")),
        ("--fs", dict(action="store_true", help="derive challenges by hashing")),
        ("--seed", dict(type=int, default=None, help="verifier coin seed (interactive mode; default 0)")),
        ("--out", dict(default=None, help="transcript file to write (requires --fs)")))),
    (("verify-tqbf",), "check a transcript against a formula", _cmd_verify_tqbf, (
        ("--in", dict(required=True, help="formula file (qdimacs)")),
        ("--transcript", dict(required=True, help="transcript file")))),
    (("vdf", "setup"), "fix parameters", _cmd_vdf_setup, (
        ("--lambda", dict(dest="lam", type=int, required=True)),
        ("--log2t", dict(type=int, required=True, help="log2 of the step count")),
        ("--space", dict(type=int, required=True, help="tape cells")),
        ("--seed", dict(required=True, help="transition-rule seed string")),
        ("--state-bits", dict(type=int, default=None, help="state width (default: log2t + lambda, at most 120)")),
        ("--pp", dict(required=True, help="parameter file to write")))),
    (("vdf", "eval"), "run the full computation", _cmd_vdf_eval, (
        ("--pp", dict(required=True, help="parameter file")),
        ("--input", dict(required=True, help="input bit string")))),
    (("vdf", "open"), "produce an opening proof file", _cmd_vdf_open, (
        ("--pp", dict(required=True)),
        ("--input", dict(required=True)),
        ("--challenge", dict(type=int, default=None, help="explicit challenge step (default: hash-derived)")),
        ("--proof", dict(required=True, help="proof file to write")))),
    (("vdf", "verify"), "check an opening proof file", _cmd_vdf_verify, (
        ("--proof", dict(required=True)),
        ("--pp", dict(default=None, help="cross-check the proof's parameters")),
        ("--input", dict(default=None, help="cross-check the proof's input")),
        ("--challenge", dict(type=int, default=None, help="the verifier's challenge step; an interactive proof is accepted only at it")))),
    (("vdf", "attack"), "forge an accepting opening cheaply", _cmd_vdf_attack, (
        ("--pp", dict(required=True)),
        ("--input", dict(required=True)),
        ("--seed", dict(type=int, default=0)),
        ("--proof", dict(default=None, help="proof file to write")))),
    (("exp", "soundness"), "cheating-prover accept rates", _cmd_exp_soundness, (
        ("--n", dict(type=int, default=1, help="variables")),
        ("--m", dict(type=int, default=1, help="clauses")),
        ("--prime", dict(type=int, default=223)),
        ("--trials", dict(type=int, default=10_000)),
        ("--seed", dict(type=int, default=0)),
        ("--json", dict(action="store_true")))),
    (("exp", "growth"), "step counters across step-count settings", _cmd_exp_growth, (
        ("--lambda", dict(dest="lam", type=int, default=16)),
        ("--log2t", dict(default="10,11,12,13,14", help="comma-separated exponents")),
        ("--space", dict(type=int, default=32)),
        ("--seed", dict(type=int, default=0)),
        ("--json", dict(action="store_true")))),
    (("exp", "attack"), "forgery cost and accept rate", _cmd_exp_attack, (
        ("--lambda", dict(dest="lam", type=int, default=32)),
        ("--log2t", dict(type=int, default=16)),
        ("--space", dict(type=int, default=32)),
        ("--instances", dict(type=int, default=100)),
        ("--seed", dict(type=int, default=0)),
        ("--json", dict(action="store_true")))),
    (("exp", "min-vars"), "variables needed for a given round count", _cmd_exp_min_vars, (
        ("--steps", dict(type=int, required=True)),)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of COMMANDS, built on first use and kept.

    Its `command_parsers` maps each row's words to that command's parser,
    the one the tree hands the rest of argv to after those words.
    """
    parser = argparse.ArgumentParser(
        prog="seqproof",
        description="interactive proofs, a breakable delay function, and measurements",
    )
    parsers, subparsers = {(): parser}, {}
    for words, help_, handler, arguments in COMMANDS:
        for depth in range(1, len(words) + 1):
            above, name = words[: depth - 1], words[:depth]
            if above not in subparsers:
                subparsers[above] = parsers[above].add_subparsers(dest="_".join(above + ("command",)), required=True)
            if name not in parsers:
                parsers[name] = subparsers[above].add_parser(name[-1], help=help_ if name == words else GROUPS[name[-1]])
        for flag, keywords in arguments:
            parsers[words].add_argument(flag, **keywords)
        parsers[words].set_defaults(func=handler)
    parser.command_parsers = {words: parsers[words] for words, *_ in COMMANDS}
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the parser of the command it names, as the tree would.

    The tree's subcommand action passes that parser the same words and
    raises only for what it leaves unread; that case, and argv naming no
    command, goes to the tree itself, for its usage and error text.
    """
    parser = build_parser()
    depth = 2 if argv and argv[0] in GROUPS else 1
    command = parser.command_parsers.get(tuple(argv[:depth]))
    if command is not None:
        args, unread = command.parse_known_args(argv[depth:])
        if not unread:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
