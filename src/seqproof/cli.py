"""Command-line front end: prove/verify, delay-function ops, experiments.

Exit status is 0 exactly when the requested check holds: a verifier
accepted, an experiment's pass criterion was met, or an artifact was
produced.  Malformed inputs and rejections exit 1.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .fiatshamir import VDF_ORACLE, DecodeError, FiatShamirChallenges
from .fiatshamir import InteractiveChallenges, RecordedChallenges
from .harness import (
    exp_attack,
    exp_parallel_sum,
    exp_soundness,
    exp_vdf_growth,
    min_formula_vars,
)
from .noninteractive import (
    fs_prove_tqbf,
    fs_vdf_verify,
    load_bundle,
    load_transcript,
    open_bundle,
    save_bundle,
    save_transcript,
    verify_bundle,
)
from .qbf import QbfParseError, parse_qbf
from .shvdf import (
    params_from_bytes,
    params_to_bytes,
    vdf_attack,
    vdf_eval,
    vdf_run,
    vdf_setup,
)
from .sumcheck import sumcheck_prove, sumcheck_verify


def _read_formula(path: str):
    return parse_qbf(Path(path).read_text())


def _read_params(path: str):
    return params_from_bytes(Path(path).read_bytes())


# ── proof system commands ──────────────────────────────────────────────────


def _cmd_prove_tqbf(args) -> int:
    formula = _read_formula(getattr(args, "in"))
    if args.fs:
        transcript = fs_prove_tqbf(formula, args.prime or None)
    else:
        transcript = sumcheck_prove(formula, args.prime or None, InteractiveChallenges(args.seed))
    print(f"mode {transcript.mode}")
    print(f"prime {transcript.p}")
    print(f"rounds {len(transcript.rounds)}")
    print(f"claimed {transcript.claimed_value}")
    if transcript.claimed_value == 0:
        print("formula is false; no membership proof exists", file=sys.stderr)
        return 1
    if args.out:
        save_transcript(args.out, transcript)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify_tqbf(args) -> int:
    formula = _read_formula(getattr(args, "in"))
    transcript = load_transcript(args.transcript)
    verdict = sumcheck_verify(formula, transcript.p, transcript)
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
    out = vdf_eval(pp, args.input)
    print(f"value {out.value}")
    print(f"steps {out.steps}")
    return 0


def _cmd_vdf_open(args) -> int:
    pp = _read_params(args.pp)
    coin = args.challenge
    if coin is not None:
        pp.check_challenge(coin)  # before the T steps of the run
    challenges = FiatShamirChallenges(VDF_ORACLE) if coin is None else RecordedChallenges([coin])
    bundle = open_bundle(vdf_run(pp, args.input), args.input, challenges)
    save_bundle(args.proof, bundle)
    print(f"mode {bundle.mode}")
    print(f"value {bundle.output_value}")
    print(f"challenge {bundle.challenge}")
    print(f"wrote {args.proof}")
    return 0


def _cmd_vdf_verify(args) -> int:
    bundle = load_bundle(args.proof)
    if args.pp is not None and _read_params(args.pp) != bundle.params:
        print("rejected (parameter-mismatch)")
        return 1
    if args.input is not None and args.input != bundle.x:
        print("rejected (input-mismatch)")
        return 1
    verdict = verify_bundle(bundle)
    if verdict.accepted:
        print(f"accepted (replayed {verdict.steps} steps)")
        return 0
    print(f"rejected ({verdict.reason})")
    return 1


def _cmd_vdf_attack(args) -> int:
    pp = _read_params(args.pp)
    forgery = vdf_attack(pp, args.input, random.Random(args.seed))
    bundle = open_bundle(forgery, args.input, FiatShamirChallenges(VDF_ORACLE))
    verdict = fs_vdf_verify(bundle)
    print(f"forged value {forgery.output.value}")
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


def _cmd_exp_parallel(args) -> int:
    workers = tuple(int(w) for w in args.workers.split(","))
    report = exp_parallel_sum(
        num_vars=args.vars, num_clauses=args.clauses, workers_list=workers, seed=args.seed
    )
    return _emit_report(report, args.json)


def _cmd_exp_growth(args) -> int:
    log2_list = tuple(int(v) for v in args.log2t.split(","))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqproof",
        description="interactive proofs, a breakable delay function, and measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove-tqbf", help="prove a quantified formula true")
    prove.add_argument("--in", required=True, help="formula file (qdimacs)")
    prove.add_argument("--prime", type=int, default=None, help="field modulus (default: smallest admissible one at which a true formula's claim is nonzero)")
    prove.add_argument("--fs", action="store_true", help="derive challenges by hashing")
    prove.add_argument("--seed", type=int, default=0, help="verifier coin seed (interactive mode)")
    prove.add_argument("--out", default=None, help="transcript file to write")
    prove.set_defaults(func=_cmd_prove_tqbf)

    verify = sub.add_parser("verify-tqbf", help="check a transcript against a formula")
    verify.add_argument("--in", required=True, help="formula file (qdimacs)")
    verify.add_argument("--transcript", required=True, help="transcript file")
    verify.set_defaults(func=_cmd_verify_tqbf)

    vdf = sub.add_parser("vdf", help="delay function operations")
    vdf_sub = vdf.add_subparsers(dest="vdf_command", required=True)

    setup = vdf_sub.add_parser("setup", help="fix parameters")
    setup.add_argument("--lambda", dest="lam", type=int, required=True)
    setup.add_argument("--log2t", type=int, required=True, help="log2 of the step count")
    setup.add_argument("--space", type=int, required=True, help="tape cells")
    setup.add_argument("--seed", required=True, help="transition-rule seed string")
    setup.add_argument("--state-bits", type=int, default=None)
    setup.add_argument("--pp", required=True, help="parameter file to write")
    setup.set_defaults(func=_cmd_vdf_setup)

    ev = vdf_sub.add_parser("eval", help="run the full computation")
    ev.add_argument("--pp", required=True, help="parameter file")
    ev.add_argument("--input", required=True, help="input bit string")
    ev.set_defaults(func=_cmd_vdf_eval)

    op = vdf_sub.add_parser("open", help="produce an opening proof file")
    op.add_argument("--pp", required=True)
    op.add_argument("--input", required=True)
    op.add_argument("--challenge", type=int, default=None, help="explicit challenge step (default: hash-derived)")
    op.add_argument("--proof", required=True, help="proof file to write")
    op.set_defaults(func=_cmd_vdf_open)

    ve = vdf_sub.add_parser("verify", help="check an opening proof file")
    ve.add_argument("--proof", required=True)
    ve.add_argument("--pp", default=None, help="cross-check the proof's parameters")
    ve.add_argument("--input", default=None, help="cross-check the proof's input")
    ve.set_defaults(func=_cmd_vdf_verify)

    at = vdf_sub.add_parser("attack", help="forge an accepting opening cheaply")
    at.add_argument("--pp", required=True)
    at.add_argument("--input", required=True)
    at.add_argument("--seed", type=int, default=0)
    at.add_argument("--proof", default=None, help="proof file to write")
    at.set_defaults(func=_cmd_vdf_attack)

    exp = sub.add_parser("exp", help="measurement experiments")
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)

    so = exp_sub.add_parser("soundness", help="cheating-prover accept rates")
    so.add_argument("--n", type=int, default=1, help="variables")
    so.add_argument("--m", type=int, default=1, help="clauses")
    so.add_argument("--prime", type=int, default=223)
    so.add_argument("--trials", type=int, default=10_000)
    so.add_argument("--seed", type=int, default=0)
    so.add_argument("--json", action="store_true")
    so.set_defaults(func=_cmd_exp_soundness)

    pa = exp_sub.add_parser("parallel", help="split the prover's cube sums across processes")
    pa.add_argument("--vars", type=int, default=16)
    pa.add_argument("--clauses", type=int, default=12)
    pa.add_argument("--workers", default="1,2,4,8", help="comma-separated worker counts")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=_cmd_exp_parallel)

    gr = exp_sub.add_parser("growth", help="step counters across step-count settings")
    gr.add_argument("--lambda", dest="lam", type=int, default=16)
    gr.add_argument("--log2t", default="10,11,12,13,14", help="comma-separated exponents")
    gr.add_argument("--space", type=int, default=32)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--json", action="store_true")
    gr.set_defaults(func=_cmd_exp_growth)

    ak = exp_sub.add_parser("attack", help="forgery cost and accept rate")
    ak.add_argument("--lambda", dest="lam", type=int, default=32)
    ak.add_argument("--log2t", type=int, default=16)
    ak.add_argument("--space", type=int, default=32)
    ak.add_argument("--instances", type=int, default=100)
    ak.add_argument("--seed", type=int, default=0)
    ak.add_argument("--json", action="store_true")
    ak.set_defaults(func=_cmd_exp_attack)

    mv = exp_sub.add_parser("min-vars", help="variables needed for a given round count")
    mv.add_argument("--steps", type=int, required=True)
    mv.set_defaults(func=_cmd_exp_min_vars)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, QbfParseError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
