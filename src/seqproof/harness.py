"""Measurement experiments: soundness rates, step growth, forgery cost.

Each experiment returns an ExperimentReport with the raw numbers and a
pass flag for the claim it checks, so the same code backs the test suite
and the command line.  Randomness is always derived from an explicit seed.

exp_soundness and exp_attack seed each trial by its index alone, so they
split the trials into one share per CPU the process may run on and run the
shares side by side in forked children (_run_shares); their reports are the
same bytes at any share count.  exp_vdf_growth stays in one process, because
it reports wall times.
"""

from __future__ import annotations

import math
import os
import random
import signal
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from math import isqrt

from .fiatshamir import InteractiveChallenges
from .qbf import random_qbf
from .shvdf import (
    sample_challenge,
    vdf_attack,
    vdf_eval,
    vdf_setup,
    vdf_verify,
)
from .sumcheck import (
    chain_value,
    check_statement,
    check_strategy,
    cheat_prover,
    sumcheck_prove,
    sumcheck_verify,
)

DEFAULT_STRATEGIES = ("wrong-claim", "constant-poly", "random-round")


@dataclass
class ExperimentReport:
    name: str
    params: dict
    metrics: dict
    passed: bool

    def to_json(self) -> str:
        import json

        return json.dumps(asdict(self), indent=2, sort_keys=True)


# ── trial shares ───────────────────────────────────────────────────────────


def _run_shares(share) -> list[tuple[int, ...]]:
    """[share(s, k) for s in range(k)], one share per CPU this process may run on.

    Share s of k takes the trials whose index i has i % k == s, and returns
    its counts as a tuple of ints.  Share 0 runs here; each other share runs
    in a forked child, which writes its counts to a pipe and leaves by
    os._exit.  With one share nothing forks.  No child outlives the call: if
    share 0 raises, every child is killed and reaped before the exception
    goes on, and a child that ends non-zero raises ChildProcessError here.
    A forked child holds only the calling thread, so the caller must run no
    other thread that could hold a lock the shares need; seqproof starts none.
    """
    k = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    children = []  # (share, pid, read end of its pipe)
    own = None
    try:
        for s in range(1, k):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: no cleanup of the parent's state runs here
                status = 1
                try:
                    os.close(read)
                    os.write(write, " ".join(map(str, share(s, k))).encode())
                    status = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            os.close(write)
            children.append((s, pid, read))
        own = share(0, k)
    finally:
        if own is None:
            for _, pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        sent, failed = [], []
        for s, pid, read in children:
            with open(read, "rb") as pipe:
                sent.append(pipe.read())
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                failed.append(f"trial share {s} of {k} exited with status {code}")
    if failed:
        raise ChildProcessError("; ".join(failed))
    return [own] + [tuple(map(int, data.split())) for data in sent]


# ── empirical soundness ────────────────────────────────────────────────────


def soundness_bound(n: int, m: int, p: int) -> float:
    """Union bound over the longest chain, x_2..x_n universal: one slip per
    round degree, (3mn + n^2)/p, which bounds every chain on n variables."""
    return (3 * m * n + n * n) / p


def exp_soundness(
    n: int,
    m: int,
    p: int,
    trials: int = 10_000,
    seed: int = 0,
    strategies=DEFAULT_STRATEGIES,
    control_trials: int = 200,
) -> ExperimentReport:
    """Accept rates of cheating provers against fresh interactive coins.

    Each trial draws a fresh formula.  wrong-claim claims the chain value
    plus 1; constant-poly and random-round(k) claim the chain value itself,
    or 1 where it is 0, and every accept counts.  The pass criterion allows
    three binomial standard deviations above the bound.  An honest control
    on true formulas must accept every time.
    Per-trial randomness is derived from (seed, strategy, trial index), so
    trials are order-independent, and the trials and the controls are split
    into shares (_run_shares) whose accept counts are summed.  The statement
    and every strategy are checked before the first formula is drawn, so
    nothing forks for a refused call.  random-round(k) needs k < 2n, the
    length of the shortest chain on n variables, so that it cheats in every
    trial whatever formula the trial draws.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful rate")
    check_statement(n, m, p)  # before any m-clause formula is drawn
    for strategy in strategies:
        check_strategy(strategy, 2 * n)
    bound = soundness_bound(n, m, p)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    threshold = bound + 3 * sigma

    def share(s: int, k: int) -> tuple[int, ...]:
        counts = []
        for strategy in strategies:
            accepted = 0
            for i in range(s, trials, k):
                formula = random_qbf(random.Random(f"{seed}:{strategy}:{i}:formula"), n, m)
                coins = InteractiveChallenges(random.Random(f"{seed}:{strategy}:{i}:coins"))
                # a seed, not an rng: only the random-round prover seeds one
                transcript = cheat_prover(strategy, formula, p, coins, prover_rng=f"{seed}:{strategy}:{i}:prover")
                if sumcheck_verify(formula, p, transcript).accepted:
                    accepted += 1
            counts.append(accepted)
        control_accepted = 0
        for i in range(s, control_trials, k):
            draw = 0
            formula = random_qbf(random.Random(f"{seed}:control:{i}:{draw}"), n, m)
            while chain_value(formula, p) == 0:
                draw += 1
                formula = random_qbf(random.Random(f"{seed}:control:{i}:{draw}"), n, m)
            coins = InteractiveChallenges(random.Random(f"{seed}:control:{i}:coins"))
            transcript = sumcheck_prove(formula, p, coins)
            if sumcheck_verify(formula, p, transcript).accepted:
                control_accepted += 1
        return (*counts, control_accepted)

    *accepts, control_accepted = map(sum, zip(*_run_shares(share)))
    per_strategy: dict[str, dict] = {}
    passed = True
    for strategy, accepted in zip(strategies, accepts):
        rate = accepted / trials
        per_strategy[strategy] = {
            "accepted": accepted,
            "rate": rate,
            "within_threshold": rate <= threshold,
        }
        passed = passed and rate <= threshold
    passed = passed and control_accepted == control_trials

    return ExperimentReport(
        name="soundness",
        params={
            "n": n,
            "m": m,
            "p": p,
            "trials": trials,
            "seed": seed,
            "control_trials": control_trials,
        },
        metrics={
            "bound": bound,
            "threshold": threshold,
            "strategies": per_strategy,
            "control_accepted": control_accepted,
        },
        passed=passed,
    )


# ── sequential step growth ─────────────────────────────────────────────────


def exp_vdf_growth(
    lam: int = 16,
    log2_steps_list=(10, 11, 12, 13, 14),
    space: int = 32,
    seed: int = 0,
) -> ExperimentReport:
    """Eval and opening each take exactly T = 2^k transitions; verifying does not.

    Checks the transitions taken, not the clock: one run serves eval and
    the opening, as vdf_open's run is vdf_eval's, and takes T (one that halts
    early fails); the verifier replays the T - t <= lam after challenge t,
    and the opening verifies.  Wall times ride along for the growth curve.
    """
    rows = []
    passed = True
    for log2_steps in log2_steps_list:
        pp = vdf_setup(lam, log2_steps, space, f"growth-{seed}-{log2_steps}")
        rng = random.Random(f"{seed}:{log2_steps}:input")
        x = "".join(rng.choice("01") for _ in range(space - 1))
        start = time.perf_counter()
        out = vdf_eval(pp, x)
        eval_seconds = time.perf_counter() - start
        t = sample_challenge(pp, rng)
        start = time.perf_counter()
        verdict = vdf_verify(pp, x, out.value, t, out.respond(t))
        verify_seconds = time.perf_counter() - start
        ok = (
            out.steps == pp.num_steps
            and verdict.accepted
            and verdict.steps == pp.num_steps - t <= lam
        )
        passed = passed and ok
        rows.append(
            {
                "log2_steps": log2_steps,
                "eval_steps": out.steps,
                "open_steps": out.steps,
                "verify_steps": verdict.steps,
                "eval_seconds": round(eval_seconds, 4),
                "verify_seconds": round(verify_seconds, 6),
                "accepted": verdict.accepted,
            }
        )
    return ExperimentReport(
        name="vdf-growth",
        params={
            "lam": lam,
            "log2_steps": list(log2_steps_list),
            "space": space,
            "seed": seed,
        },
        metrics={"rows": rows},
        passed=passed,
    )


# ── forgery cost ───────────────────────────────────────────────────────────


def exp_attack(
    lam: int = 32,
    log2_steps: int = 16,
    space: int = 32,
    instances: int = 100,
    seed: int = 0,
) -> ExperimentReport:
    """Forged outputs pass verification after lam transitions instead of 2^k.

    For each instance: honest Eval, then a forgery from a short run, then
    verification of the forged opening at a random challenge.  Passes when
    every forgery is accepted, no forger takes over lam + 1 transitions, and
    the forged output differs from the honest one in at least 99%.
    Instances are seeded by (seed, index) and split into shares
    (_run_shares): the accept and distinct counts are summed and the forger
    steps are the largest of any share.
    """
    if instances < 100:
        raise ValueError("need at least 100 instances for a meaningful rate")

    def share(s: int, k: int) -> tuple[int, int, int]:
        accepted = distinct = max_forger_steps = 0
        for i in range(s, instances, k):
            pp = vdf_setup(lam, log2_steps, space, f"attack-{seed}-{i}")
            rng = random.Random(f"{seed}:{i}:coins")
            x = "".join(rng.choice("01") for _ in range(space - 1))
            honest = vdf_eval(pp, x)
            forgery = vdf_attack(pp, x, rng)
            max_forger_steps = max(max_forger_steps, forgery.steps)
            t = sample_challenge(pp, rng)
            if vdf_verify(pp, x, forgery.value, t, forgery.respond(t)).accepted:
                accepted += 1
            if forgery.value != honest.value:
                distinct += 1
        return accepted, distinct, max_forger_steps

    accepts, distincts, forger_steps = zip(*_run_shares(share))
    accepted, distinct, max_forger_steps = sum(accepts), sum(distincts), max(forger_steps)
    passed = (
        accepted == instances
        and max_forger_steps <= lam + 1
        and distinct >= math.ceil(0.99 * instances)
    )
    return ExperimentReport(
        name="attack",
        params={
            "lam": lam,
            "log2_steps": log2_steps,
            "space": space,
            "instances": instances,
            "seed": seed,
        },
        metrics={
            "accepted": accepted,
            "distinct_from_honest": distinct,
            "max_forger_steps": max_forger_steps,
            "honest_steps": 1 << log2_steps,
        },
        passed=passed,
    )


# ── matching proof rounds to delay steps ───────────────────────────────────


def min_formula_vars(num_steps: int) -> int:
    """Smallest n whose longest operator chain has at least num_steps rounds.

    The longest chain on n variables, with x_2..x_n universal, has n(n+3)/2
    rounds, so this is the variable count needed before the proof system
    can force as many sequential verifier rounds as a delay of num_steps
    machine steps.
    """
    if num_steps < 1:
        raise ValueError("need a positive step count")
    # n(n+3)/2 = num_steps at n = r = (sqrt(8 num_steps + 9) - 3) / 2; the
    # start is at most r and one past it exceeds r
    n = max(1, (isqrt(8 * num_steps + 9) - 3) // 2)
    return n if n * (n + 3) // 2 >= num_steps else n + 1
