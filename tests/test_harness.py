import json
import os
import random
import time
from math import isqrt

import pytest

from machine_steps import count_machine_steps
from seqproof import field, harness
from seqproof.cli import main

from seqproof.harness import (
    ExperimentReport,
    exp_attack,
    exp_soundness,
    exp_vdf_growth,
    min_formula_vars,
    soundness_bound,
)
from seqproof.field import next_prime_at_least
from seqproof.fiatshamir import InteractiveChallenges
from seqproof.qbf import random_qbf
from seqproof.sumcheck import build_operator_chain, cheat_prover


def test_min_formula_vars_frozen():
    assert min_formula_vars(1) == 1
    assert min_formula_vars(2) == 1
    assert min_formula_vars(3) == 2
    assert min_formula_vars(5) == 2
    assert min_formula_vars(6) == 3
    assert min_formula_vars(65536) == 361
    with pytest.raises(ValueError):
        min_formula_vars(0)


def test_min_formula_vars_matches_chain_lengths():
    for n in range(1, 101):
        length = n * (n + 3) // 2
        assert min_formula_vars(length) == n
        assert min_formula_vars(length + 1) == n + 1


def test_min_formula_vars_matches_bisection_up_to_huge_budgets():
    def bisect(steps):
        lo, hi = 1, 2
        while hi * (hi + 3) // 2 < steps:
            lo, hi = hi, 2 * hi
        while lo < hi:  # smallest n in [lo, hi] with n(n+3)/2 >= steps
            mid = (lo + hi) // 2
            if mid * (mid + 3) // 2 >= steps:
                hi = mid
            else:
                lo = mid + 1
        return lo

    rng = random.Random(15)
    budgets = list(range(1, 2000))
    for digits in range(4, 61):
        budgets += [10**digits - 1, 10**digits, 10**digits + 1]
        budgets += [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(40)]
        n = isqrt(2 * 10**digits)  # chain lengths near 10^digits and their neighbours
        for k in (n - 1, n, n + 1):
            budgets += [k * (k + 3) // 2 - 1, k * (k + 3) // 2, k * (k + 3) // 2 + 1]
    for steps in budgets:
        assert min_formula_vars(steps) == bisect(steps), steps


def test_soundness_bound():
    assert soundness_bound(1, 1, 223) == 4 / 223
    assert soundness_bound(2, 2, 1009) == 16 / 1009


def test_soundness_report_small():
    report = exp_soundness(1, 1, 223, trials=1000, seed=1, control_trials=30)
    assert report.passed
    assert report.metrics["control_accepted"] == 30
    assert set(report.metrics["strategies"]) == {
        "wrong-claim",
        "constant-poly",
        "random-round",
    }
    for row in report.metrics["strategies"].values():
        assert 0 <= row["rate"] <= report.metrics["threshold"]


def test_soundness_single_strategy_and_guard():
    report = exp_soundness(
        1, 1, 223, trials=1000, seed=4, strategies=("constant-poly",), control_trials=5
    )
    assert list(report.metrics["strategies"]) == ["constant-poly"]
    with pytest.raises(ValueError, match="1000 trials"):
        exp_soundness(1, 1, 223, trials=500)


def test_vdf_growth_small():
    report = exp_vdf_growth(lam=8, log2_steps_list=(4, 5), space=8, seed=0)
    assert report.passed
    rows = report.metrics["rows"]
    assert [r["eval_steps"] for r in rows] == [16, 32]
    assert all(r["open_steps"] == r["eval_steps"] for r in rows)
    assert all(r["verify_steps"] <= 8 for r in rows)
    with pytest.raises(ValueError, match="2\\^22"):
        exp_vdf_growth(lam=32, log2_steps_list=(23,), space=8)


def test_vdf_growth_steps_the_machine_once_per_row(monkeypatch):
    stepped = count_machine_steps(monkeypatch)
    report = exp_vdf_growth(lam=8, log2_steps_list=(4, 5, 6), space=8, seed=0)
    assert report.passed
    rows = report.metrics["rows"]
    assert sum(stepped) == sum(2 ** r["log2_steps"] for r in rows) == 112
    assert all(r["open_steps"] == r["eval_steps"] == 2 ** r["log2_steps"] for r in rows)


def _state_bits_at_lam(monkeypatch):
    """Make the experiments set up machines the way the old default did."""
    setup = harness.vdf_setup
    monkeypatch.setattr(
        harness, "vdf_setup", lambda lam, log2_steps, space, seed: setup(lam, log2_steps, space, seed, state_bits=lam)
    )


def test_vdf_growth_reports_live_eval_steps(monkeypatch):
    _state_bits_at_lam(monkeypatch)
    report = exp_vdf_growth(lam=8, log2_steps_list=(4, 5), space=8, seed=0)
    rows = report.metrics["rows"]
    # the 16-step run halts after 11 transitions; the 32-step run never does
    assert [r["eval_steps"] for r in rows] == [11, 32]
    assert [r["open_steps"] for r in rows] == [11, 32]
    # the replay after the halt takes no transition
    assert rows[0]["verify_steps"] == 0 and rows[0]["accepted"]
    assert report.passed is False


def test_the_growth_gate_fails_when_runs_halt_early(monkeypatch):
    # criterion 7's parameters with state_bits = lam: three of five runs halt
    _state_bits_at_lam(monkeypatch)
    report = exp_vdf_growth(lam=16, log2_steps_list=(10, 11, 12, 13, 14), space=32, seed=707)
    assert [r["eval_steps"] for r in report.metrics["rows"]] == [1024, 2048, 3990, 2128, 5375]
    assert all(r["accepted"] for r in report.metrics["rows"])
    assert report.passed is False


def test_attack_report_small():
    report = exp_attack(lam=16, log2_steps=10, space=8, instances=100, seed=0)
    assert report.metrics["accepted"] == 100
    assert report.metrics["max_forger_steps"] <= 17
    assert report.metrics["honest_steps"] == 1024
    assert report.passed
    with pytest.raises(ValueError, match="100 instances"):
        exp_attack(lam=16, log2_steps=10, space=8, instances=50)


def test_reports_serialize():
    report = exp_vdf_growth(lam=8, log2_steps_list=(4,), space=4, seed=2)
    decoded = json.loads(report.to_json())
    assert decoded["name"] == "vdf-growth"
    assert decoded["passed"] is True
    assert isinstance(report, ExperimentReport)


def test_soundness_checks_the_statement_size_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a formula was drawn")

    monkeypatch.setattr(harness, "random_qbf", no_draw)
    with pytest.raises(ValueError, match="2\\^40 prime cap"):
        exp_soundness(1, 10**8, next_prime_at_least(1 << 39))


def test_soundness_refuses_an_empty_statement_before_drawing(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a formula was drawn")

    monkeypatch.setattr(harness, "random_qbf", no_draw)
    for n, m in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="at least one variable and one clause"):
            exp_soundness(n, m, 223)
    assert main(["exp", "soundness", "--n", "0", "--m", "1"]) == 1
    assert capsys.readouterr().err == "error: a statement needs at least one variable and one clause\n"


@pytest.mark.parametrize(
    "strategies, message",
    [
        (("wrong-claim", "random-round(x)"), "unknown cheat strategy 'random-round(x)'"),
        # a k must fall inside the shortest chain on n = 2 variables, 2n = 4 rounds
        (("constant-poly", "random-round(99)"), "round 99 outside a chain of 4 rounds"),
        (("random-round(5)",), "round 5 outside a chain of 4 rounds"),
        (("random-round(4)",), "round 4 outside a chain of 4 rounds"),
    ],
)
def test_soundness_refuses_a_bad_strategy_before_the_first_trial(monkeypatch, strategies, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a formula was drawn")

    monkeypatch.setattr(harness, "random_qbf", no_draw)
    with pytest.raises(ValueError) as exc:
        exp_soundness(2, 2, 1009, trials=1000, strategies=strategies)
    assert str(exc.value) == message


def test_soundness_refuses_a_round_past_the_shortest_chain_before_drawing(monkeypatch):
    # at n = 3 a chain has 6 to 9 rounds: round 6 lies in some chains, not in all
    def no_draw(*args, **kwargs):
        raise AssertionError("a formula was drawn")

    monkeypatch.setattr(harness, "random_qbf", no_draw)
    with pytest.raises(ValueError, match=r"^round 6 outside a chain of 6 rounds$"):
        exp_soundness(3, 2, 1009, trials=1000, strategies=("wrong-claim", "random-round(6)"))


def test_a_random_round_prover_cheats_on_every_chain_it_is_allowed_on():
    # k = 5 < 2n = 6 at n = 3, so every formula's chain has round 5
    class Counted(random.Random):
        draws = 0

        def randrange(self, *args):
            self.draws += 1
            return super().randrange(*args)

    rng = random.Random(333)
    lengths = set()
    for i in range(500):
        formula = random_qbf(rng, 3, 2)
        lengths.add(len(build_operator_chain(formula)))
        prover_rng = Counted(i)
        cheat_prover("random-round(5)", formula, 1009, InteractiveChallenges(i), prover_rng)
        assert prover_rng.draws > 0, formula
    assert min(lengths) == 6


def test_soundness_tests_its_prime_once(monkeypatch):
    tested = []
    is_prime = field.is_prime
    monkeypatch.setattr(field, "is_prime", lambda n: tested.append(n) or is_prime(n))
    field._tested_prime.cache_clear()
    assert exp_soundness(2, 2, 1009, trials=1000, seed=2).passed
    assert tested == [1009]
    # a refused modulus is not kept: it is tested, and refused, on every call
    for calls in (2, 3):
        with pytest.raises(ValueError, match="^6 is not prime$"):
            field.check_prime(6)
        assert tested.count(6) == calls - 1
    assert field._tested_prime.cache_info().currsize == 1


def test_the_prime_cache_stays_at_its_bound():
    kept = field._tested_prime
    kept.cache_clear()
    assert kept.cache_info().maxsize == field.PRIME_CACHE_ENTRIES
    primes = [p for p in range(2, 1000) if field.is_prime(p)][: 2 * field.PRIME_CACHE_ENTRIES]
    for p in primes:
        field.check_prime(p)
    assert kept.cache_info().currsize == field.PRIME_CACHE_ENTRIES


def test_only_random_round_trials_seed_a_prover_rng(monkeypatch):
    seeds = []
    base = random.Random

    class Recorded(base):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    monkeypatch.setattr(random, "Random", Recorded)
    # every share runs in this process, so the recorder sees all of them
    monkeypatch.setattr(harness, "_run_shares", lambda share: [share(s, 3) for s in range(3)])
    report = exp_soundness(1, 1, 223, trials=1000, seed=6, control_trials=5)
    assert report.passed
    provers = [x for x in seeds if isinstance(x, str) and x.endswith(":prover")]
    assert provers == [f"6:random-round:{i}:prover" for s in range(3) for i in range(s, 1000, 3)]
    assert sorted(provers) == sorted(f"6:random-round:{i}:prover" for i in range(1000))
    assert len(set(provers)) == len(provers)


def _shares(monkeypatch, k):
    """Make the experiments split their trials k ways, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_reports_are_the_same_bytes_at_any_share_count(monkeypatch):
    reports = []
    for k in (1, 2, 3):
        _shares(monkeypatch, k)
        soundness = exp_soundness(1, 1, 223, trials=1000, seed=12, control_trials=31)
        attack = exp_attack(lam=16, log2_steps=10, space=8, instances=101, seed=3)
        reports.append((soundness.to_json(), attack.to_json()))
        _no_child_left()
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0][0])["metrics"]["control_accepted"] == 31
    assert json.loads(reports[0][1])["metrics"]["accepted"] == 101


@pytest.mark.parametrize("fails_in", [None, "parent", "child"])
def test_no_share_outlives_the_call(monkeypatch, capfd, fails_in):
    _shares(monkeypatch, 3)
    parent = os.getpid()
    verify = harness.sumcheck_verify
    slept = []

    def failing(*args):
        here = "parent" if os.getpid() == parent else "child"
        if here == fails_in:
            raise RuntimeError(f"a share failed in the {here}")
        if fails_in == "parent" and not slept:
            slept.append(here)  # each child sleeps once, so a missed kill costs 60 s
            time.sleep(60)
        return verify(*args)

    monkeypatch.setattr(harness, "sumcheck_verify", failing)
    start = time.monotonic()
    if fails_in is None:
        assert exp_soundness(1, 1, 223, trials=1000, seed=1, control_trials=5).passed
    elif fails_in == "parent":
        with pytest.raises(RuntimeError, match="a share failed in the parent"):
            exp_soundness(1, 1, 223, trials=1000, seed=1, control_trials=5)
        # the children were killed, not waited for
        assert time.monotonic() - start < 30
    else:
        with pytest.raises(ChildProcessError) as exc:
            exp_soundness(1, 1, 223, trials=1000, seed=1, control_trials=5)
        assert str(exc.value) == (
            "trial share 1 of 3 exited with status 1; trial share 2 of 3 exited with status 1"
        )
        # each child leaves its traceback on stderr
        assert capfd.readouterr().err.count("RuntimeError: a share failed in the child") == 2
    _no_child_left()
