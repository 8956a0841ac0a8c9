"""End-to-end acceptance checks for the whole package.

Each test covers one acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line with the measured numbers (visible even under
pytest's default capture).  Run the suite on its own with::

    pytest tests/test_acceptance.py -v

The criteria pin exact counts and tolerances; the stated wall-clock
budgets are asserted too, so a pathological slowdown fails loudly.
Criterion 5 (parallel-sum invariance) left with the process-pool sum it
checked; the others keep their numbers.
"""

import random
import time

from qbf_sampler import sample_distinct_qbfs
from seqproof.field import next_prime_at_least
from seqproof.harness import (
    exp_attack,
    exp_soundness,
    exp_vdf_growth,
)
from seqproof.noninteractive import (
    DecodeError,
    bundle_from_bytes,
    bundle_to_bytes,
    fs_prove_tqbf,
    fs_vdf_verify,
    fs_vdf_open,
    fs_verify_tqbf,
    transcript_from_bytes,
    transcript_to_bytes,
)
from seqproof.qbf import (
    QbfParseError,
    eval_qbf_bruteforce,
    random_qbf,
)
from seqproof.shvdf import (
    sample_challenge,
    vdf_eval,
    vdf_open,
    vdf_setup,
    vdf_verify,
)
from seqproof.sumcheck import (
    build_operator_chain,
    chain_value,
    default_prime,
    sumcheck_prove,
    sumcheck_verify,
)
from seqproof.fiatshamir import InteractiveChallenges
from seqproof.turing import (
    TmDescription,
    decide_spacehalt,
    initial_configuration,
    parse_machine,
    tm_run,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence(capsys):
    # Chain value nonzero mod the default prime iff brute force says true,
    # over 200 structurally distinct small formulas.  Exact.
    start = time.perf_counter()
    formulas = sample_distinct_qbfs(3, 3, 200, seed=101)
    mismatches = 0
    for f in formulas:
        p = next_prime_at_least(2**f.num_vars * 3 ** len(f.clauses))
        if (chain_value(f, p) != 0) != eval_qbf_bruteforce(f):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = len(formulas) == 200 and mismatches == 0 and elapsed < 60.0
    _report(
        capsys,
        1,
        ok,
        f"oracle equivalence on {len(formulas)} formulas, "
        f"{mismatches} mismatches ({elapsed:.1f}s)",
    )


def test_criterion_02_chain_shape(capsys):
    rng = random.Random(202)
    bad = []
    for n in range(1, 11):
        f = random_qbf(rng, n, 3)
        got = len(build_operator_chain(f))
        if got != n * (n + 3) // 2:
            bad.append((n, got))
    _report(capsys, 2, not bad, f"chain length n(n+3)/2 for n=1..10, deviations {bad}")


def test_criterion_03_completeness(capsys):
    # Honest prover on 50 random true formulas, interactive and hash-derived
    # coins both: every run must accept.
    start = time.perf_counter()
    rng = random.Random(303)
    formulas = []
    while len(formulas) < 50:
        f = random_qbf(rng, rng.randint(1, 4), rng.randint(1, 6))
        if eval_qbf_bruteforce(f):
            formulas.append(f)
    interactive = fiat_shamir = 0
    for i, f in enumerate(formulas):
        p = default_prime(f)
        coins = InteractiveChallenges(random.Random(f"303:{i}"))
        if sumcheck_verify(f, p, sumcheck_prove(f, p, coins)).accepted:
            interactive += 1
        if fs_verify_tqbf(f, fs_prove_tqbf(f)).accepted:
            fiat_shamir += 1
    elapsed = time.perf_counter() - start
    ok = interactive == 50 and fiat_shamir == 50 and elapsed < 60.0
    _report(
        capsys,
        3,
        ok,
        f"honest accept interactive {interactive}/50, "
        f"fiat-shamir {fiat_shamir}/50 ({elapsed:.1f}s)",
    )


def test_criterion_04_soundness(capsys):
    # Every cheating strategy's accept rate stays within the proven bound
    # plus three binomial standard deviations, at 10^4 trials per strategy.
    start = time.perf_counter()
    reports = [
        exp_soundness(1, 1, 223, trials=10_000, seed=404),
        exp_soundness(2, 2, 1009, trials=10_000, seed=405),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 300.0
    rates = {
        f"n={r.params['n']},m={r.params['m']}": {
            s: d["rate"] for s, d in r.metrics["strategies"].items()
        }
        for r in reports
    }
    _report(capsys, 4, ok, f"cheat accept rates within bound+3sigma: {rates} ({elapsed:.1f}s)")


def test_criterion_06_vdf_correctness(capsys):
    # 100 honest evaluate/open/verify cycles across five step counts, plus
    # exhaustive verification over the whole challenge window for 10 of them.
    start = time.perf_counter()
    rng = random.Random(606)
    accepted = 0
    exhaustive_ok = 0
    instances = []
    for i in range(100):
        log2t = 10 + i % 5
        pp = vdf_setup(16, log2t, 32, f"acc6-{i}")
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 24)))
        out = vdf_eval(pp, x)
        t = sample_challenge(pp, rng)
        if vdf_verify(pp, x, out.value, t, vdf_open(pp, x, t)).accepted:
            accepted += 1
        instances.append((pp, x, out.value))
    for pp, x, y in instances[:10]:
        if all(
            vdf_verify(pp, x, y, t, vdf_open(pp, x, t)).accepted
            for t in range(pp.num_steps - pp.lam, pp.num_steps)
        ):
            exhaustive_ok += 1
    elapsed = time.perf_counter() - start
    ok = accepted == 100 and exhaustive_ok == 10 and elapsed < 120.0
    _report(
        capsys,
        6,
        ok,
        f"honest cycles {accepted}/100 accepted, exhaustive challenge sweep "
        f"{exhaustive_ok}/10 ({elapsed:.1f}s)",
    )


def test_criterion_07_vdf_cost_model(capsys):
    # the rows count transitions taken, so a run that halts early fails
    report = exp_vdf_growth(lam=16, log2_steps_list=(10, 11, 12, 13, 14), space=32, seed=707)
    rows = report.metrics["rows"]
    exact = all(r["eval_steps"] == 2 ** r["log2_steps"] for r in rows)
    opened = all(r["open_steps"] == 2 ** r["log2_steps"] for r in rows)
    ok = report.passed and exact and opened
    _report(
        capsys,
        7,
        ok,
        f"eval transitions == T exactly: {exact}; open transitions == T exactly: {opened} "
        f"(T=2^10..2^14)",
    )


def test_criterion_08_attack(capsys):
    start = time.perf_counter()
    report = exp_attack(lam=32, log2_steps=16, space=32, instances=100, seed=808)
    elapsed = time.perf_counter() - start
    m = report.metrics
    ok = (
        report.passed
        and m["accepted"] == 100
        and m["max_forger_steps"] <= 32 + 1
        and m["distinct_from_honest"] >= 99
        and elapsed < 120.0
    )
    _report(
        capsys,
        8,
        ok,
        f"forgeries accepted {m['accepted']}/100, adversary transitions "
        f"<= {m['max_forger_steps']} (budget {32 + 1}), output differs from honest "
        f"{m['distinct_from_honest']}/100 ({elapsed:.1f}s)",
    )


def _flip(blob: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(blob))
    mutated = bytearray(blob)
    mutated[pos] ^= 1 << rng.randrange(8)
    return bytes(mutated)


def test_criterion_09_tamper_rejection(capsys):
    # 100 single-byte corruptions of valid non-interactive artifacts, half
    # per protocol; at least 99 must be rejected.  (A flip inside the VDF
    # bundle's input field slips through when the re-derived challenge
    # happens to collide, probability 1/lam per such flip.)
    rng = random.Random(909)
    formula = next(
        f for f in sample_distinct_qbfs(3, 3, 200, seed=19) if eval_qbf_bruteforce(f)
    )
    transcript_blob = transcript_to_bytes(fs_prove_tqbf(formula))
    pp = vdf_setup(32, 12, 32, "acc9")
    bundle_blob = bundle_to_bytes(fs_vdf_open(pp, "101100111000"))

    rejected = 0
    for _ in range(50):
        try:
            verdict = fs_verify_tqbf(formula, transcript_from_bytes(_flip(transcript_blob, rng)))
            rejected += not verdict.accepted
        except (DecodeError, QbfParseError, ValueError):
            rejected += 1
    for _ in range(50):
        try:
            rejected += not fs_vdf_verify(bundle_from_bytes(_flip(bundle_blob, rng))).accepted
        except (DecodeError, ValueError):
            rejected += 1
    ok = rejected >= 99
    _report(capsys, 9, ok, f"tampered artifacts rejected {rejected}/100 (need >= 99)")


def _reference_halts(desc: TmDescription, x: str, space: int) -> bool:
    """Independent oracle: exact cycle detection over full configurations."""
    config = initial_configuration(x, space)
    seen = set()
    while not desc.is_halting(config.state):
        key = (config.state, config.head, tuple(config.tape))
        if key in seen:
            return False
        seen.add(key)
        config = tm_run(desc, config, 1).config
    return True


_FILLER = "states 2\nhalt 1\n0 ^ -> 0 ^ R\n0 0 -> 0 1 R\n0 1 -> 1 1 S\n"
_SCANNER = "states 2\nhalt 1\n0 ^ -> 0 ^ R\n0 0 -> 0 0 R\n0 1 -> 1 1 S\n"
_RUNNER = "states 1\nhalt\n0 ^ -> 0 ^ R\n0 0 -> 0 0 R\n0 1 -> 0 1 R\n"
_TOGGLER = (
    "states 2\nhalt\n0 ^ -> 0 ^ R\n0 0 -> 1 1 S\n0 1 -> 1 0 S\n"
    "1 0 -> 0 1 S\n1 1 -> 0 0 S\n"
)
_INSTANT = "states 2\nhalt 1\n0 ^ -> 1 ^ S\n0 0 -> 1 0 S\n0 1 -> 1 1 S\n"


def _random_table_machine(seed: int) -> TmDescription:
    rng = random.Random(f"acc10:{seed}")
    num_states = rng.randrange(2, 4)
    halt = {num_states - 1} if rng.random() < 0.7 else set()
    rules = {
        (q, sym): (rng.randrange(num_states), rng.randrange(2), rng.randrange(-1, 2))
        for q in range(num_states)
        if q not in halt
        for sym in (0, 1, 2)
    }
    return TmDescription.from_table(num_states, rules, halt)


def test_criterion_10_spacehalt_decider(capsys):
    # The bounded decider must agree with exact cycle detection on 20
    # explicit machines, a mix of halting and looping runs.
    cases = [
        (parse_machine(_FILLER), "001", 5),
        (parse_machine(_FILLER), "", 3),
        (parse_machine(_RUNNER), "10", 4),
        (parse_machine(_SCANNER), "0001", 6),
        (parse_machine(_SCANNER), "000", 6),
        (parse_machine(_TOGGLER), "0", 3),
        (parse_machine(_INSTANT), "11", 4),
        (parse_machine(_FILLER), "0000", 6),
    ]
    inputs = ("", "1", "01", "110")
    cases += [
        (_random_table_machine(k), inputs[k % len(inputs)], 4 + k % 2) for k in range(12)
    ]
    assert len(cases) == 20

    agree = halting = 0
    for desc, x, space in cases:
        expected = _reference_halts(desc, x, space)
        halting += expected
        agree += decide_spacehalt(desc, x, space) == expected
    ok = agree == 20 and 0 < halting < 20
    _report(
        capsys,
        10,
        ok,
        f"decider agrees with cycle-detection oracle {agree}/20 "
        f"({halting} halting, {20 - halting} looping)",
    )
