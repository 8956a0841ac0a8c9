import dataclasses
import itertools
import math
import random

import pytest

from chain_oracle import eval_chain
from qbf_sampler import sample_distinct_qbfs
from seqproof.field import canonical, lagrange_interpolate, next_prime_at_least, poly_eval
from seqproof.harness import exp_soundness
from seqproof.fiatshamir import (
    FiatShamirChallenges,
    InteractiveChallenges,
    TQBF_ORACLE,
)
from seqproof.noninteractive import fs_prove_tqbf
from seqproof.qbf import Qbf, Quantifier, eval_qbf_bruteforce, parse_qbf, random_qbf
from seqproof import sumcheck as sc
from seqproof.sumcheck import (
    OpKind,
    Operator,
    Transcript,
    Verdict,
    ArithPoly,
    build_operator_chain,
    chain_value,
    cheat_prover,
    compute_round_poly,
    default_prime,
    round_degree_bound,
    sumcheck_prove,
    sumcheck_verify,
    HonestProver,
    _WrongClaimProver,
    _combine,
)

EXISTS_TAUT = parse_qbf("p cnf 1 1\ne 1 0\n1 0\n")
FORALL_TAUT = parse_qbf("p cnf 1 1\na 1 0\n1 0\n")
ALT_TRUE = parse_qbf("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")
# x2 universal: block 1 keeps its Lin round
KEPT_BLOCK = parse_qbf("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n")
THREE_VAR = parse_qbf("p cnf 3 1\ne 1 0\ne 2 0\ne 3 0\n1 2 3 0\n")


def test_arithmetize_single_clause():
    f = ArithPoly(THREE_VAR, 7)
    assert f.evaluate([0, 0, 0]) == 0
    assert f.evaluate([1, 0, 0]) == 1
    assert f.evaluate([0, 1, 0]) == 1
    # extension beyond Booleans: 1 - (1-2)(1-0)(1-0) = 2
    assert f.evaluate([2, 0, 0]) == 2


def test_arithmetize_negation_and_padding():
    # single clause (not x1), padded to triple repetition: 1 - x^3
    f = ArithPoly(parse_qbf("p cnf 1 1\na 1 0\n-1 0\n"), 7)
    assert f.evaluate([0]) == 1
    assert f.evaluate([1]) == 0
    assert f.evaluate([2]) == (1 - 8) % 7


def test_chain_shape_small():
    # a sum over x2 leaves the chain multilinear in x1: block 1 has no Lin round
    assert build_operator_chain(ALT_TRUE) == (
        Operator(OpKind.PROD, 1, 1),
        Operator(OpKind.SUM, 2, 2),
        Operator(OpKind.LIN, 1, 2),
        Operator(OpKind.LIN, 2, 2),
    )
    assert build_operator_chain(KEPT_BLOCK) == (
        Operator(OpKind.SUM, 1, 1),
        Operator(OpKind.LIN, 1, 1),
        Operator(OpKind.PROD, 2, 2),
        Operator(OpKind.LIN, 1, 2),
        Operator(OpKind.LIN, 2, 2),
    )


def test_chain_length_formula():
    # n quantifier and n final-block rounds, and i Lin rounds before each universal x_{i+1}, i < n
    rng = random.Random(0)
    for n in range(1, 11):
        f = random_qbf(rng, n, 2)
        inner = sum(i for i in range(1, n) if f.quantifiers[i] is Quantifier.FORALL)
        assert len(build_operator_chain(f)) == 2 * n + inner


def _full_chain(quantifiers) -> tuple[Operator, ...]:
    """Every block's Lin rounds: the quantifier for x_i, then the
    re-linearization of x_1..x_i, for each i, n(n+3)/2 operators."""
    ops = []
    for i, q in enumerate(quantifiers, start=1):
        ops.append(Operator(OpKind.SUM if q is Quantifier.EXISTS else OpKind.PROD, i, i))
        ops += [Operator(OpKind.LIN, j, i) for j in range(1, i + 1)]
    return tuple(ops)


def test_the_chain_drops_exactly_the_blocks_before_an_existential():
    for n in range(1, 7):
        for prefix in itertools.product(Quantifier, repeat=n):
            dropped = {i for i in range(1, n) if prefix[i] is Quantifier.EXISTS}
            full = _full_chain(prefix)
            expected = tuple(op for op in full if op.kind is not OpKind.LIN or op.block not in dropped)
            assert len(full) - len(expected) == sum(dropped)
            assert build_operator_chain(Qbf(n, prefix, ((1, 1, 1),))) == expected, prefix


def test_a_dropped_block_is_the_identity():
    # before a sum over x_{i+1} the full chain's block i gives what the
    # chain from Q_{i+1} on gives, at any field point
    rng = random.Random(1992)
    checked = 0
    for _ in range(12):
        formula = random_qbf(rng, rng.randint(2, 4), rng.randint(1, 4))
        full = _full_chain(formula.quantifiers)
        p = default_prime(formula)
        f = ArithPoly(formula, p)
        for i in range(1, formula.num_vars):
            if formula.quantifiers[i] is Quantifier.EXISTS:
                block = full.index(Operator(OpKind.LIN, 1, i))
                bindings = [rng.randrange(p) for _ in range(formula.num_vars)]
                assert eval_chain(full, bindings, f, block) == eval_chain(full, bindings, f, block + i)
                checked += 1
    assert checked >= 10


def test_round_degree_bounds():
    # n = 2, m = 2: an inner Lin round comes only before a universal x2
    for formula, bounds in ((ALT_TRUE, [1, 1, 6, 6]), (KEPT_BLOCK, [1, 2, 1, 6, 6])):
        assert [round_degree_bound(op, formula) for op in build_operator_chain(formula)] == bounds


def test_eval_chain_frozen_values():
    assert chain_value(EXISTS_TAUT, 223) == 1
    assert chain_value(FORALL_TAUT, 223) == 0
    # hand-derived: prod over x1 of sum over x2 of the matrix = (0+1)*(1+0)
    assert chain_value(ALT_TRUE, 37) == 1


def test_eval_chain_empty_suffix_is_matrix():
    f = ArithPoly(THREE_VAR, 31)
    ops = build_operator_chain(THREE_VAR)
    bindings = [5, 6, 7]
    assert eval_chain(ops, bindings, f, start=len(ops)) == f.evaluate([5, 6, 7])
    assert bindings == [5, 6, 7]


def test_eval_chain_lin_requires_binding():
    f = ArithPoly(EXISTS_TAUT, 223)
    lin_only = (Operator(OpKind.LIN, 1, 1),)
    with pytest.raises(ValueError):
        eval_chain(lin_only, [None], f)


def test_linearization_fixpoint():
    # a Lin over a Boolean binding is a no-op; over a field binding it equals
    # the two-branch combination
    rng = random.Random(9)
    for _ in range(20):
        formula = random_qbf(rng, rng.randrange(2, 4), rng.randrange(1, 4))
        p = default_prime(formula)
        f = ArithPoly(formula, p)
        ops = build_operator_chain(formula)
        lin_positions = [k for k, op in enumerate(ops) if op.kind is OpKind.LIN]
        k = rng.choice(lin_positions)
        var = ops[k].var - 1
        bindings = [rng.randrange(p) for _ in range(formula.num_vars)]
        for b in (0, 1):
            bindings[var] = b
            assert eval_chain(ops, bindings, f, k) == eval_chain(ops, bindings, f, k + 1)
        r = rng.randrange(2, p)
        bindings[var] = r
        bindings[var] = 0
        g0 = eval_chain(ops, bindings, f, k + 1)
        bindings[var] = 1
        g1 = eval_chain(ops, bindings, f, k + 1)
        bindings[var] = r
        assert eval_chain(ops, bindings, f, k) == (r * g1 + (1 - r) * g0) % p


def test_nonzero_iff_true_small_box():
    for formula in sample_distinct_qbfs(3, 3, 120, seed=21):
        p = default_prime(formula)
        assert (chain_value(formula, p) != 0) == eval_qbf_bruteforce(formula)


def test_prove_frozen_single_var():
    t = sumcheck_prove(EXISTS_TAUT, 223, InteractiveChallenges(5))
    assert t.claimed_value == 1
    assert len(t.polys) == 2
    assert sumcheck_verify(EXISTS_TAUT, 223, t).accepted
    # the last round message is the arithmetized matrix itself: 3x - 3x^2 + x^3
    assert t.polys[1] == canonical((0, 3, -3, 1), 223)


def test_prove_false_formula_claims_zero_and_is_rejected():
    t = sumcheck_prove(FORALL_TAUT, 223, InteractiveChallenges(5))
    assert t.claimed_value == 0
    v = sumcheck_verify(FORALL_TAUT, 223, t)
    assert not v.accepted and v.reason == "zero-claim"


def test_statement_guards():
    with pytest.raises(ValueError):
        sumcheck_prove(EXISTS_TAUT, 5, InteractiveChallenges(0))  # below 2*3
    with pytest.raises(ValueError):
        sumcheck_prove(EXISTS_TAUT, 8, InteractiveChallenges(0))  # not prime
    big = random_qbf(random.Random(0), 17, 1)
    with pytest.raises(ValueError):
        sumcheck_prove(big, next_prime_at_least((1 << 17) * 3), InteractiveChallenges(0))
    assert default_prime(EXISTS_TAUT) == 7


# true, but its integer chain value 9461776 is a multiple of 769, the
# smallest admissible prime
CHAIN_VALUE_769 = parse_qbf(
    "p cnf 8 1\na 1 0\ne 2 3 0\na 4 0\ne 5 0\na 6 7 0\ne 8 0\n-8 -2 3 0\n"
)


def test_default_prime_skips_primes_dividing_the_chain_value():
    assert eval_qbf_bruteforce(CHAIN_VALUE_769)
    assert chain_value(CHAIN_VALUE_769, 769) == 0
    p = default_prime(CHAIN_VALUE_769)
    assert p == 773
    assert sumcheck_verify(CHAIN_VALUE_769, p, sumcheck_prove(CHAIN_VALUE_769, p, InteractiveChallenges(0)))
    # a false formula keeps the smallest admissible prime
    assert default_prime(FORALL_TAUT) == 7


def test_default_prime_refuses_formulas_over_the_cap_before_evaluating_them():
    big = random_qbf(random.Random(0), 17, 1)
    with pytest.raises(ValueError, match="capped at 16 variables"):
        default_prime(big)
    with pytest.raises(ValueError, match="capped at 16 variables"):
        sumcheck_prove(big, None, InteractiveChallenges(0))


def test_completeness_interactive_and_fiat_shamir():
    rng = random.Random(31)
    done = 0
    while done < 20:
        formula = random_qbf(rng, rng.randrange(1, 5), rng.randrange(1, 7))
        if not eval_qbf_bruteforce(formula):
            continue
        p = default_prime(formula)
        ti = sumcheck_prove(formula, p, InteractiveChallenges(rng.randrange(2**32)))
        assert sumcheck_verify(formula, p, ti).accepted
        tf = sumcheck_prove(formula, p, FiatShamirChallenges(TQBF_ORACLE))
        assert tf.mode == "fiat-shamir"
        assert sumcheck_verify(formula, p, tf).accepted
        done += 1


def test_fiat_shamir_transcripts_are_deterministic():
    a = sumcheck_prove(ALT_TRUE, 37, FiatShamirChallenges(TQBF_ORACLE))
    b = sumcheck_prove(ALT_TRUE, 37, FiatShamirChallenges(TQBF_ORACLE))
    assert a == b


def _honest_transcript(seed=3):
    return sumcheck_prove(ALT_TRUE, 37, InteractiveChallenges(seed))


def _replace_round(t: Transcript, k: int, poly: tuple[int, ...]) -> Transcript:
    polys = list(t.polys)
    polys[k] = poly
    return dataclasses.replace(t, polys=tuple(polys))


def test_reject_degree_overflow():
    t = _honest_transcript()
    s = t.polys[0]
    # add x(x-1): same values at 0 and 1, degree now 2 > bound 1
    bumped = canonical(
        [(c + d) % 37 for c, d in zip(list(s) + [0] * 3, [0, -1, 1] + [0] * len(s))],
        37,
    )
    v = sumcheck_verify(ALT_TRUE, 37, _replace_round(t, 0, bumped))
    assert not v.accepted and v.reason == "degree-overflow"


def test_reject_round_check():
    t = _honest_transcript()
    s = t.polys[0]
    shifted = canonical([(s[0] + 1) % 37] + list(s[1:]), 37)
    v = sumcheck_verify(ALT_TRUE, 37, _replace_round(t, 0, shifted))
    assert not v.accepted and v.reason == "round-check"


def test_reject_final_check():
    from seqproof.field import lagrange_interpolate

    # craft a last-round message that still satisfies the Lin check but whose
    # value at the final challenge disagrees with the matrix
    t = _honest_transcript()
    p = 37
    k = len(t.polys) - 1
    s = t.polys[k]
    r_prev = t.challenges[2]  # challenge bound to x2 before the last round
    target = (r_prev * poly_eval(s, 1, p) + (1 - r_prev) * poly_eval(s, 0, p)) % p
    vals = [poly_eval(s, j, p) for j in range(7)]
    vals[2] = (vals[2] + 1) % p  # perturb an unconstrained interpolation point
    if r_prev != 1:
        vals[0] = ((target - r_prev * vals[1]) * pow((1 - r_prev) % p, p - 2, p)) % p
    else:
        vals[1] = target
    poly = lagrange_interpolate(vals, p)
    v = sumcheck_verify(ALT_TRUE, 37, _replace_round(t, k, poly))
    assert not v.accepted and v.reason in ("final-check", "round-check")


def test_reject_statement_mismatch():
    t = _honest_transcript()
    v = sumcheck_verify(EXISTS_TAUT, 223, t)
    assert not v.accepted and v.reason == "statement-mismatch"


def test_reject_malformed_round_count():
    t = _honest_transcript()
    short = dataclasses.replace(t, polys=t.polys[:-1], challenges=t.challenges[:-1])
    v = sumcheck_verify(ALT_TRUE, 37, short)
    assert not v.accepted and v.reason == "malformed-transcript"


# each keeps round 0's values mod p, so its round checks pass
NON_CANONICAL = {
    "trailing-zero": lambda s, p: s + (0,),
    "coefficient-past-p": lambda s, p: (s[0] + p,) + s[1:],
    "negative-coefficient": lambda s, p: (s[0] - p,) + s[1:],
}


@pytest.mark.parametrize("mode", ["interactive", "fiat-shamir"])
@pytest.mark.parametrize("bend", [*NON_CANONICAL, "uneven-lengths"])
def test_reject_round_polys_outside_the_field(mode, bend):
    coins = InteractiveChallenges(3) if mode == "interactive" else FiatShamirChallenges(TQBF_ORACLE)
    t = sumcheck_prove(ALT_TRUE, 37, coins)
    assert t.mode == mode and t.polys[0]
    if bend == "uneven-lengths":
        bad = dataclasses.replace(t, challenges=t.challenges[:-1])
    else:
        bad = _replace_round(t, 0, NON_CANONICAL[bend](t.polys[0], 37))
    assert sumcheck_verify(ALT_TRUE, 37, bad) == Verdict(False, "malformed-transcript")


def test_reject_fs_challenge_tamper():
    t = sumcheck_prove(ALT_TRUE, 37, FiatShamirChallenges(TQBF_ORACLE))
    challenges = list(t.challenges)
    challenges[1] = (challenges[1] + 1) % 37
    bad = dataclasses.replace(t, challenges=tuple(challenges))
    v = sumcheck_verify(ALT_TRUE, 37, bad)
    assert not v.accepted and v.reason in ("challenge-mismatch", "malformed-transcript")


def test_cheat_strategies_stay_within_soundness_bound():
    # quick empirical check; the full 10^4-trial gate lives in the acceptance suite
    formula, p = EXISTS_TAUT, 223
    n, m = 1, 1
    bound = (3 * m * n + n * n) / p
    trials = 3000
    master = random.Random(2026)
    for strategy in ("wrong-claim", "constant-poly", "random-round(0)", "random-round(1)"):
        accepted = 0
        for _ in range(trials):
            coins = InteractiveChallenges(random.Random(master.randrange(2**63)))
            t = cheat_prover(strategy, formula, p, coins, prover_rng=random.Random(master.randrange(2**63)))
            if sumcheck_verify(formula, p, t).accepted:
                accepted += 1
        rate = accepted / trials
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert rate <= bound + 3 * sigma, (strategy, rate, bound + 3 * sigma)


def test_cheat_on_false_formula_claims_nonzero():
    coins = InteractiveChallenges(4)
    t = cheat_prover("wrong-claim", FORALL_TAUT, 223, coins)
    assert t.claimed_value == 1
    assert not sumcheck_verify(FORALL_TAUT, 223, t).accepted
    t2 = cheat_prover("constant-poly", FORALL_TAUT, 223, InteractiveChallenges(4))
    assert t2.claimed_value == 1


def test_cheat_strategy_parsing():
    with pytest.raises(ValueError):
        cheat_prover("mystery", EXISTS_TAUT, 223, InteractiveChallenges(0))
    with pytest.raises(ValueError):
        cheat_prover("random-round(99)", EXISTS_TAUT, 223, InteractiveChallenges(0))
    t = cheat_prover("random-round", EXISTS_TAUT, 223, InteractiveChallenges(0))
    assert len(t.polys) == 2
    # k is bounded by the formula's own chain: 4 rounds for ALT_TRUE, 5 for KEPT_BLOCK
    with pytest.raises(ValueError, match=r"^round 4 outside a chain of 4 rounds$"):
        cheat_prover("random-round(4)", ALT_TRUE, 37, InteractiveChallenges(0))
    assert len(cheat_prover("random-round(4)", KEPT_BLOCK, 37, InteractiveChallenges(0)).polys) == 5


@pytest.mark.parametrize(
    "strategy",
    [
        "random-round(x)",
        "random-round()",
        "random-round(",
        "random-round1",
        "random-round(0_1)",
        "random-round( 1 )",
        "random-round(+1)",
        "random-round(01)",
        "random-round(\u0661)",  # ARABIC-INDIC DIGIT ONE
        " wrong-claim ",
    ],
)
def test_a_bad_round_index_is_refused_by_the_strategy_name(strategy):
    with pytest.raises(ValueError) as exc:
        cheat_prover(strategy, EXISTS_TAUT, 223, InteractiveChallenges(0))
    assert str(exc.value) == f"unknown cheat strategy {strategy!r}"


def test_formulas_with_the_same_quantifiers_share_one_chain():
    chain = sc._operator_chain
    chain.cache_clear()
    assert chain.cache_info().maxsize == sc.CHAIN_CACHE_ENTRIES
    twin = parse_qbf("p cnf 2 1\na 1 0\ne 2 0\n-1 2 2 0\n")  # ALT_TRUE's quantifiers, other clauses
    ops = build_operator_chain(ALT_TRUE)
    assert build_operator_chain(twin) is ops
    # the provers and the verifier read the kept chain
    assert HonestProver(twin, 37).ops is ops
    assert sumcheck_verify(ALT_TRUE, 37, sumcheck_prove(ALT_TRUE, 37, InteractiveChallenges(1))).accepted
    assert chain.cache_info().misses == 1
    assert build_operator_chain(parse_qbf("p cnf 2 2\ne 1 2 0\n1 2 0\n-1 -2 0\n")) != ops
    # n = 7 has 128 prefixes, twice the cache; each kept chain is the one a fresh build gives
    rng = random.Random(7)
    for _ in range(3 * sc.CHAIN_CACHE_ENTRIES):
        formula = random_qbf(rng, 7, 1)
        ops = build_operator_chain(formula)
        assert ops == chain.__wrapped__(formula.quantifiers)
        assert len(ops) == 14 + sum(i for i in range(1, 7) if formula.quantifiers[i] is Quantifier.FORALL)
    assert chain.cache_info().currsize == sc.CHAIN_CACHE_ENTRIES


def test_coordinate_sets_are_built_once_per_shape():
    kept = sc._coordinate_sets
    kept.cache_clear()
    # a soundness run at n = 2 asks for at most n + 1 shapes thousands of times
    exp_soundness(2, 2, 1009, trials=1000, seed=4, control_trials=5)
    info = kept.cache_info()
    assert 0 < info.currsize == info.misses <= 3
    assert info.hits > 10 * info.misses
    # one proof asks for at most n + 1 shapes; a second proof of the shape builds none
    kept.cache_clear()
    formula = random_qbf(random.Random(3), 10, 9)
    sumcheck_prove(formula, None, InteractiveChallenges(1))
    shapes = kept.cache_info().misses
    assert 0 < shapes <= 11
    sumcheck_prove(formula, None, InteractiveChallenges(2))
    assert kept.cache_info().misses == shapes


# every shape _coordinate_sets can be asked for: (n, 8) for the tables, with
# n <= MAX_PROTOCOL_VARS, and (n - j, 8, 16 or 32) for final round j >= 1
COORDINATE_SHAPES = {(bits, 8) for bits in range(17)} | {(bits, w) for bits in range(16) for w in (16, 32)}
# every key _x_row can be asked for: a clause's 1 to 3 x_j literals, ups of
# x_j and downs of not x_j, and d_j <= 3m <= 72
ROW_KEYS = {(ups, downs, d) for ups in range(4) for downs in range(4 - ups) if ups + downs for d in range(73)}


def _most_clauses(n: int) -> int:
    """The largest m that check_statement admits beside n variables."""
    m = 1
    while True:
        try:
            sc.check_statement(n, m + 1)
        except ValueError:
            return m
        m += 1


def test_the_unbounded_caches_are_asked_only_for_their_bounded_keys(monkeypatch):
    assert len(COORDINATE_SHAPES) == 49 and len(ROW_KEYS) == 657
    assert sc.MAX_PROTOCOL_VARS == 16 and _most_clauses(1) == 24
    asked = {"shapes": [], "rows": []}
    coordinate_sets, x_row = sc._coordinate_sets, sc._x_row

    def spied_sets(bits, width):
        asked["shapes"].append((bits, width))
        return coordinate_sets(bits, width)

    def spied_row(ups, downs, d):
        asked["rows"].append((ups, downs, d))
        return x_row(ups, downs, d)

    monkeypatch.setattr(sc, "_coordinate_sets", spied_sets)
    monkeypatch.setattr(sc, "_x_row", spied_row)
    coordinate_sets.cache_clear()
    x_row.cache_clear()
    # n = 1..12 at a few clauses and at the most the prime cap admits, which
    # forces 16- and 32-bit patterns
    rng = random.Random(34)
    formulas = [random_qbf(rng, n, m) for n in range(1, 13) for m in (3, _most_clauses(n))]
    for i, formula in enumerate(formulas):
        sumcheck_prove(formula, None, InteractiveChallenges(i))
    assert set(asked["shapes"]) <= COORDINATE_SHAPES
    assert set(asked["rows"]) <= ROW_KEYS
    assert {w for _bits, w in asked["shapes"]} == {8, 16, 32}
    assert coordinate_sets.cache_info().currsize == len(set(asked["shapes"]))
    assert x_row.cache_info().currsize == len(set(asked["rows"]))
    assert all(coordinate_sets(*shape) == coordinate_sets.__wrapped__(*shape) for shape in set(asked["shapes"]))
    # each cache kept every entry: proving them all again builds nothing
    built = (coordinate_sets.cache_info().misses, x_row.cache_info().misses)
    for i, formula in enumerate(formulas):
        sumcheck_prove(formula, None, InteractiveChallenges(i))
    assert (coordinate_sets.cache_info().misses, x_row.cache_info().misses) == built
    assert len(asked["shapes"]) > built[0] and len(asked["rows"]) > built[1]


def _fields(points: int, bits: int, width: int) -> list[int]:
    """The 2^bits width-bit fields of a point set, field c first."""
    mask = (1 << width) - 1
    return [points >> (c * width) & mask for c in range(1 << bits)]


@pytest.mark.parametrize("width", [8, 16, 32])
def test_coordinate_sets_hold_bit_v_of_each_point(width):
    # field c of set v is bit v of c, and nothing else: no other bit of a
    # field and no bit past the cube's last field
    for bits in range(9):
        sets = sc._coordinate_sets(bits, width)
        assert len(sets) == bits
        for v, points in enumerate(sets):
            assert points >> (width << bits) == 0, (bits, v)
            assert _fields(points, bits, width) == [c >> v & 1 for c in range(1 << bits)], (bits, v)


@pytest.mark.parametrize("width", [8, 16, 32])
def test_falsified_marks_the_points_where_every_literal_is_false(width):
    # a literal (v, negated) is false at c when bit v of c equals negated
    rng = random.Random(2424)
    for bits in range(1, 9):
        sets = sc._coordinate_sets(bits, width)
        triples = [[(rng.randrange(bits), rng.random() < 0.5) for _ in range(3)] for _ in range(12)]
        # a repeated literal, one literal three times, and x beside not x (never false)
        v, w = rng.randrange(bits), rng.randrange(bits)
        triples += [[(v, False), (v, False), (w, True)], [(v, True)] * 3, [(v, False), (v, True), (w, False)]]
        for literals in triples:
            points = sc._falsified(literals, sets, width)
            assert points >> (width << bits) == 0, literals
            expected = [int(all((c >> u & 1) == negated for u, negated in literals)) for c in range(1 << bits)]
            assert _fields(points, bits, width) == expected, (bits, literals)


@pytest.mark.parametrize("kind", list(OpKind))
def test_combine_reads_both_ends_off_the_coefficients(kind):
    # what _combine computed by evaluating s at 0 and at 1
    def by_evaluation(op, s, bindings, p):
        s0, s1 = poly_eval(s, 0, p), poly_eval(s, 1, p)
        if op.kind is OpKind.SUM:
            return (s0 + s1) % p
        if op.kind is OpKind.PROD:
            return s0 * s1 % p
        r = bindings[op.var - 1]
        return (r * s1 + (1 - r) * s0) % p

    rng = random.Random(f"combine:{kind.value}")
    for p, m in ((223, 1), (1009, 2), (next_prime_at_least(1 << 39), 24)):
        for degree in [-1, 0, 1, 2] + [rng.randrange(3 * m + 1) for _ in range(40)] + [3 * m]:
            s = canonical([rng.randrange(p) for _ in range(degree + 1)], p)
            var = rng.randrange(1, 4)
            bindings = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(3)]
            op = Operator(kind, var, 3)
            assert _combine(op, s, bindings, p) == by_evaluation(op, s, bindings, p), (s, bindings)
    zero = canonical((), 223)
    assert zero == () and _combine(Operator(kind, 1, 1), zero, [5], 223) == 0


def test_compute_round_poly_matches_protocol_degrees():
    f = ArithPoly(ALT_TRUE, 37)
    ops = build_operator_chain(ALT_TRUE)
    bindings = [None, None]
    s0 = compute_round_poly(ops, 0, bindings, f, ALT_TRUE)
    assert len(s0) - 1 <= 1
    assert bindings == [None, None]  # restored


def _integer_chain_value(formula) -> int:
    """The chain over the integers: on Boolean points every Lin is the
    identity, so it is the 0/1 matrix summed over each existential and
    multiplied over each universal variable's branches."""

    def value(point):
        i = len(point)
        if i == formula.num_vars:
            return int(all(any(point[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in formula.clauses))
        g0, g1 = value(point + (0,)), value(point + (1,))
        return g0 + g1 if formula.quantifiers[i] is Quantifier.EXISTS else g0 * g1

    return value(())


def test_chain_value_matches_the_exact_integer_chain():
    rng = random.Random(20221)
    proved = 0
    for _ in range(120):
        f = random_qbf(rng, rng.randint(1, 8), rng.randint(1, 4))
        exact = _integer_chain_value(f)
        truth = eval_qbf_bruteforce(f)
        assert (exact > 0) == truth
        p = default_prime(f)
        for _ in range(3):
            assert chain_value(f, p) == exact % p
            p = next_prime_at_least(p + 1)
        if truth:
            t = fs_prove_tqbf(f)
            assert sumcheck_verify(f, t.p, t).accepted
            proved += 1
    assert proved >= 30


def _reference_round_poly(ops, k, bindings, f, formula) -> tuple[int, ...]:
    """The round polynomial interpolated from the recursive chain at 0..d."""
    i = ops[k].var - 1
    point = list(bindings)
    values = []
    for t in range(round_degree_bound(ops[k], formula) + 1):
        point[i] = t
        values.append(eval_chain(ops, point, f, k + 1))
    return lagrange_interpolate(values, f.p)


def test_round_polys_from_tables_match_the_recursive_chain():
    rng = random.Random(5150)
    rounds = 0
    for n in [1, 2, 3, 4, 5, 6, 7] * 2:
        formula = random_qbf(rng, n, rng.randint(1, 8))
        ops = build_operator_chain(formula)
        p = default_prime(formula)
        for _ in range(3):
            for session in (HonestProver(formula, p), _WrongClaimProver(formula, p)):
                coins = InteractiveChallenges(rng.randrange(2**32))
                for k in range(len(ops)):
                    before = list(session.bindings)
                    s = compute_round_poly(ops, k, session.bindings, session.f, formula)
                    assert session.bindings == before
                    assert s == _reference_round_poly(ops, k, before, session.f, formula), (formula, p, k)
                    session.receive_challenge(k, coins.challenge_interval(0, p))
                    rounds += 1
            p = next_prime_at_least(p + 1)
    assert rounds > 1000


NO_OCCURRENCE = parse_qbf("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 3 0\n-1 3 0\n")  # x2 in no clause
TAUTOLOGY = parse_qbf("p cnf 3 2\na 1 0\ne 2 0\ne 3 0\n1 -1 2 0\n-2 3 1 0\n")  # x1 and not x1 in clause 1
PADDED = parse_qbf("p cnf 2 2\na 1 0\ne 2 0\n2 0\n-1 2 0\n")  # clauses (x2, x2, x2), (not x1, x2, x2)
# the final-block clause patterns: x2 repeated beside a later literal, x3 and
# not x3 (never falsified), clauses with no literal after x2, and clauses
# with only later ones
PATTERNS = parse_qbf(
    "p cnf 4 7\na 1 0\ne 2 0\na 3 0\ne 4 0\n"
    "2 2 4 0\n-2 2 3 0\n3 -3 1 0\n1 -2 0\n-3 -4 0\n3 4 0\n-1 -1 -4 0\n"
)
# sixteen clauses that hold x1 and a later literal: the falsified-clause
# patterns of x1's final round need 32-bit fields
WIDE_PATTERNS = parse_qbf(
    "p cnf 3 16\ne 1 0\na 2 0\ne 3 0\n"
    + "".join(f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2) for c in (3, -3, 1, -1))
)


# x2's final round: every clause with a literal after x2 lacks x2, so each
# is a scalar factor, and no clause is a vector over t beside them
SCALARS_ONLY = parse_qbf("p cnf 3 4\ne 1 0\na 2 0\ne 3 0\n1 3 0\n-1 -3 0\n-1 3 0\n2 -1 0\n")
# x2's final round: eight scalar clauses (x1 and two later literals, each
# sign) beside one x2 clause, nine clause bits above the struck bit, so
# 16-bit fields
MANY_SCALARS = parse_qbf(
    "p cnf 4 9\na 1 0\ne 2 0\na 3 0\ne 4 0\n"
    + "".join(f"{a} {b} {c} 0\n" for a in (1, -1) for b in (3, -3) for c in (4, -4))
    + "2 -3 1 0\n"
)
# with Boolean bindings, x1 zeroes one of (x1, x4), (not x1, x4) and makes
# the other's scalar 1 in the rounds of x2 and x3; (x1, not x2) has no later
# literal, so it zeroes every c when x1 = 0 and x2 = 1 in x3's and x4's rounds
BOOLEAN_PREFIX = parse_qbf(
    "p cnf 4 5\ne 1 0\na 2 0\ne 3 0\na 4 0\n1 4 0\n-1 4 0\n1 -2 0\n-2 3 4 0\n3 -4 -1 0\n"
)


@pytest.mark.parametrize(
    "formula, var, degree, coin_bound",
    [
        (NO_OCCURRENCE, 2, 0, None),
        (TAUTOLOGY, 1, 3, None),
        (PADDED, 2, 5, None),
        (PATTERNS, 2, 6, None),
        (WIDE_PATTERNS, 1, 24, None),
        (SCALARS_ONLY, 2, 1, None),
        (MANY_SCALARS, 2, 1, None),
        (BOOLEAN_PREFIX, 3, 2, 2),
    ],
    ids=["no-occurrence", "tautology", "padded", "patterns", "wide-patterns", "scalars-only", "many-scalars",
         "boolean-prefix"],
)
def test_final_block_rounds_at_the_literal_degree(formula, var, degree, coin_bound):
    # the final block interpolates at 0..d_j, d_j counting every literal
    # occurrence of x_j; the reference interpolates the chain at 0..3m.
    # Coins are drawn from [0, p), or from {0, 1} where coin_bound is 2
    n = formula.num_vars
    ops = build_operator_chain(formula)
    p = default_prime(formula)
    assert ArithPoly(formula, p).degree(var) == degree
    rounds = 0
    for seed in range(4):
        session = HonestProver(formula, p)
        coins = InteractiveChallenges(seed)
        for k, op in enumerate(ops):
            if op.kind is OpKind.LIN and op.block == n:
                s = compute_round_poly(ops, k, session.bindings, session.f, formula)
                assert len(s) - 1 <= session.f.degree(op.var)
                assert s == _reference_round_poly(ops, k, session.bindings, session.f, formula), (seed, k)
                rounds += 1
            session.receive_challenge(k, coins.challenge_interval(0, coin_bound or p))
    assert rounds == 4 * n


def test_the_final_block_merges_groups_by_their_x_j_clauses(monkeypatch):
    # MANY_SCALARS at x2's final round, x1 bound off {0, 1}: the eight
    # scalar clauses put each suffix (x3, x4) in a group of its own, and the
    # one x2 clause (x2, not x3, x1) is false at the two with x3 = 1, so the
    # four groups merge into two x2-clause subsets.  Only the merge loop
    # calls add, once per value t = 0..d_2 of each subset's row
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return a + b

    formula = MANY_SCALARS
    ops = build_operator_chain(formula)
    k = ops.index(Operator(OpKind.LIN, 2, formula.num_vars))
    p = default_prime(formula)
    f = ArithPoly(formula, p)
    bindings = [5, 6, 7, 8]
    monkeypatch.setattr(sc, "add", counted)
    s = compute_round_poly(ops, k, bindings, f, formula)
    monkeypatch.undo()
    assert f.degree(2) == 1
    assert calls == 2 * (1 + 1)
    assert s == _reference_round_poly(ops, k, bindings, f, formula)


def _true_formula(n, m, seed):
    rng = random.Random(seed)
    formula = random_qbf(rng, n, m)
    while not eval_qbf_bruteforce(formula):
        formula = random_qbf(rng, n, m)
    return formula


def _padded_random_qbf(rng, n, m):
    """A seeded formula whose clauses have 1 to 3 literals; the parser pads
    short ones by repeating their last literal."""
    lines = [f"p cnf {n} {m}"]
    lines += [f"{rng.choice('ae')} {v} 0" for v in range(1, n + 1)]
    for _ in range(m):
        lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
        lines.append(" ".join(map(str, lits)) + " 0")
    return parse_qbf("\n".join(lines) + "\n")


def test_cube_table_is_f_at_every_boolean_point():
    # T_n, read off clause bitmasks, against one evaluate per point; bit i-1
    # of a table index is x_i
    rng = random.Random(1313)
    for n in range(1, 11):
        for formula in (random_qbf(rng, n, rng.randint(1, 8)), _padded_random_qbf(rng, n, rng.randint(1, 8))):
            f = ArithPoly(formula, 1009)
            table = f.chain_tables()[-1]
            assert len(table) == 1 << n
            for idx, value in enumerate(table):
                assert value == f.evaluate([(idx >> i) & 1 for i in range(n)]), (formula, idx)


def test_prover_evaluates_f_within_the_table_budget(monkeypatch):
    # T_n comes from clause bitmasks and the final block from falsified-clause
    # patterns, so the prover never evaluates f; the verifier's final check does once
    n, m = 10, 8
    formula = _true_formula(n, m, 1010)
    p = next_prime_at_least((1 << n) * 3**m)
    calls = 0
    evaluate = ArithPoly.evaluate

    def counted(self, point):
        nonlocal calls
        calls += 1
        return evaluate(self, point)

    monkeypatch.setattr(ArithPoly, "evaluate", counted)
    t = sumcheck_prove(formula, p, FiatShamirChallenges(TQBF_ORACLE))
    assert calls == 0
    assert t.claimed_value != 0
    assert sumcheck_verify(formula, p, t).accepted
    assert calls == 1


@pytest.mark.parametrize("n, m", [(1, 1), (4, 3), (10, 8)])
def test_an_honest_proof_interpolates_once_per_final_block_round(monkeypatch, n, m):
    # table rounds read their coefficients off the tables; only the n rounds
    # of the final block interpolate, at d_j + 1 values each
    formula = _true_formula(n, m, 1010 + n)
    sizes = []

    def counted(values, p):
        sizes.append(len(values))
        return lagrange_interpolate(values, p)

    monkeypatch.setattr(sc, "lagrange_interpolate", counted)
    t = sumcheck_prove(formula, None, FiatShamirChallenges(TQBF_ORACLE))
    assert sizes == [ArithPoly(formula, t.p).degree(var) + 1 for var in range(1, n + 1)]
    assert sumcheck_verify(formula, t.p, t).accepted


def test_prover_multiplies_clauses_within_budget(monkeypatch):
    # no prover that reads the chain tables multiplies a clause at a point;
    # the verifier multiplies the m clauses once
    n, m = 10, 8
    formula = _true_formula(n, m, 1010)
    p = next_prime_at_least((1 << n) * 3**m)
    clauses = 0
    evaluate = ArithPoly.evaluate

    def counted(self, point):
        nonlocal clauses
        clauses += self.formula.num_clauses
        return evaluate(self, point)

    monkeypatch.setattr(ArithPoly, "evaluate", counted)
    honest = sumcheck_prove(formula, p, FiatShamirChallenges(TQBF_ORACLE))
    for strategy in ("wrong-claim", "random-round(29)"):  # round 29: x6's final-block round
        cheat_prover(strategy, formula, p, InteractiveChallenges(7))
    assert clauses == 0
    assert sumcheck_verify(formula, p, honest).accepted
    assert clauses == m


def test_round_polys_match_for_bindings_that_leave_the_running_fold():
    # the running fold serves a call whose bound prefix extends the last one;
    # any other bindings must fold afresh and give the chain's polynomial.
    # Boolean bindings also make final-block clauses true by their prefix alone
    rng = random.Random(77)
    formula = _true_formula(5, 4, 77)
    ops = build_operator_chain(formula)
    p = default_prime(formula)
    f = ArithPoly(formula, p)
    for k in range(len(ops)):
        runs = [[rng.randrange(p) for _ in range(formula.num_vars)] for _ in range(3)]
        runs.append(runs[0][:1] + runs[1][1:])  # shares only the first binding
        runs.append([rng.randrange(2) for _ in range(formula.num_vars)])
        for bindings in runs + runs[::-1]:
            s = compute_round_poly(ops, k, bindings, f, formula)
            assert s == _reference_round_poly(ops, k, bindings, f, formula), (k, bindings)


def test_coin_sources_never_render_the_conversation(monkeypatch):
    import seqproof.sumcheck as sc

    rendered = []
    to_qdimacs = sc.to_qdimacs

    def counted(formula):
        rendered.append(formula)
        return to_qdimacs(formula)

    monkeypatch.setattr(sc, "to_qdimacs", counted)
    t = sumcheck_prove(ALT_TRUE, 37, InteractiveChallenges(3))
    assert sumcheck_verify(ALT_TRUE, 37, t).accepted
    t = cheat_prover("wrong-claim", ALT_TRUE, 37, InteractiveChallenges(3))
    sumcheck_verify(ALT_TRUE, 37, t)
    assert rendered == []
    assert sumcheck_verify(ALT_TRUE, 37, sumcheck_prove(ALT_TRUE, 37, FiatShamirChallenges(TQBF_ORACLE))).accepted
    assert rendered == [ALT_TRUE, ALT_TRUE]


def test_eq_weights_are_the_product_for_any_order_of_calls():
    # a call whose rs is a suffix of the kept one reads a kept vector; any
    # other (longer, shifted, changed) builds afresh
    rng = random.Random(31)
    p = 1009
    f = ArithPoly(ALT_TRUE, p)
    base = [rng.randrange(p) for _ in range(6)]
    calls = [base, base[2:], base[5:], [], base[1:], base[:4], [rng.randrange(p)] + base[1:], base[3:]]
    for rs in calls + calls[::-1]:
        expect = [math.prod(r if c >> k & 1 else 1 - r for k, r in enumerate(rs)) % p for c in range(1 << len(rs))]
        assert f.eq_weights(rs) == expect, rs


def test_eq_vectors_are_built_once_per_block(monkeypatch):
    import seqproof.sumcheck as sc

    built = []
    eq_suffixes = sc._eq_suffixes

    def counted(rs, p):
        built.append(len(rs))
        return eq_suffixes(rs, p)

    monkeypatch.setattr(sc, "_eq_suffixes", counted)
    formula = _true_formula(8, 6, 808)
    p = default_prime(formula)
    t = sumcheck_prove(formula, p, FiatShamirChallenges(TQBF_ORACLE))
    assert sumcheck_verify(formula, p, t).accepted
    # each of blocks 2..n-1 that is kept, here blocks 3 and 5 before
    # universal x4 and x6, builds eq(r_2..r_i) at its first Lin round;
    # block 1's is empty, and the final block builds at most once
    kept = [i - 1 for i in range(2, formula.num_vars) if formula.quantifiers[i] is Quantifier.FORALL]
    assert kept == [2, 4]
    assert built[: len(kept)] == kept
    assert len(built) <= len(kept) + 1


def test_one_proof_never_evicts_its_own_interpolation_bases():
    import seqproof.field as field
    from seqproof.sumcheck import MAX_PROTOCOL_VARS

    # an honest proof interpolates only its final block, at d_j + 1 values
    # each; a bent round interpolates at 2, 3 or 3m + 1: at most n + 3 per prime
    assert field.BASIS_CACHE_ENTRIES >= MAX_PROTOCOL_VARS + 3
    basis = field._inverse_vandermonde
    formula = _true_formula(8, 6, 808)
    p = default_prime(formula)
    basis.cache_clear()
    first = cheat_prover("wrong-claim", formula, p, InteractiveChallenges(5))
    built = basis.cache_info().misses
    assert built <= formula.num_vars + 3
    assert cheat_prover("wrong-claim", formula, p, InteractiveChallenges(5)) == first
    assert basis.cache_info().misses == built
