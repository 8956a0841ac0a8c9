import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbf_sampler import sample_distinct_qbfs
from seqproof.qbf import (
    Qbf,
    QbfParseError,
    Quantifier,
    eval_qbf_bruteforce,
    parse_qbf,
    random_qbf,
    to_qdimacs,
)

EXISTS_TAUT = "p cnf 1 1\ne 1 0\n1 0\n"
FORALL_TAUT = "p cnf 1 1\na 1 0\n1 0\n"
ALT_TRUE = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n"


def tabulate_eval(formula: Qbf) -> bool:
    # independent oracle: table of CNF truth over all assignments, then fold
    # quantifiers from the innermost variable outwards
    n = formula.num_vars
    table = []
    for bits in itertools.product((0, 1), repeat=n):
        ok = True
        for cl in formula.clauses:
            vals = []
            for lit in cl:
                v = bits[abs(lit) - 1]
                vals.append(1 - v if lit < 0 else v)
            if max(vals) == 0:
                ok = False
                break
        table.append(ok)
    for q in reversed(formula.quantifiers):
        half = len(table) // 2
        pairs = [(table[2 * i], table[2 * i + 1]) for i in range(half)]
        if q is Quantifier.EXISTS:
            table = [a or b for a, b in pairs]
        else:
            table = [a and b for a, b in pairs]
    return table[0]


def test_parse_single_var():
    f = parse_qbf(EXISTS_TAUT)
    assert f.num_vars == 1
    assert f.quantifiers == (Quantifier.EXISTS,)
    # short clause padded by repeating the last literal
    assert f.clauses == ((1, 1, 1),)


def test_parse_alternation_and_comments():
    text = "c a comment\n" + ALT_TRUE + "c trailing comment\n"
    f = parse_qbf(text)
    assert f.quantifiers == (Quantifier.FORALL, Quantifier.EXISTS)
    assert f.num_clauses == 2
    assert f.clauses == ((1, 2, 2), (-1, -2, -2))


def test_parse_grouped_prefix():
    f = parse_qbf("p cnf 3 1\na 1 2 0\ne 3 0\n1 -2 3 0\n")
    assert f.quantifiers == (Quantifier.FORALL, Quantifier.FORALL, Quantifier.EXISTS)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p cnf 2 1\na 1 0\ne 2 0\n1 3 0\n", "out of range"),
        ("p cnf 2 1\na 1 0\n1 2 0\n", "free variable x2"),
        ("p cnf 2 1\ne 2 0\ne 1 0\n1 2 0\n", "in order"),
        ("p cnf 2 1\na 1 0\ne 2 0\n1 2 1 2 0\n", "at most 3"),
        ("p cnf 2 1\na 1 0\ne 2 0\n1 2\n", "end with 0"),
        ("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n", "declared 2 clauses"),
        ("p cnf 2 1\nbogus\n", "unrecognized line"),
        ("e 1 0\n1 0\n", "content before 'p cnf' header"),
        ("p cnf 0 1\n", "at least one variable"),
        ("p cnf 2 1\na 1 0\ne 2 0\n0\n", "empty clause"),
        ("p cnf 1 1\ne 1 0\n1 0\ne 1 0\n", "after first clause"),
        ("p cnf 1 1\np cnf 1 1\ne 1 0\n1 0\n", "duplicate header"),
        ("p cnf 1 1\ne 1 2 0\n1 0\n", "variable x2 out of range (n=1)"),
        ("p cnf 2 1\na 1 2 0\n1 0 2 0\n", "literal 0 inside clause body"),
        ("c no header\n", "missing 'p cnf' header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(QbfParseError) as exc:
        parse_qbf(text)
    assert fragment in str(exc.value)
    assert str(exc.value).startswith("line ")


def test_bruteforce_frozen_cases():
    assert eval_qbf_bruteforce(parse_qbf(EXISTS_TAUT)) is True
    assert eval_qbf_bruteforce(parse_qbf(FORALL_TAUT)) is False
    assert eval_qbf_bruteforce(parse_qbf(ALT_TRUE)) is True


def test_bruteforce_guard():
    n = 25
    f = Qbf(
        n,
        tuple(Quantifier.EXISTS for _ in range(n)),
        ((1, 1, 1),),
    )
    with pytest.raises(ValueError):
        eval_qbf_bruteforce(f)


def test_model_validation():
    with pytest.raises(ValueError):
        Qbf(1, (Quantifier.EXISTS,), ())
    with pytest.raises(ValueError):
        Qbf(1, (Quantifier.EXISTS,), ((2, 2, 2),))
    with pytest.raises(ValueError):
        Qbf(2, (Quantifier.EXISTS,), ((1, 1, 1),))
    # a clause holds three literals, each nonzero and naming x_1 .. x_n
    for clause in ((1, 1), (1, 1, 1, 1), (1, 0, 1), (1, -2, 1)):
        with pytest.raises(ValueError):
            Qbf(1, (Quantifier.EXISTS,), (clause,))


@pytest.mark.parametrize("lit", [True, 1.0])
def test_a_literal_must_be_an_int(lit):
    # both equal 1 and pass the range check, but print as "True" or "1.0",
    # which parse_qbf refuses
    with pytest.raises(ValueError, match="other than ±v for an int v"):
        Qbf(1, (Quantifier.EXISTS,), ((lit, 1, 1),))
    with pytest.raises(ValueError, match="other than ±v for an int v"):
        Qbf(2, (Quantifier.EXISTS, Quantifier.FORALL), ((1, -2, 1), (2, 2, lit)))


@pytest.mark.parametrize("q", ["e", "a", None, True])
def test_a_quantifier_must_be_a_quantifier(q):
    # "e" would validate, read as FORALL in the chain and break to_qdimacs
    with pytest.raises(ValueError, match="not a Quantifier"):
        Qbf(1, (q,), ((1, 1, 1),))
    with pytest.raises(ValueError, match="not a Quantifier"):
        Qbf(2, (Quantifier.EXISTS, q), ((1, -2, 1),))


@settings(max_examples=80)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6))
def test_roundtrip_identity(n, m, seed):
    f = random_qbf(random.Random(seed), n, m)
    assert parse_qbf(to_qdimacs(f)) == f


def test_cross_check_against_independent_evaluator():
    # exhaustive-style sample across the small box, both oracles must agree
    formulas = sample_distinct_qbfs(3, 3, 250, seed=11)
    assert len(formulas) == 250
    for f in formulas:
        assert eval_qbf_bruteforce(f) == tabulate_eval(f)


def test_sample_distinct_is_deterministic_and_distinct():
    a = sample_distinct_qbfs(3, 3, 60, seed=5)
    b = sample_distinct_qbfs(3, 3, 60, seed=5)
    assert a == b
    assert len(set(a)) == 60
