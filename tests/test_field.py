import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqproof import field
from seqproof.field import (
    PrimeField,
    UniPoly,
    is_prime,
    lagrange_interpolate,
    next_prime_at_least,
    sqrt_mod,
)

F7 = PrimeField(7)
F223 = PrimeField(223)


def test_over_cap_modulus_is_refused_before_trial_division(monkeypatch):
    # a transcript's prime is read from the file; trial division on 2^61 - 1
    # would take minutes before the cap refused it
    tested = []
    monkeypatch.setattr(field, "is_prime", lambda n: tested.append(n) or True)
    with pytest.raises(ValueError, match="exceeds cap"):
        PrimeField((1 << 61) - 1)
    assert tested == []


def test_basic_ops():
    assert F7.add(3, 5) == 1
    assert F7.sub(2, 4) == 5
    assert F7.mul(2, 4) == 1
    assert F7.add(5, 0) == 5
    # 3 * 149 = 447 = 2*223 + 1, so 1/3 = 149 mod 223
    assert F223.div(1, 3) == 149
    assert F223.mul(3, 149) == 1


def test_pow():
    assert F7.pow(2, 4) == 2
    assert F7.pow(5, 0) == 1
    assert F7.pow(0, 0) == 1
    # Fermat
    assert F223.pow(3, 222) == 1
    assert F7.pow(3, -1) == F7.inv(3)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        F7.div(3, 0)


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField((1 << 40) + 27)  # above the cap even if prime


def test_next_prime_at_least():
    assert next_prime_at_least(2) == 2
    assert next_prime_at_least(10) == 11
    assert next_prime_at_least(216) == 223
    assert next_prime_at_least(-5) == 2
    assert next_prime_at_least(223) == 223
    with pytest.raises(ValueError):
        next_prime_at_least((1 << 40) + 1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_unipoly_canonical_zero():
    z = UniPoly.zero(7)
    assert z.coeffs == ()
    assert z.degree == float("-inf")
    assert z.is_zero()
    assert z.degree <= 0  # degree bounds always admit the zero polynomial
    assert UniPoly((0, 0, 0), 7) == z
    assert UniPoly((3, 1, 0, 0), 7).coeffs == (3, 1)


def test_unipoly_evaluate():
    p = UniPoly((5, 2), 11)  # 5 + 2x
    assert p.evaluate(0) == 5
    assert p.evaluate(1) == 7
    assert p.evaluate(3) == 0
    assert UniPoly.constant(4, 7).evaluate(100) == 4
    assert UniPoly.zero(7).evaluate(3) == 0


def test_lagrange_frozen_cases():
    assert lagrange_interpolate([(0, 1), (1, 1), (2, 1)], 11) == UniPoly((1,), 11)
    assert lagrange_interpolate([(0, 5), (1, 7)], 11) == UniPoly((5, 2), 11)
    assert lagrange_interpolate([(0, 0), (1, 1), (2, 4)], 7) == UniPoly((0, 0, 1), 7)


def test_lagrange_duplicate_x_rejected():
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 2), (1, 3)], 11)


@given(st.integers(0, 222), st.integers(0, 222), st.integers(0, 222))
def test_ring_axioms(a, b, c):
    f = F223
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=50)
@given(st.integers(2, 12), st.integers(0, 10**6))
def test_interpolation_inverts_evaluation(k, seed):
    rng = random.Random(seed)
    p = 1009
    xs = rng.sample(range(p), k)
    ys = [rng.randrange(p) for _ in xs]
    poly = lagrange_interpolate(list(zip(xs, ys)), p)
    assert poly.degree < k
    for x, y in zip(xs, ys):
        assert poly.evaluate(x) == y


def test_sqrt_mod():
    rng = random.Random(0)
    for p in (7, 223, 1009, 10007):
        for _ in range(20):
            a = rng.randrange(p)
            r = sqrt_mod(a, p)
            if r is not None:
                assert r * r % p == a
        # every square must be recognized
        for _ in range(20):
            a = rng.randrange(p)
            r = sqrt_mod(a * a % p, p)
            assert r is not None and r * r % p == a * a % p
    assert sqrt_mod(0, 223) == 0
