import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqproof import field
from seqproof.field import (
    canonical,
    check_prime,
    is_prime,
    lagrange_interpolate,
    next_prime_at_least,
    poly_eval,
    sqrt_mod,
)

def test_over_cap_modulus_is_refused_before_trial_division(monkeypatch):
    # a transcript's prime is read from the file; one past 2^40 is refused
    # before any primality test, whatever its size
    tested = []
    monkeypatch.setattr(field, "is_prime", lambda n: tested.append(n) or True)
    with pytest.raises(ValueError, match="exceeds cap"):
        check_prime((1 << 61) - 1)
    assert tested == []


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        check_prime(6)
    with pytest.raises(ValueError, match="not prime"):
        check_prime(1)
    with pytest.raises(ValueError, match="exceeds cap"):
        check_prime((1 << 40) + 27)  # above the cap even if prime
    check_prime(223)


def test_over_cap_bounds_are_refused_by_bit_length():
    # formatting 3^10000 in the message would itself raise: it has 4772 digits
    with pytest.raises(ValueError, match="prime bound of 15850 bits exceeds cap 2\\^40"):
        next_prime_at_least(3**10000)
    with pytest.raises(ValueError, match="modulus of 15850 bits exceeds cap 2\\^40"):
        check_prime(3**10000)


def test_next_prime_at_least():
    assert next_prime_at_least(2) == 2
    assert next_prime_at_least(10) == 11
    assert next_prime_at_least(216) == 223
    assert next_prime_at_least(-5) == 2
    assert next_prime_at_least(223) == 223
    with pytest.raises(ValueError):
        next_prime_at_least((1 << 40) + 1)


def test_next_prime_at_least_stops_at_the_last_prime_below_the_cap():
    last = (1 << 40) - 87
    assert next_prime_at_least(last) == last
    for bound in (last + 1, 1 << 40):
        with pytest.raises(ValueError, match="no prime found below the 2\\^40 cap"):
            next_prime_at_least(bound)


def test_check_prime_tests_the_cap_itself():
    # 2^40 is within the cap, so it reaches the primality test
    check_prime((1 << 40) - 87)
    with pytest.raises(ValueError, match="not prime"):
        check_prime(1 << 40)
    with pytest.raises(ValueError, match="exceeds cap"):
        check_prime((1 << 40) + 1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def _trial_division_is_prime(n: int) -> bool:
    """Reference primality test: divide by 2 and every odd d <= sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def test_is_prime_matches_trial_division_below_2_16():
    assert [n for n in range(1 << 16) if is_prime(n) != _trial_division_is_prime(n)] == []


def test_is_prime_matches_trial_division_near_the_cap():
    rng = random.Random(2040)
    for n in (rng.randrange(1 << 39, (1 << 40) + 1) for _ in range(300)):
        assert is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    # the least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; and 2..7,
    # then two Carmichael numbers, which pass every Fermat test coprime to them
    for n in (2047, 1373653, 25326001, 3215031751, 561, 41041):
        assert not _trial_division_is_prime(n)
        assert not is_prime(n), n


def test_next_prime_at_least_picks_the_trial_division_prime():
    # a statement's default prime must not move, or its transcript bytes would
    rng = random.Random(2041)
    bounds = [(1 << n) * 3**m for n, m in ((10, 8), (14, 10), (16, 10), (16, 15))]
    bounds += [rng.randrange(1 << 39, 1 << 40) for _ in range(10)]
    for bound in bounds:
        want = bound
        while not _trial_division_is_prime(want):
            want += 1
        assert next_prime_at_least(bound) == want
    assert next_prime_at_least((1 << 16) * 3**15) == 940369969157


def test_canonical_zero():
    z = canonical((), 7)
    assert z == ()
    assert len(z) - 1 <= 0  # degree bounds always admit the zero polynomial
    assert canonical((0, 0, 0), 7) == z
    assert canonical((3, 1, 0, 0), 7) == (3, 1)
    assert canonical((10, -1, 14), 7) == (3, 6)


def test_poly_eval():
    p = (5, 2)  # 5 + 2x over F_11
    assert poly_eval(p, 0, 11) == 5
    assert poly_eval(p, 1, 11) == 7
    assert poly_eval(p, 3, 11) == 0
    assert poly_eval((4,), 100, 7) == 4
    assert poly_eval((), 3, 7) == 0


def test_lagrange_frozen_cases():
    # values at the nodes 0, 1, 2, ...
    assert lagrange_interpolate([1, 1, 1], 11) == (1,)
    assert lagrange_interpolate([5, 7], 11) == (5, 2)
    assert lagrange_interpolate([0, 1, 4], 7) == (0, 0, 1)
    assert lagrange_interpolate([3], 7) == (3,)
    assert lagrange_interpolate([], 7) == ()


def test_lagrange_duplicate_x_rejected():
    # past p values the nodes 0..d repeat mod p
    lagrange_interpolate(list(range(11)), 11)
    with pytest.raises(ValueError, match="^12 nodes collide mod 11$"):
        lagrange_interpolate([2] * 12, 11)


def test_interpolation_builds_each_basis_once():
    basis = field._inverse_vandermonde
    basis.cache_clear()
    for values in ([1, 2, 3, 4], [0, 0, 0, 0], [5, 8, 13, 21]):
        lagrange_interpolate(values, 1009)
    assert lagrange_interpolate([0, 1, 4, 9], 1009) == (0, 0, 1)
    info = basis.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    lagrange_interpolate([0, 1, 4, 9], 1013)  # another prime is another basis
    lagrange_interpolate([0, 1, 4], 1009)  # and so is another size
    assert basis.cache_info().misses == 3


def test_interpolation_cache_stays_at_its_bound():
    basis = field._inverse_vandermonde
    basis.cache_clear()
    assert basis.cache_info().maxsize == field.BASIS_CACHE_ENTRIES
    pairs = [(size, p) for p in (223, 1009) for size in range(1, field.BASIS_CACHE_ENTRIES)]
    assert len(pairs) > field.BASIS_CACHE_ENTRIES
    for size, p in pairs:
        assert lagrange_interpolate(list(range(size)), p) == ((0, 1) if size > 1 else ())
    assert basis.cache_info().currsize == field.BASIS_CACHE_ENTRIES


def test_interpolation_checks_no_modulus(monkeypatch):
    # the modulus is checked once per statement, not on every interpolation
    tested = []
    monkeypatch.setattr(field, "is_prime", lambda n: tested.append(n) or True)
    assert lagrange_interpolate([0, 1, 4, 9], 1009) == (0, 0, 1)
    assert tested == []


@settings(max_examples=50)
# 73 = 3m + 1 at m = 24, the largest final-block size the statement caps allow
@given(st.integers(1, 73), st.integers(0, 10**6), st.sampled_from([223, 1009, (1 << 40) - 87]))
def test_interpolation_inverts_evaluation(k, seed, p):
    rng = random.Random(seed)
    ys = [rng.randrange(p) for _ in range(k)]
    poly = lagrange_interpolate(ys, p)
    assert len(poly) - 1 < k
    for x, y in enumerate(ys):
        assert poly_eval(poly, x, p) == y
    # and the coefficients come back from their own values
    values = [poly_eval(ys, x, p) for x in range(k)]
    assert lagrange_interpolate(values, p) == canonical(ys, p)


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
