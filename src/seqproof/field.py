"""Prime moduli, univariate polynomials over F_p, interpolation at 0..d.

Residues are plain ints in [0, p).  A univariate polynomial is the tuple of
its coefficients, lowest degree first, in canonical form: each in [0, p), no
trailing zero, so the zero polynomial is the empty tuple.  `canonical` puts
coefficients in that form and `poly_eval` evaluates them.

`check_prime` refuses a modulus that is not a prime at most 2^40; every
prover and the verifier call it.  A soundness run checks thousands of
statements at one prime, so a modulus that has passed the primality test is
kept in an LRU cache of PRIME_CACHE_ENTRIES = 16 entries and not tested
again.  The cap is checked on every call, before the cache, and a refused
modulus is never kept, so it is refused on every call.

Interpolation at the nodes 0..size-1 multiplies the values by the inverse
Vandermonde matrix at those nodes: size^2 products a call.  The matrix is
built in O(size^2) once per (size, p) and kept in an LRU cache of
BASIS_CACHE_ENTRIES = 32 entries.  The honest prover interpolates only its
final block's rounds, at d_j + 1 values each, and a cheating prover that
bends a round interpolates at the round's degree bound plus 1; no call
takes more than 73 values, so the cache holds at most 32 * 73^2 = 170,528
residues.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import mul

# products of two residues must stay exact; cap keeps everything desk-scale
MAX_PRIME = 1 << 40
MAX_PRIME_TEXT = f"2^{MAX_PRIME.bit_length() - 1}"  # the cap as every refusal spells it


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test.

    The first twelve primes as bases decide every n below 3.18 * 10^23
    exactly (Sorenson and Webster, 2015), far past the 2^40 cap.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    if n < 41 * 41:  # a composite this small has a prime factor below 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d * 2^s with d odd; n passes base a when a^d = 1 or
    # a^(d * 2^r) = -1 (mod n) for some r < s, and every prime passes
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def next_prime_at_least(bound: int) -> int:
    """Smallest prime >= bound (bound capped at 2^40)."""
    if bound < 2:
        return 2
    if bound > MAX_PRIME:
        # by bit length: a bound past 4300 digits cannot be formatted
        raise ValueError(f"prime bound of {bound.bit_length()} bits exceeds cap {MAX_PRIME_TEXT}")
    n = bound
    while not is_prime(n):
        n += 1
        if n > MAX_PRIME:
            raise ValueError(f"no prime found below the {MAX_PRIME_TEXT} cap")
    return n


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p, or None if a is not a residue (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # factor p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# moduli kept after passing the primality test: a process checks a handful
PRIME_CACHE_ENTRIES = 16


@lru_cache(maxsize=PRIME_CACHE_ENTRIES)
def _tested_prime(p: int) -> None:
    """Refuse a p (at most the cap) that is not prime; the cache keeps only
    the moduli that pass, since a call that raises is not cached."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def check_prime(p: int) -> None:
    """Refuse a modulus that is not a prime at most 2^40."""
    # the cap first: is_prime is exact only for n < 3.18 * 10^23, and a hostile
    # modulus can have any number of digits
    if p > MAX_PRIME:
        raise ValueError(f"modulus of {p.bit_length()} bits exceeds cap {MAX_PRIME_TEXT}")
    _tested_prime(p)


def canonical(coeffs, p: int) -> tuple[int, ...]:
    """The polynomial with these coefficients over F_p, lowest degree first,
    in canonical form: each reduced into [0, p), no trailing zero."""
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_eval(coeffs, x: int, p: int) -> int:
    """The polynomial with these coefficients at x, mod p (Horner's rule)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# bases kept, one per (size, p): an honest proof interpolates at its final
# block's d_j + 1 sizes, at most n <= 16 of them, and a bent one at 2, 3 and
# 3m + 1 besides, so it never evicts its own; sizes stay at or below 73
# (3m + 1, m <= 24)
BASIS_CACHE_ENTRIES = 32


@lru_cache(maxsize=BASIS_CACHE_ENTRIES)
def _inverse_vandermonde(size: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the inverse of the Vandermonde matrix at the nodes 0..size-1
    mod p: row k holds the t^k coefficients of the Lagrange basis
    polynomials L_0, ..., L_d (d = size - 1), so a value vector's dot product
    with row k is the interpolant's coefficient k.

    L_x is the node polynomial N = prod_y (t - y) divided by (t - x), times
    the inverse of prod_{y != x} (x - y) = x! (d - x)! (-1)^(d - x): one
    O(size) synthetic division per node after O(size^2) for N, and one
    modular inverse in all.
    """
    if size > p:
        raise ValueError(f"{size} nodes collide mod {p}")
    d = size - 1
    node = [1]  # N's coefficients, lowest degree first
    for y in range(size):
        # node := node * (t - y)
        node = [(lo - y * hi) % p for lo, hi in zip([0] + node, node + [0])]
    inv_fact = [1] * size
    if size:
        inv_fact[d] = pow(factorial(d), -1, p)
    for k in range(d, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    columns = []
    for x in range(size):
        scale = inv_fact[x] * inv_fact[d - x] * (-1) ** (d - x)
        quotient, carry = [0] * size, 0
        for k in range(d, -1, -1):  # N = (t - x) * quotient, top coefficient down
            carry = (node[k + 1] + x * carry) % p
            quotient[k] = carry * scale % p
        columns.append(quotient)
    return tuple(zip(*columns))


def lagrange_interpolate(values, p: int) -> tuple[int, ...]:
    """Canonical coefficients of the polynomial of degree < len(values)
    taking values[x] at x = 0, 1, 2, ...

    Each coefficient is one dot product of the values with a row of the
    inverse Vandermonde matrix at 0..size-1, so a call costs size^2 products
    and one cache lookup.  The honest prover calls it once per final-block
    round; the cheating provers' bent rounds call it too.  The matrix is
    built, in O(size^2) with one modular inverse, on the first call at its
    (size, p), and again only after the LRU cache of BASIS_CACHE_ENTRIES
    entries has dropped it.  The values need not be reduced.  Past p values
    the nodes collide mod p (ValueError).
    """
    rows = _inverse_vandermonde(len(values), p)
    return canonical([sum(map(mul, row, values)) for row in rows], p)
