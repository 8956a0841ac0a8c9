"""Prime moduli, univariate polynomials over F_p, interpolation at 0..d.

Residues are plain ints in [0, p); the modulus of a statement is checked once,
by `check_prime`.
"""

from __future__ import annotations

from math import factorial

# products of two residues must stay exact; cap keeps everything desk-scale
MAX_PRIME = 1 << 40


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
        raise ValueError(f"prime bound of {bound.bit_length()} bits exceeds cap 2^40")
    n = bound
    while not is_prime(n):
        n += 1
        if n > MAX_PRIME:
            raise ValueError("no prime found below the 2^40 cap")
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


def check_prime(p: int) -> None:
    """Refuse a modulus that is not a prime at most 2^40."""
    # the cap first: is_prime is exact only for n < 3.18 * 10^23, and a hostile
    # modulus can have any number of digits
    if p > MAX_PRIME:
        raise ValueError(f"modulus of {p.bit_length()} bits exceeds cap 2^40")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class UniPoly:
    """Univariate polynomial over F_p, coefficients lowest degree first.

    Canonical form: no trailing zero coefficients; the zero polynomial is the
    empty tuple and its degree is -inf, so degree bounds compare cleanly.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.p = p

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.p))

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"UniPoly(zero, p={self.p})"
        return f"UniPoly({list(self.coeffs)}, p={self.p})"


def lagrange_interpolate(values, p: int) -> UniPoly:
    """Polynomial of degree < len(values) taking values[x] at x = 0, 1, 2, ...

    Newton's forward differences give c_k = (Delta^k values)[0] / k! with
    P = c_0 + x (c_1 + (x - 1) (c_2 + ...)); expanding that nested form
    costs O(d^2).  The nodes collide mod p past p values, and then k! has no
    inverse (ValueError).
    """
    diffs, newton = [v % p for v in values], []
    while diffs:
        newton.append(diffs[0])
        diffs = [(b - a) % p for a, b in zip(diffs, diffs[1:])]
    coeffs: list[int] = []
    for k in reversed(range(len(newton))):
        # coeffs := coeffs * (x - k) + c_k
        coeffs = [(lo - k * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] = (coeffs[0] + newton[k] * pow(factorial(k), -1, p)) % p
    return UniPoly(coeffs, p)
