"""Exact arithmetic in prime fields F_p, univariate polynomials, interpolation."""

from __future__ import annotations

from math import isqrt

# products of two residues must stay exact; cap keeps everything desk-scale
MAX_PRIME = 1 << 40


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def next_prime_at_least(bound: int) -> int:
    """Smallest prime >= bound (trial division; bound capped at 2^40)."""
    if bound < 2:
        return 2
    if bound > MAX_PRIME:
        raise ValueError(f"prime bound {bound} exceeds cap 2^40")
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


class PrimeField:
    """Context for F_p; residues are plain ints in [0, p)."""

    def __init__(self, p: int):
        # the cap first: trial division on a hostile 64-bit modulus takes minutes
        if p > MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds cap 2^40")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def element(self, x: int) -> int:
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def rand(self, rng) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


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

    @classmethod
    def zero(cls, p: int) -> UniPoly:
        return cls((), p)

    @classmethod
    def constant(cls, c: int, p: int) -> UniPoly:
        return cls((c,), p)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

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


def lagrange_interpolate(points, p: int) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs."""
    field = PrimeField(p)
    xs = [x % p for x, _ in points]
    ys = [y % p for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x values")
    k = len(xs)
    out = [0] * k
    for i in range(k):
        # basis polynomial prod_{j != i} (x - x_j), built by convolution
        basis = [1]
        denom = 1
        for j in range(k):
            if j == i:
                continue
            basis = [
                (basis[t - 1] if t > 0 else 0) - (basis[t] if t < len(basis) else 0) * xs[j]
                for t in range(len(basis) + 1)
            ]
            basis = [b % p for b in basis]
            denom = denom * (xs[i] - xs[j]) % p
        scale = field.mul(ys[i], field.inv(denom))
        for t, b in enumerate(basis):
            out[t] = (out[t] + scale * b) % p
    return UniPoly(out, p)
