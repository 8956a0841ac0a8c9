"""Interactive proof that a quantified 3-CNF formula is true, over a prime field.

The statement "formula is true" becomes "a chained sum/product/linearization
of the arithmetized matrix evaluates to a nonzero field element".  The chain
interleaves one quantifier operator per variable with re-linearization passes
that keep round polynomials at low degree, so each round message is a short
univariate polynomial and the verifier's work stays polynomial.

Soundness rests on random verifier challenges; completeness is exact.  Three
cheating provers measure the soundness error empirically.  One driver runs
every prover against a challenge source, carrying the running claim that the
verifier checks each round against; the verifier checks finished transcripts.

The honest prover never re-evaluates the chain.  After each block's
linearization pass the chain is the multilinear extension of a Boolean
table, so it keeps the tables T_n (f on the cube) down to T_0 (the chain
value), 2^(n+1) residues, and reads every round polynomial off them.  It
multiplies no clause at a point:
- T_n is one int, the 2^n-point cube minus the points at which some clause
  is false, unpacked once into the 0/1 table the lower tables join.
- One running fold per block binds T_{i+1} a challenge at a time for the
  block's linearization rounds and the next quantifier round: O(2^(i+1))
  table work per block, O(2^n) in all.
- The eq weights of a block's linearization rounds are nested, each vector
  the next with one more coordinate, so the block's first round builds
  them all, shortest first, for the cost of the longest.
- A table round's polynomial has degree 1 or 2, and its coefficients are
  weighted sums over the folded table, sent as they are, not interpolated.
- The final block, where the raw matrix shows through, groups the Boolean
  suffixes c of its round at x_j by which clauses they falsify, found with
  bitmasks over the 2^(n-j) suffixes.  A clause without an x_j literal is
  a scalar, folded into the eq weight of each group that falsifies it; the
  groups that falsify the same x_j clauses are merged, and each adds its
  weight times those clauses' factors at x_j = 0..d_j, d_j, the number of
  literal occurrences of x_j, bounding the round polynomial's degree.  Its
  n rounds are the honest prover's only interpolations.
"""

from __future__ import annotations

import random
import re
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import add, mul, sub

from .field import MAX_PRIME, MAX_PRIME_TEXT, canonical, check_prime, lagrange_interpolate, next_prime_at_least, poly_eval, sqrt_mod
from .fiatshamir import (
    TAG_SC_CLAIM,
    TAG_SC_FORMULA,
    TAG_SC_POLY,
    TAG_SC_PRIME,
    TQBF_ORACLE,
    encode_element,
    encode_poly,
    encode_u64,
    replay_challenges,
)
from .qbf import Qbf, Quantifier, eval_qbf_bruteforce, to_qdimacs

# the prover keeps 2^(n+1) residues and does O(2^n) table work and O(m*2^n)
# bitmask work; an n = 16 proof takes a fraction of a second
MAX_PROTOCOL_VARS = 16


class OpKind(Enum):
    SUM = "sum"
    PROD = "prod"
    LIN = "lin"


@dataclass(frozen=True)
class Operator:
    """One chain entry: quantify or re-linearize variable `var` (1-based).

    `block` is the index of the quantifier whose pass this operator belongs
    to; the pass for the last variable is the final block, where round
    polynomials may reach degree 3m.
    """

    kind: OpKind
    var: int
    block: int


class ArithPoly:
    """Arithmetization of the 3-CNF matrix: product over clauses of
    1 - prod_literals (1 - value(literal)), with value(x)=x, value(not x)=1-x.

    On Boolean points this is exactly the 0/1 truth of the matrix; elsewhere
    it extends it to F_p with degree at most 3 per clause in each variable.
    """

    def __init__(self, formula: Qbf, p: int):
        self.formula = formula
        self.p = p
        self._tables: list[list[int]] | None = None
        self._fold: tuple = (None, (), None)  # table index, bound prefix, folded table
        self._eq: tuple = ((), [[1]])  # bound suffix, eq vectors of its suffixes

    def evaluate(self, point) -> int:
        """Value at a full point; point[i-1] is the value bound to x_i.
        Stops at the first zero factor."""
        p = self.p
        acc = 1
        for cl in self.formula.clauses:
            miss = 1
            for lit in cl:
                v = point[abs(lit) - 1]
                miss = miss * (v if lit < 0 else 1 - v) % p
            acc = acc * (1 - miss) % p
            if not acc:
                return 0
        return acc

    def degree(self, var: int) -> int:
        """Degree bound in x_var: every literal occurrence of x_var, the
        repeats of a padded clause too."""
        return sum(abs(lit) == var for cl in self.formula.clauses for lit in cl)

    def chain_tables(self) -> list[list[int]]:
        """[T_0, ..., T_n], built on first use and kept.

        T_n is f on the 2^n cube, bit i-1 of an index being x_i: one byte per
        point, the cube minus the clauses' `_falsified` sets.  T_{i-1} joins
        the two halves of T_i (x_i = 0, x_i = 1) by sum for an existential x_i,
        by product for a universal one.  T_i[b] is the chain after block i's
        linearization pass at the Boolean point b, and T_0[0] is the chain value.
        """
        if self._tables is None:
            p, n = self.p, self.formula.num_vars
            sets = _coordinate_sets(n, 8)
            falsified = 0
            for cl in self.formula.clauses:
                falsified |= _falsified([(abs(lit) - 1, lit < 0) for lit in cl], sets, 8)
            cube = int.from_bytes(b"\x01" * (1 << n), "little")
            table = list((cube & ~falsified).to_bytes(1 << n, "little"))
            tables = [table]
            for q in reversed(self.formula.quantifiers):
                half = len(table) // 2
                if q is Quantifier.EXISTS:
                    table = [(a + b) % p for a, b in zip(table[:half], table[half:])]
                else:
                    table = [a * b % p for a, b in zip(table[:half], table[half:])]
                tables.append(table)
            tables.reverse()
            self._tables = tables
        return self._tables

    def folded(self, i: int, rs) -> list[int]:
        """T_i's multilinear extension with its lowest coordinates bound to
        rs, lowest first.

        The last fold is kept: when rs extends its prefix, only the new
        coordinates are folded, so the rounds of a block bind T_i one
        challenge at a time; any other rs folds T_i afresh.
        """
        p, rs = self.p, tuple(rs)
        kept_i, kept_rs, table = self._fold
        if kept_i != i or rs[: len(kept_rs)] != kept_rs:
            kept_rs, table = (), self.chain_tables()[i]
        for r in rs[len(kept_rs) :]:  # each binding halves the table
            table = [(a + r * (b - a)) % p for a, b in zip(table[0::2], table[1::2])]
        self._fold = (i, rs, table)
        return table

    def eq_weights(self, rs) -> list[int]:
        """eq(rs; c) for every Boolean c, c_k at bit k of the index.

        The Lin rounds of a block ask for nested rs, each a suffix of the
        one before, so the first builds the vectors of all its suffixes and
        keeps them; a call whose rs is a suffix of the kept one reads its
        vector, any other builds afresh.
        """
        rs = tuple(rs)
        kept_rs, vectors = self._eq
        start = len(kept_rs) - len(rs)
        if start < 0 or kept_rs[start:] != rs:
            kept_rs, vectors, start = rs, _eq_suffixes(rs, self.p), 0
            self._eq = (kept_rs, vectors)
        return vectors[start]


# coordinate sets kept, one per (bits, width): a proof asks for at most n + 1
# shapes, (n, 8) for its tables and (n - j, 8, 16 or 32) for final round j.
# At n = 16 every shape that can be asked for, 49 of them, holds 8.0 MB of
# ints in all, 3.2 MB in (16, 8) and (15, 32) alone, so the cache holds at
# most 8.0 MB there whatever its bound; at n = 10, 0.1 MB.
COORDINATE_CACHE_ENTRIES = 32


@lru_cache(maxsize=COORDINATE_CACHE_ENTRIES)
def _coordinate_sets(bits: int, width: int) -> tuple[int, ...]:
    """For each coordinate v of the cube {0,1}^bits, the points whose bit v
    is 1, as an int with one width-bit field per point: the low bit of
    field c (bit c*width) is bit v of c.  Its little-endian bytes repeat a
    block of 2^v clear then 2^v set fields; shifted down by 2^v fields, the
    same int is the set where bit v is 0.  Built once per shape and kept in
    an LRU cache of COORDINATE_CACHE_ENTRIES entries."""
    clear, one = bytes(width // 8), (1).to_bytes(width // 8, "little")
    return tuple(
        int.from_bytes((clear * (1 << v) + one * (1 << v)) * (1 << (bits - v - 1)), "little") for v in range(bits)
    )


def _falsified(literals, sets, width: int) -> int:
    """The points at which a clause is false, in `sets`' shape: the AND of
    its literals' false-sets.  A literal is a (coordinate, negated) pair,
    false at the points whose bit at coordinate equals negated."""
    points = -1
    for coord, negated in literals:
        points &= sets[coord] if negated else sets[coord] >> (width << coord)
    return points


# chains kept, one per quantifier prefix: a soundness run draws thousands of
# statements over at most 2^n prefixes, and n is 1 or 2 in the acceptance runs
CHAIN_CACHE_ENTRIES = 64


def build_operator_chain(formula: Qbf) -> tuple[Operator, ...]:
    """Quantifier for x_i, then re-linearization of x_1..x_i, for each i.

    The chain has exactly n(n+3)/2 operators for n variables.  It depends on
    the quantifiers alone, so formulas with the same quantifiers share one
    chain, built once and kept in an LRU cache of CHAIN_CACHE_ENTRIES entries.
    """
    return _operator_chain(tuple(formula.quantifiers))


@lru_cache(maxsize=CHAIN_CACHE_ENTRIES)
def _operator_chain(quantifiers: tuple[Quantifier, ...]) -> tuple[Operator, ...]:
    ops = []
    for i, q in enumerate(quantifiers, start=1):
        kind = OpKind.SUM if q is Quantifier.EXISTS else OpKind.PROD
        ops.append(Operator(kind, i, i))
        for j in range(1, i + 1):
            ops.append(Operator(OpKind.LIN, j, i))
    return tuple(ops)


def round_degree_bound(op: Operator, formula: Qbf) -> int:
    """Largest degree the honest round polynomial can reach.

    Quantifier rounds follow a full linearization pass, so degree 1.  A
    linearization inside an inner block sees one later product, so degree 2.
    In the final block the raw matrix shows through: degree up to 3m.
    """
    if op.kind is not OpKind.LIN:
        return 1
    if op.block == formula.num_vars:
        return 3 * formula.num_clauses
    return 2


def chain_value(formula: Qbf, p: int) -> int:
    """Value of the full chain mod p, T_0[0] of the chain tables.

    Over the integers the chain is positive exactly when the formula is
    true, but each universal quantifier squares it, so a true formula's
    value can still be a multiple of p; `default_prime` steps past such p.
    """
    return ArithPoly(formula, p).chain_tables()[0][0]


def _eq_suffixes(rs, p: int) -> list[list[int]]:
    """eq(rs[k:]; .) for k = 0..len(rs), where eq(rs; c) = prod_k (rs[k] if
    c_k else 1 - rs[k]) for every Boolean c, with c_k at bit k of the index.

    Shortest first: eq(rs[k:]) is eq(rs[k+1:]) with rs[k] interleaved at
    bit 0, so all of them cost what the longest alone does.
    """
    vectors = [[1]]
    for r in reversed(rs):
        shorter = vectors[-1]
        ones = [w * r % p for w in shorter]
        weights = [0] * (2 * len(shorter))
        weights[0::2] = [(w - x) % p for w, x in zip(shorter, ones)]  # w * (1 - r)
        weights[1::2] = ones
        vectors.append(weights)
    vectors.reverse()
    return vectors


def compute_round_poly(ops, k: int, bindings, f: ArithPoly, formula: Qbf) -> tuple[int, ...]:
    """Honest message for round k: the suffix after ops[k] as a univariate
    polynomial in ops[k]'s variable.  Table rounds read its coefficients
    off sums over f's chain tables; the final block interpolates its values
    at 0..degree, summed from its clauses.

    ops must be the formula's chain and bindings hold the challenges it has
    drawn so far; they are not modified.  With r the bindings:
    - Q_i: T_i with x_1..x_{i-1} folded to r holds the values v0, v1 at
      x_i = 0, 1, so the polynomial is v0 + (v1 - v0) t.
    - Lin x_j in block i < n: fold x_1..x_{j-1} of T_{i+1} to r, so each
      entry a is linear in x_j, and sum over x_{j+1..i} weighted by
      eq(r_{j+1..i}; .) after joining the x_{i+1} halves a, b by Q_{i+1}.
      A sum gives v0 + (v1 - v0) t; a product (a0 + t da)(b0 + t db) gives
      S00 + (S11 - S00 - c2) t + c2 t^2, with S00 and S11 the weighted
      sums of a0 b0 and a1 b1 and c2 that of da db.
    - Lin x_j in the final block: sum f(r_1..r_{j-1}, t, c) weighted by
      eq(r_{j+1..n}; c) over Boolean c, at t = 0..d_j, where d_j counts the
      literal occurrences of x_j (a degree bound, at most 3m); see
      `_final_round_values`.
    The folds come from f's running fold, which binds T_{i+1} one challenge
    per Lin round of block i and serves block i+1's Q round as well, so
    table work is O(2^(i+1)) per block; the eq weights come from f's kept
    eq vectors, built once per block.  No clause is multiplied at a point:
    T_n is built from clause bitmasks, and the final block groups the
    suffixes c by the clauses they falsify, multiplying the clauses without
    an x_j literal as scalars and the others as vectors over t.
    """
    op = ops[k]
    p = f.p
    i, j = op.block, op.var
    if op.kind is not OpKind.LIN:
        v0, v1 = f.folded(i, bindings[: i - 1])
        return canonical((v0, v1 - v0), p)
    if i == formula.num_vars:
        return lagrange_interpolate(_final_round_values(f, j, bindings), p)  # reduces the sums mod p
    folded = f.folded(i + 1, bindings[: j - 1])
    half = len(folded) // 2  # x_{i+1} = 0 | x_{i+1} = 1
    a0, a1, b0, b1 = folded[0:half:2], folded[1:half:2], folded[half::2], folded[half + 1 :: 2]
    weights = f.eq_weights(bindings[j:i])
    if formula.quantifiers[i] is Quantifier.EXISTS:
        # the sum of the halves is linear in t
        v0 = sum(map(mul, weights, map(add, a0, b0)))
        v1 = sum(map(mul, weights, map(add, a1, b1)))
        return canonical((v0, v1 - v0), p)
    s00 = sum(map(mul, weights, map(mul, a0, b0)))
    s11 = sum(map(mul, weights, map(mul, a1, b1)))
    c2 = sum(map(mul, weights, map(mul, map(sub, a1, a0), map(sub, b1, b0))))
    return canonical((s00, s11 - s00 - c2, c2), p)


# the falsified-clause pattern of a suffix point is one unsigned field of
# 8, 16 or 32 bits, read little-endian on every host; check_statement's
# m <= 24 fits every pattern in 32
_PATTERN_CODES = {8: "B", 16: "H", 32: "I"}

# rows kept, one per (ups, downs, d): ups + downs <= 3 and d <= 72; a proof
# asks for a few per final-block round
ROW_CACHE_ENTRIES = 64


@lru_cache(maxsize=ROW_CACHE_ENTRIES)
def _x_row(ups: int, downs: int, d: int) -> tuple[int, ...]:
    """(1 - t)^ups * t^downs at t = 0..d: a clause's product of x_j misses,
    ups the occurrences of x_j and downs those of not x_j."""
    return tuple((1 - t) ** ups * t**downs for t in range(d + 1))


def _final_round_values(f: ArithPoly, j: int, bindings) -> list[int]:
    """Sum over Boolean c of eq(r_{j+1..n}; c) * f(r_1..r_{j-1}, t, c), at
    t = 0..d_j, unreduced.

    At a Boolean suffix c a clause's factor is 1 if c satisfies one of its
    suffix literals, and otherwise g(t) = 1 - (the product of its prefix
    misses) * (the product of its x_j misses at t).  A clause with no x_j
    literal has the scalar factor s = 1 - (its prefix misses); the others
    have a vector over t.  So:
    - a clause with no suffix literal multiplies every c, by its scalar or
      its vector;
    - a clause with s = 0 strikes the c that falsify its suffix literals,
      and one with s = 1, or with no prefix miss, leaves every c as it is;
    - the other clauses multiply c by their factor where c falsifies them.
    The suffixes are grouped by which of the last kind they falsify (one bit
    each in a per-point field, the struck ones in bit 0).  Each group's eq
    weight takes the product of its scalars, and the groups that falsify the
    same x_j clauses are merged, so the vectors are multiplied once per such
    subset.
    """
    p, n = f.p, f.formula.num_vars
    d = f.degree(j)
    scale, common = 1, [1] * (d + 1)
    struck, mixed, scalars = [], [], []  # mixed: (suffix, vector); scalars: (suffix, s)
    for cl in f.formula.clauses:
        miss, ups, downs, suffix = 1, 0, 0, []  # ups, downs: occurrences of x_j, not x_j
        for lit in cl:
            var = abs(lit)
            if var > j:
                suffix.append((var - j - 1, lit < 0))
            elif var < j:
                v = bindings[var - 1]
                miss = miss * (v if lit < 0 else 1 - v) % p
            elif lit < 0:
                downs += 1
            else:
                ups += 1
        if ups or downs:
            if not miss:
                continue
            g = [(1 - miss * x) % p for x in _x_row(ups, downs, d)]
            if suffix:
                mixed.append((suffix, g))
            else:
                common = [x * y % p for x, y in zip(common, g)]
            continue
        s = (1 - miss) % p
        if not suffix:
            scale = scale * s % p
        elif not s:
            struck.append(suffix)
        elif s != 1:
            scalars.append((suffix, s))
    if not scale:
        return [0] * (d + 1)
    common = [scale * x % p for x in common]
    if not struck and not mixed and not scalars:
        return common  # the eq weights sum to 1 over the suffix cube
    width = next(w for w in _PATTERN_CODES if w > len(mixed) + len(scalars))
    bits = n - j
    sets = _coordinate_sets(bits, width)
    pattern = 0
    for suffix in struck:
        pattern |= _falsified(suffix, sets, width)
    for bit, (suffix, _factor) in enumerate(mixed + scalars, start=1):
        pattern |= _falsified(suffix, sets, width) << bit
    fields = struct.unpack(f"<{1 << bits}{_PATTERN_CODES[width]}", pattern.to_bytes(width // 8 << bits, "little"))
    groups: dict[int, int] = {}
    for key, w in zip(fields, f.eq_weights(bindings[j:])):
        groups[key] = groups.get(key, 0) + w
    shift = len(mixed) + 1  # the scalar clauses' bits lie above the x_j clauses'
    merged: dict[int, int] = {}
    for key, w in groups.items():
        if key & 1:
            continue
        rest = key >> shift
        for _suffix, s in scalars:
            if rest & 1:
                w = w * s % p
            rest >>= 1
        key &= (1 << shift) - 1
        merged[key] = merged.get(key, 0) + w
    values = [0] * (d + 1)
    for key, w in merged.items():
        row = [w % p] * (d + 1)
        for bit, (_suffix, g) in enumerate(mixed, start=1):
            if key >> bit & 1:
                row = [x * y % p for x, y in zip(row, g)]
        values = list(map(add, values, row))
    return [x * y for x, y in zip(common, values)]


# ── transcripts ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Transcript:
    """Round k's polynomial and challenge are polys[k] and challenges[k]."""

    formula: Qbf
    p: int
    claimed_value: int
    polys: tuple[tuple[int, ...], ...]
    challenges: tuple[int, ...]
    mode: str


class Conversation:
    """The sum-check message schedule, the one place it is written down.

    The prime, the formula and the claim open the conversation; then every
    chain operator gets the prover's polynomial and the challenge drawn after
    it.  The challenge source absorbs the prover's messages in this order,
    and a transcript file stores exactly these after its mode message; a
    challenge is drawn, never absorbed.  A message is encoded only if the
    source reads it.
    """

    def __init__(self, challenges, formula: Qbf, p: int, claim: int):
        self.challenges = challenges
        self.p = p
        challenges.absorb(TAG_SC_PRIME, lambda: encode_u64(p))
        challenges.absorb(TAG_SC_FORMULA, lambda: to_qdimacs(formula).encode())
        challenges.absorb(TAG_SC_CLAIM, lambda: encode_element(claim, p))

    def exchange(self, s: tuple[int, ...]) -> int:
        """Send a round polynomial; return the challenge that answers it."""
        self.challenges.absorb(TAG_SC_POLY, lambda: encode_poly(s, self.p))
        return self.challenges.challenge_interval(0, self.p)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def check_statement(n: int, m: int, p: int | None = None) -> int:
    """The one size check of a statement with n variables and m clauses;
    returns 2^n*3^m, the least admissible prime.

    n is capped at MAX_PROTOCOL_VARS and 2^n*3^m at the 2^40 prime cap;
    3^m > 2^m, so an m past the cap's bit length is refused before 3^m is
    formed.  Given p, also refuses a p that is not an admissible prime.
    Every prover and the verifier call it, so the arithmetic after it works
    on plain ints mod p.
    """
    if n < 1 or m < 1:
        raise ValueError("a statement needs at least one variable and one clause")
    if n > MAX_PROTOCOL_VARS:
        raise ValueError(f"protocol capped at {MAX_PROTOCOL_VARS} variables")
    if m > MAX_PRIME.bit_length() or (1 << n) * 3**m > MAX_PRIME:
        raise ValueError(f"2^n*3^m for n = {n}, m = {m} exceeds the {MAX_PRIME_TEXT} prime cap")
    least = (1 << n) * 3**m
    if p is not None:
        check_prime(p)
        if p < least:
            raise ValueError(f"prime {p} below the required 2^n*3^m = {least}")
    return least


def _default_prover(formula: Qbf) -> "HonestProver":
    """Honest prover at the smallest admissible prime, unless the formula is
    true and its chain value vanishes there: then at the next prime at which
    it does not.  The chain is evaluated once per prime tried."""
    prover = HonestProver(formula, next_prime_at_least(check_statement(formula.num_vars, formula.num_clauses)))
    # the truth test is what stops the search on a false formula
    while prover.honest_value == 0 and eval_qbf_bruteforce(formula):
        prover = HonestProver(formula, next_prime_at_least(prover.p + 1))
    return prover


def default_prime(formula: Qbf) -> int:
    """The prime `sumcheck_prove` uses when given none."""
    return _default_prover(formula).p


def _combine(op: Operator, s: tuple[int, ...], bindings, p: int) -> int:
    """What the running claim must equal if s is consistent with the chain.

    s(0) is the constant coefficient and s(1) the sum of the coefficients,
    read off without evaluating; the zero polynomial has neither.
    """
    s0 = s[0] if s else 0
    s1 = sum(s)
    if op.kind is OpKind.SUM:
        return (s0 + s1) % p
    if op.kind is OpKind.PROD:
        return s0 * s1 % p
    r = bindings[op.var - 1]
    return (r * s1 + (1 - r) * s0) % p


# ── prover sessions ────────────────────────────────────────────────────────


class HonestProver:
    """Round-by-round prover; subclasses override messages to cheat.  Each
    round gets the running claim it is checked against; honest play ignores it."""

    def __init__(self, formula: Qbf, p: int):
        check_statement(formula.num_vars, formula.num_clauses, p)
        self.formula = formula
        self.p = p
        self.f = ArithPoly(formula, p)
        self.ops = build_operator_chain(formula)
        self.bindings: list[int | None] = [None] * formula.num_vars
        self.honest_value = self.f.chain_tables()[0][0]

    def claimed_value(self) -> int:
        return self.honest_value

    def round_poly(self, k: int, claim: int) -> tuple[int, ...]:
        return compute_round_poly(self.ops, k, self.bindings, self.f, self.formula)

    def receive_challenge(self, k: int, r: int) -> None:
        self.bindings[self.ops[k].var - 1] = r


class _WrongClaimProver(HonestProver):
    """Announces honest value + 1, then at every round minimally bends the
    honest polynomial so the current check passes, falling back to honest play
    whenever a challenge happens to cancel the accumulated error."""

    def claimed_value(self) -> int:
        return (self.honest_value + 1) % self.p

    def round_poly(self, k: int, claim: int) -> tuple[int, ...]:
        op = self.ops[k]
        s = super().round_poly(k, claim)
        if _combine(op, s, self.bindings, self.p) != claim:
            s = self._bend(op, s, claim)
        return s

    def _bend(self, op: Operator, s: tuple[int, ...], target: int) -> tuple[int, ...]:
        p = self.p
        d = round_degree_bound(op, self.formula)
        v = [poly_eval(s, j, p) for j in range(d + 1)]
        if op.kind is OpKind.SUM:
            v[0] = (target - v[1]) % p
        elif op.kind is OpKind.PROD:
            if v[1] != 0:
                v[0] = target * pow(v[1], -1, p) % p
            elif v[0] != 0:
                v[1] = target * pow(v[0], -1, p) % p
            else:
                v[0], v[1] = 1, target
        else:
            r_i = self.bindings[op.var - 1]
            if r_i != 1:
                v[0] = (target - r_i * v[1]) * pow(1 - r_i, -1, p) % p
            else:
                v[1] = target
        return lagrange_interpolate(v, p)


class _RandomRoundProver(HonestProver):
    """Honest everywhere except round k, where it sends a uniformly random
    polynomial within the degree bound."""

    def __init__(self, formula: Qbf, p: int, k: int, rng: random.Random):
        super().__init__(formula, p)
        self.k_target = k
        self.rng = rng

    def claimed_value(self) -> int:
        return self.honest_value if self.honest_value != 0 else 1

    def round_poly(self, k: int, claim: int) -> tuple[int, ...]:
        if k == self.k_target:
            d = round_degree_bound(self.ops[k], self.formula)
            return canonical([self.rng.randrange(self.p) for _ in range(d + 1)], self.p)
        return super().round_poly(k, claim)


class _ConstantPolyProver(HonestProver):
    """Lazy prover: never evaluates the matrix, just sends the constant that
    splits the running claim (square root for product rounds, where one
    exists)."""

    def claimed_value(self) -> int:
        return self.honest_value if self.honest_value != 0 else 1

    def round_poly(self, k: int, claim: int) -> tuple[int, ...]:
        op = self.ops[k]
        if op.kind is OpKind.SUM:
            c = claim * pow(2, -1, self.p) % self.p  # p >= 6, so 2 is a unit
        elif op.kind is OpKind.PROD:
            root = sqrt_mod(claim, self.p)
            c = claim if root is None else root
        else:
            c = claim
        return canonical((c,), self.p)


# ── protocol drivers ───────────────────────────────────────────────────────


def _drive(session, formula: Qbf, p: int, challenges) -> Transcript:
    """Run the conversation, carrying the running claim as the verifier does."""
    claim = y = session.claimed_value()
    conversation = Conversation(challenges, formula, p, claim)
    polys, rs = [], []
    for k in range(len(session.ops)):
        s = session.round_poly(k, y)
        r = conversation.exchange(s)
        session.receive_challenge(k, r)
        polys.append(s)
        rs.append(r)
        y = poly_eval(s, r, p)
    return Transcript(formula, p, claim, tuple(polys), tuple(rs), challenges.mode)


def sumcheck_prove(formula: Qbf, p: int | None, challenges) -> Transcript:
    """Honest prover, at `default_prime` if p is None, against the given
    challenge source (verifier coins or a hash of the conversation).  A false
    formula's claim is 0, and no verifier accepts its transcript."""
    session = _default_prover(formula) if p is None else HonestProver(formula, p)
    return _drive(session, formula, session.p, challenges)


_RANDOM_ROUND = re.compile(r"random-round(?:\((0|[1-9][0-9]*)\))?")


def check_strategy(strategy: str, num_vars: int) -> int | None:
    """The round a "random-round(k)" strategy cheats at, or None for
    "wrong-claim" and "constant-poly".

    k is a 0-based round index, written in ASCII digits without a leading
    zero; "random-round" alone is round 0.  Any other spelling is refused,
    since the harness seeds its rngs from the text, and so is a k outside
    the chain of n(n+3)/2 rounds on num_vars variables.
    """
    if strategy in ("wrong-claim", "constant-poly"):
        return None
    random_round = _RANDOM_ROUND.fullmatch(strategy)
    if not random_round:
        raise ValueError(f"unknown cheat strategy {strategy!r}")
    k, num_rounds = int(random_round[1] or 0), num_vars * (num_vars + 3) // 2
    if k >= num_rounds:
        raise ValueError(f"round {k} outside the chain of length {num_rounds}")
    return k


def cheat_prover(
    strategy: str,
    formula: Qbf,
    p: int,
    challenges,
    prover_rng: random.Random | int | str | None = None,
) -> Transcript:
    """Run a dishonest prover; strategy is "wrong-claim", "constant-poly", or
    "random-round(k)", as `check_strategy` reads it.

    prover_rng is the random-round prover's rng, or the seed of one (None
    seeds 0); a seed is turned into an rng only by that prover, the only
    one that draws from it.
    """
    k = check_strategy(strategy, formula.num_vars)
    if strategy == "wrong-claim":
        session = _WrongClaimProver(formula, p)
    elif strategy == "constant-poly":
        session = _ConstantPolyProver(formula, p)
    else:
        rng = prover_rng
        if not isinstance(rng, random.Random):
            rng = random.Random(0 if rng is None else rng)
        session = _RandomRoundProver(formula, p, k, rng)
    return _drive(session, formula, p, challenges)


def sumcheck_verify(formula: Qbf, p: int, transcript: Transcript, challenges=None) -> Verdict:
    """Check a completed transcript.

    challenges defaults to the recorded coins (interactive mode) or to
    re-derivation from the conversation hash (Fiat-Shamir mode); either way
    a recorded challenge that differs from the source's rejects.  An
    inadmissible statement rejects.
    """
    try:
        check_statement(formula.num_vars, formula.num_clauses, p)
    except ValueError:
        return Verdict(False, "statement-mismatch")
    t = transcript
    ops = build_operator_chain(formula)
    if t.formula != formula or t.p != p:
        return Verdict(False, "statement-mismatch")
    if not len(t.polys) == len(t.challenges) == len(ops) or not 0 <= t.claimed_value < p:
        return Verdict(False, "malformed-transcript")
    canonical_over_p = all(not s or (min(s) >= 0 and max(s) < p and s[-1]) for s in t.polys)
    if not canonical_over_p or not all(0 <= r < p for r in t.challenges):
        return Verdict(False, "malformed-transcript")
    if challenges is None:
        challenges = replay_challenges(t.mode, TQBF_ORACLE, t.challenges)

    y = t.claimed_value
    conversation = Conversation(challenges, formula, p, y)
    if y == 0:
        return Verdict(False, "zero-claim")

    bindings: list[int | None] = [None] * formula.num_vars
    for op, s, recorded in zip(ops, t.polys, t.challenges):
        if len(s) - 1 > round_degree_bound(op, formula):
            return Verdict(False, "degree-overflow")
        if _combine(op, s, bindings, p) != y:
            return Verdict(False, "round-check")
        r = conversation.exchange(s)
        if recorded != r:
            return Verdict(False, "challenge-mismatch")
        bindings[op.var - 1] = r
        y = poly_eval(s, r, p)

    if ArithPoly(formula, p).evaluate(bindings) != y:
        return Verdict(False, "final-check")
    return Verdict(True)
