"""Seeded formulas for the tests: a stream of distinct small ones, and the
first true one of a shape.  The package never calls it."""

import random

from seqproof.qbf import eval_qbf_bruteforce, random_qbf


def sample_distinct_qbfs(max_vars: int, max_clauses: int, count: int, seed: int = 0):
    """Deterministic stream of structurally distinct formulas within the size box."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        n = rng.randrange(1, max_vars + 1)
        m = rng.randrange(1, max_clauses + 1)
        f = random_qbf(rng, n, m)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def seeded_true_formula(n: int, m: int, seed: int):
    """The first formula of shape (n, m) drawn from random.Random(seed) that brute force says is true."""
    rng = random.Random(seed)
    return next(f for f in iter(lambda: random_qbf(rng, n, m), None) if eval_qbf_bruteforce(f))


def seeded_false_formula(n: int, m: int, seed: int):
    """The first formula of shape (n, m) drawn from random.Random(seed) that brute force says is false."""
    rng = random.Random(seed)
    return next(f for f in iter(lambda: random_qbf(rng, n, m), None) if not eval_qbf_bruteforce(f))
