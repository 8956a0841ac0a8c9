"""Seeded stream of distinct small formulas for the tests; the package never
calls it."""

import random

from seqproof.qbf import random_qbf


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
