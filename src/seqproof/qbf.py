"""Quantified 3-CNF Boolean formulas: model, QDIMACS subset parser, brute-force truth.

The formula model is prenex 3-CNF with the quantifier at position i binding
variable x_i.  Short clauses are padded to exactly three literals by repeating
the last literal, which leaves satisfaction untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

MAX_BRUTEFORCE_VARS = 24


class Quantifier(Enum):
    FORALL = "a"
    EXISTS = "e"


class QbfParseError(ValueError):
    """Raised on malformed QDIMACS input; message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Qbf:
    """Prenex quantified 3-CNF formula.

    Attributes:
        num_vars: n >= 1; variables are x_1 .. x_n.
        quantifiers: length-n tuple; entry i-1 binds x_i.
        clauses: m >= 1 padded clauses over x_1 .. x_n, each a triple of
            DIMACS literals: v for x_v, -v for not x_v.
    """

    num_vars: int
    quantifiers: tuple[Quantifier, ...]
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if len(self.quantifiers) != self.num_vars:
            raise ValueError("one quantifier per variable required")
        # the chain reads anything but EXISTS as FORALL, and to_qdimacs needs .value
        for q in self.quantifiers:
            if type(q) is not Quantifier:
                raise ValueError(f"quantifier {q!r} is not a Quantifier")
        if not self.clauses:
            raise ValueError("need at least one clause")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError("a clause holds exactly three literals")
            # a bool or float literal would pass the range check alone, but
            # to_qdimacs would print it as text that parse_qbf refuses
            if not all(type(lit) is int and 0 < abs(lit) <= self.num_vars for lit in cl):
                raise ValueError(f"clause {cl} has a literal other than ±v for an int v in 1..{self.num_vars}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_qbf(text: str) -> Qbf:
    """Parse the QDIMACS subset used throughout the package.

    Accepted lines, in order: 'c' comments anywhere, one 'p cnf <n> <m>'
    header, then 'a'/'e' quantifier lines (0-terminated, binding variables in
    increasing order starting at x_1), then m clause lines of one to three
    non-zero literals, each 0-terminated.

    Raises:
        QbfParseError: on any syntax error, a variable out of range, a clause
            longer than three literals, a clause/quantifier count mismatch, or
            a variable left free by the prefix.  Messages name the line.
    """
    n = m = None
    quantifiers: list[Quantifier] = []
    clauses: list[tuple[int, ...]] = []
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue

        if line.startswith("p"):
            if n is not None:
                raise QbfParseError(line_no, "duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise QbfParseError(line_no, f"malformed header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise QbfParseError(line_no, f"non-integer counts in header {line!r}")
            if n < 1 or m < 1:
                raise QbfParseError(line_no, "need at least one variable and one clause")
            continue

        if n is None:
            raise QbfParseError(line_no, "content before 'p cnf' header")

        if line[0] in "ae":
            if clauses:
                raise QbfParseError(line_no, "quantifier line after first clause")
            parts = line.split()
            try:
                nums = [int(t) for t in parts[1:]]
            except ValueError:
                raise QbfParseError(line_no, f"non-integer token on quantifier line {line!r}")
            if len(parts[0]) != 1 or not nums or nums[-1] != 0:
                raise QbfParseError(line_no, "quantifier line must end with 0")
            q = Quantifier.FORALL if parts[0] == "a" else Quantifier.EXISTS
            for v in nums[:-1]:
                if v != len(quantifiers) + 1:
                    raise QbfParseError(
                        line_no,
                        f"quantifier lines must bind x1..x{n} in order, got {v} "
                        f"where x{len(quantifiers) + 1} was expected",
                    )
                if v > n:
                    raise QbfParseError(line_no, f"variable x{v} out of range (n={n})")
                quantifiers.append(q)
            continue

        # anything else must be a clause line
        try:
            nums = [int(t) for t in line.split()]
        except ValueError:
            raise QbfParseError(line_no, f"unrecognized line {line!r}")
        if not nums or nums[-1] != 0:
            raise QbfParseError(line_no, "clause line must end with 0")
        body = nums[:-1]
        if not body:
            raise QbfParseError(line_no, "empty clause")
        if len(body) > 3:
            raise QbfParseError(line_no, f"clause has {len(body)} literals, at most 3 allowed")
        if any(v == 0 for v in body):
            raise QbfParseError(line_no, "literal 0 inside clause body")
        for v in body:
            if abs(v) > n:
                raise QbfParseError(line_no, f"variable x{abs(v)} out of range (n={n})")
        clauses.append(tuple(body + body[-1:] * (3 - len(body))))

    if n is None:
        raise QbfParseError(last_line or 1, "missing 'p cnf' header")
    if len(quantifiers) < n:
        raise QbfParseError(last_line, f"free variable x{len(quantifiers) + 1} (not covered by prefix)")
    if len(clauses) != m:
        raise QbfParseError(last_line, f"header declared {m} clauses, found {len(clauses)}")

    return Qbf(n, tuple(quantifiers), tuple(clauses))


def to_qdimacs(formula: Qbf) -> str:
    """Serialize back to the QDIMACS subset; parse(to_qdimacs(f)) == f."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    run_q = None
    run_vars: list[int] = []
    for i, q in enumerate(formula.quantifiers, start=1):
        if q is not run_q and run_vars:
            lines.append(f"{run_q.value} {' '.join(map(str, run_vars))} 0")
            run_vars = []
        run_q = q
        run_vars.append(i)
    lines.append(f"{run_q.value} {' '.join(map(str, run_vars))} 0")
    for cl in formula.clauses:
        lines.append(f"{' '.join(map(str, cl))} 0")
    return "\n".join(lines) + "\n"


def eval_qbf_bruteforce(formula: Qbf) -> bool:
    """Ground truth by quantifier recursion over all assignments (n <= 24)."""
    n = formula.num_vars
    if n > MAX_BRUTEFORCE_VARS:
        raise ValueError(f"brute force capped at {MAX_BRUTEFORCE_VARS} variables, got {n}")
    quantifiers = formula.quantifiers
    clauses = formula.clauses
    assignment = [0] * n

    def rec(i: int) -> bool:
        if i == n:
            return all(any(assignment[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in clauses)
        exists = quantifiers[i] is Quantifier.EXISTS
        for b in (0, 1):
            assignment[i] = b
            ok = rec(i + 1)
            if exists and ok:
                return True
            if not exists and not ok:
                return False
        return not exists

    return rec(0)


def random_qbf(rng: random.Random, num_vars: int, num_clauses: int) -> Qbf:
    """Uniform-ish random formula: coin-flip quantifiers, 3 uniform literals per clause."""
    quantifiers = tuple(rng.choice((Quantifier.FORALL, Quantifier.EXISTS)) for _ in range(num_vars))

    def literal() -> int:
        v = rng.randrange(1, num_vars + 1)  # the variable, then its sign
        return -v if rng.random() < 0.5 else v

    clauses = tuple((literal(), literal(), literal()) for _ in range(num_clauses))
    return Qbf(num_vars, quantifiers, clauses)
