"""The chosen-coins forger: a false claim that passes whenever its author
picks the verifier's coins; the package never calls it.

The wrong-claim prover announces the honest value + 1 and bends each
round's polynomial through the interpolation points so that the running
check passes.  The bent polynomial still equals the honest one at every
point it did not bend, so a coin chosen at such a point cancels the error:
the next running claim is the honest one, and the prover plays honestly
from there on.  A file that recorded its coins let its author choose them.
"""

from seqproof.field import poly_eval
from seqproof.sumcheck import HonestProver, _drive, _WrongClaimProver, default_prime

from parent_layout import ParentLayoutChallenges


class ChosenCoinsForger(_WrongClaimProver):
    """The wrong-claim prover, keeping each round's honest and sent polynomials."""

    def round_poly(self, k: int, claim: int) -> tuple[int, ...]:
        self.honest = HonestProver.round_poly(self, k, claim)
        self.sent = super().round_poly(k, claim)
        return self.sent


class ChosenCoins:
    """Each round, the least r at which the forger's sent polynomial equals
    the honest one, or lo if they differ everywhere (a product round whose
    honest polynomial is 0 can be bent to a nonzero constant); the error
    then carries to the next round, which bends again."""

    def __init__(self, forger: ChosenCoinsForger):
        self.forger = forger

    def challenge_interval(self, lo: int, size: int) -> int:
        f = self.forger
        agree = (r for r in range(lo, lo + size) if poly_eval(f.sent, r, f.p) == poly_eval(f.honest, r, f.p))
        return next(agree, lo)


def forge(formula):
    """The forger's transcript at the default prime, and its file in the
    parent layout: an interactive mode frame, and its chosen coins in
    challenge frames."""
    p = default_prime(formula)
    forger = ChosenCoinsForger(formula, p)
    source = ParentLayoutChallenges(p, ChosenCoins(forger))
    return _drive(forger, formula, p, source), source.file_bytes()
