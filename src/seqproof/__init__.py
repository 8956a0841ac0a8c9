"""seqproof: a protocol laboratory pairing two deliberately lopsided primitives.

One construction is a sound interactive proof for quantified Boolean formulas
whose prover is held to no delay; the other is a delay function whose honest
evaluation is sequential but whose verifier can be fooled in about lambda
steps.  The package provides both, their Fiat-Shamir transforms, working
forgeries, and a harness that measures all of the above with step counters.
"""

__version__ = "0.1.0"
