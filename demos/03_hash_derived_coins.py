#!/usr/bin/env python3
"""
Removing the verifier: hash-derived coins
=========================================

The interactive protocol needs a live verifier to toss coins.  Deriving
each challenge by hashing the conversation so far turns the proof into a
single file anyone can check offline.  The price: the file must bind
every byte, so we also show that any one-byte edit kills it.
"""

import random

from seqproof.noninteractive import (
    DecodeError,
    fs_prove_tqbf,
    transcript_to_bytes,
    verify_transcript_bytes,
)
from seqproof.qbf import parse_qbf

TEXT = """\
p cnf 3 2
e 1 0
a 2 0
e 3 0
1 -2 3 0
-1 2 0
"""


def main():
    formula = parse_qbf(TEXT)
    transcript = fs_prove_tqbf(formula)
    blob = transcript_to_bytes(transcript)
    print(f"self-contained proof: {len(blob)} bytes, {len(transcript.polys)} rounds")
    print(f"first challenges: {list(transcript.challenges[:4])}")

    again = transcript_to_bytes(fs_prove_tqbf(formula))
    print(f"proving twice gives identical bytes: {again == blob}")

    verdict = verify_transcript_bytes(formula, blob)
    print(f"offline verification: accepted = {verdict.accepted}\n")

    rng = random.Random(13)
    print("ten random single-byte corruptions:")
    for _ in range(10):
        pos = rng.randrange(len(blob))
        broken = bytearray(blob)
        broken[pos] ^= 1 << rng.randrange(8)
        try:
            v = verify_transcript_bytes(formula, bytes(broken))
            outcome = "accepted!" if v.accepted else f"rejected ({v.reason})"
        except (DecodeError, ValueError) as exc:
            outcome = f"rejected at decode ({exc})"
        print(f"  byte {pos:4d}: {outcome}")


if __name__ == "__main__":
    main()
