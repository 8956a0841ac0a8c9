"""Hostile bytes: every decoder returns a value or raises DecodeError.

Arbitrary bytes, and golden files with one to three bytes overwritten, go
to each decoder; anything other than a value or DecodeError fails.  Every
transcript or bundle that decodes must then get a verdict, not an
exception, from its verifier.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqproof.fiatshamir import MAGIC, DecodeError, InteractiveChallenges, RecordedChallenges
from seqproof.noninteractive import (
    bundle_from_bytes,
    bundle_to_bytes,
    fs_prove_tqbf,
    fs_vdf_open,
    fs_verify_tqbf,
    open_bundle,
    transcript_from_bytes,
    transcript_to_bytes,
    verify_bundle,
)
from seqproof.qbf import parse_qbf
from seqproof.shvdf import (
    VdfParams,
    params_from_bytes,
    params_to_bytes,
    proof_from_bytes,
    proof_to_bytes,
    vdf_open,
    vdf_run,
)
from seqproof.sumcheck import sumcheck_prove

FORMULA = parse_qbf("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")
GOLDEN = VdfParams(8, 16, 4, 8, b"golden")
WIDE = VdfParams(80, 1 << 8, 8, 80, b"wide")


def _transcript_verdict(transcript):
    return fs_verify_tqbf(transcript.formula, transcript)


# (decoder, verifier of what it decodes or None, golden files)
CASES = {
    "transcript": (
        transcript_from_bytes,
        _transcript_verdict,
        [
            transcript_to_bytes(fs_prove_tqbf(FORMULA)),
            transcript_to_bytes(sumcheck_prove(FORMULA, None, InteractiveChallenges(1))),
        ],
    ),
    "bundle": (
        bundle_from_bytes,
        verify_bundle,
        [
            bundle_to_bytes(fs_vdf_open(GOLDEN, "101")),
            bundle_to_bytes(open_bundle(vdf_run(GOLDEN, "101"), "101", RecordedChallenges([12]))),
            bundle_to_bytes(fs_vdf_open(WIDE, "1011")),
        ],
    ),
    "params": (params_from_bytes, None, [params_to_bytes(GOLDEN), params_to_bytes(WIDE)]),
    "proof": (
        lambda data: proof_from_bytes(GOLDEN, data),
        None,
        [proof_to_bytes(GOLDEN, vdf_open(GOLDEN, "101", 9))],
    ),
}


def _decode_and_check(name, data):
    decode, verify, _ = CASES[name]
    try:
        value = decode(data)
    except DecodeError:
        return
    if verify is not None:
        verdict = verify(value)
        assert verdict.accepted in (True, False)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=400), framed=st.booleans())
def test_arbitrary_bytes_decode_or_refuse(name, data, framed):
    _decode_and_check(name, (MAGIC + data) if framed else data)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=200, deadline=None)
@given(
    pick=st.integers(0, 2),
    edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)), min_size=1, max_size=3),
)
def test_mutated_golden_files_decode_or_refuse(name, pick, edits):
    files = CASES[name][2]
    data = bytearray(files[pick % len(files)])
    for where, byte in edits:
        data[int(where * len(data))] = byte
    _decode_and_check(name, bytes(data))
