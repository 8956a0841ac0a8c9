"""Hostile bytes: every decoder returns a value or raises DecodeError.

Arbitrary bytes, and golden files with one to three bytes overwritten, go
to each decoder; anything other than a value or DecodeError fails.  Every
transcript or bundle that decodes must then get a verdict, not an
exception, from its verifier, and the transcript file verifier must give a
verdict or DecodeError on the bytes themselves.  A transcript or bundle that
decodes must encode back to the bytes it was read from.
"""

import dataclasses
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parent_layout import today_layout
from seqproof.cli import main
from seqproof.fiatshamir import (
    MAGIC,
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    TAG_MODE,
    TAG_VDF_CHALLENGE,
    TAG_VDF_INPUT,
    TAG_VDF_OUTPUT,
    TAG_VDF_PP,
    TAG_VDF_PROOF,
    DecodeError,
    InteractiveChallenges,
    RecordedChallenges,
    encode_message,
    encode_u64,
)
from seqproof.noninteractive import (
    bundle_from_bytes,
    bundle_to_bytes,
    fs_prove_tqbf,
    fs_vdf_open,
    open_bundle,
    transcript_from_bytes,
    transcript_to_bytes,
    verify_bundle,
    verify_transcript_bytes,
)
from seqproof.field import canonical
from seqproof.qbf import Quantifier, parse_qbf, random_qbf
from seqproof.shvdf import (
    FORMAT_VERSION,
    VdfParams,
    params_from_bytes,
    params_to_bytes,
    proof_from_bytes,
    proof_to_bytes,
    vdf_eval,
    vdf_open,
)
from seqproof.sumcheck import MAX_PROTOCOL_VARS, sumcheck_prove, sumcheck_verify

FORMULA = parse_qbf("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")
GOLDEN = VdfParams(8, 16, 4, 8, b"golden")
WIDE = VdfParams(80, 1 << 8, 8, 80, b"wide")


def _transcript_verdict(transcript, data):
    """The file verifier on a file that decodes, which must be the encoding
    of what it decodes to; sumcheck_verify on the decoded transcript, which
    re-derives every challenge from the hash, must agree."""
    assert transcript_to_bytes(transcript) == data
    verdict = verify_transcript_bytes(transcript.formula, data)
    assert verdict == sumcheck_verify(transcript.formula, transcript.p, transcript)
    return verdict


def _file_verdict(data):
    """The file verifier against the formula the file names."""
    return verify_transcript_bytes(transcript_from_bytes(data).formula, data)


# the second file holds an interactive conversation's messages under an
# interactive mode frame, which no reader accepts: hostile input only
GOLDEN_TRANSCRIPTS = [
    transcript_to_bytes(fs_prove_tqbf(FORMULA)),
    today_layout(
        transcript_to_bytes(
            dataclasses.replace(sumcheck_prove(FORMULA, None, InteractiveChallenges(1)), mode=MODE_FIAT_SHAMIR)
        ),
        MODE_INTERACTIVE,
    ),
]

# (decoder, verifier of what it decodes and the bytes it decoded, or None; golden files)
CASES = {
    "transcript": (transcript_from_bytes, _transcript_verdict, GOLDEN_TRANSCRIPTS),
    "transcript-file": (_file_verdict, lambda verdict, _data: verdict, GOLDEN_TRANSCRIPTS),
    "bundle": (
        bundle_from_bytes,
        # the bundle's own coin as the verifier's, so interactive bundles reach the replay too
        lambda bundle, _data: verify_bundle(bundle, bundle.challenge),
        [
            bundle_to_bytes(fs_vdf_open(GOLDEN, "101")),
            bundle_to_bytes(open_bundle(vdf_eval(GOLDEN, "101"), "101", RecordedChallenges([12]))),
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
        verdict = verify(value, data)
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
    _decode_and_check(name, _mutated(CASES[name][2], pick, edits))


def _mutated(files, pick, edits) -> bytes:
    data = bytearray(files[pick % len(files)])
    for where, byte in edits:
        data[int(where * len(data))] = byte
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(
    pick=st.integers(0, 1),
    edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)), min_size=1, max_size=3),
)
def test_a_mutated_transcript_that_decodes_encodes_back_to_its_bytes(pick, edits):
    data = _mutated(GOLDEN_TRANSCRIPTS, pick, edits)
    try:
        transcript = transcript_from_bytes(data)
    except DecodeError:
        return
    assert transcript_to_bytes(transcript) == data


@settings(max_examples=400, deadline=None)
@given(
    pick=st.integers(0, 2),
    edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)), min_size=1, max_size=3),
)
def test_a_mutated_bundle_that_decodes_encodes_back_to_its_bytes(pick, edits):
    data = _mutated(CASES["bundle"][2], pick, edits)
    try:
        bundle = bundle_from_bytes(data)
    except DecodeError:
        return
    assert bundle_to_bytes(bundle) == data


def _long_replay_bundle() -> bytes:
    """An interactive bundle with lam = 2^20 - 1 and T = 2^20, challenged at
    step 1 from a non-final state: without a cap on lam, its verifier would
    replay 2^20 - 1 steps."""
    lam, steps, state_bits = (1 << 20) - 1, 1 << 20, 24
    fields = (FORMAT_VERSION, lam, steps, 8, state_bits, 4)
    params = b"".join(encode_u64(v) for v in fields) + b"huge"
    count = steps - 1
    proof = (1 << 23).to_bytes(3, "big") + count.to_bytes(4, "big") + bytes((count + 3) // 4)
    frames = (
        (TAG_MODE, b"interactive"),
        (TAG_VDF_PP, params),
        (TAG_VDF_INPUT, b"1011"),
        (TAG_VDF_OUTPUT, encode_u64(5)),
        (TAG_VDF_CHALLENGE, encode_u64(1)),
        (TAG_VDF_PROOF, proof),
    )
    return MAGIC + b"".join(encode_message(tag, payload) for tag, payload in frames)


def test_a_bundle_that_names_a_huge_lam_is_refused_before_any_replay(tmp_path, capsys):
    blob = _long_replay_bundle()
    assert len(blob) > 262_000
    start = time.perf_counter()
    with pytest.raises(DecodeError, match="at most 256"):
        bundle_from_bytes(blob)
    assert time.perf_counter() - start < 0.25
    path = tmp_path / "huge.bin"
    path.write_bytes(blob)
    assert main(["vdf", "verify", "--proof", str(path)]) == 1
    assert capsys.readouterr().err == "error: security parameter must be at most 256\n"


def test_a_bent_round_at_the_variable_cap_is_rejected_in_milliseconds():
    # n = 16 and m = 15, the most clauses the 2^40 prime cap allows there
    formula = random_qbf(random.Random(1), MAX_PROTOCOL_VARS, 15)
    formula = dataclasses.replace(formula, quantifiers=(Quantifier.FORALL, Quantifier.EXISTS) * 8)
    honest = fs_prove_tqbf(formula)
    assert honest.claimed_value != 0
    # adding x(x - 1) keeps the last round's values at 0 and 1, so its round
    # check passes; the file carries no coin, so the one derived from the bent
    # polynomial meets the final check
    k = len(honest.polys) - 1
    s = honest.polys[k]
    bent = canonical([c + d for c, d in zip(list(s) + [0] * 3, [0, -1, 1] + [0] * len(s))], honest.p)
    polys = list(honest.polys)
    polys[k] = bent
    blob = transcript_to_bytes(dataclasses.replace(honest, polys=tuple(polys)))
    start = time.perf_counter()
    verdict = verify_transcript_bytes(formula, blob)
    assert time.perf_counter() - start < 0.5
    assert verdict.reason == "final-check"
