"""Message framing, payload codecs, and the challenge sources."""

import random

import pytest
from hypothesis import given, strategies as st

from seqproof.field import canonical
from seqproof.fiatshamir import (
    MAGIC,
    MAX_CHALLENGE_RANGE,
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    TAG_NAMES,
    TAG_SC_CHALLENGE,
    TAG_SC_CLAIM,
    TAG_SC_POLY,
    TAG_SC_PRIME,
    TQBF_ORACLE,
    VDF_ORACLE,
    DecodeError,
    FiatShamirChallenges,
    InteractiveChallenges,
    RecordedChallenges,
    decode_poly,
    decode_u64,
    encode_message,
    encode_poly,
    encode_u64,
    file_frames,
    replay_challenges,
    ro_challenge,
    transcript_decode,
)


def test_message_wire_format():
    # tag byte, 4-byte big-endian length, payload
    assert encode_message(TAG_SC_CLAIM, b"hi") == b"\x04\x00\x00\x00\x02hi"
    assert encode_message(TAG_SC_CLAIM, encode_u64(7)).hex() == (
        "04000000080000000000000007"
    )


def test_unregistered_tags_rejected():
    with pytest.raises(ValueError, match="unregistered"):
        encode_message(0xEE, b"")
    with pytest.raises(DecodeError, match="unregistered"):
        transcript_decode(b"\xee\x00\x00\x00\x00")


@given(
    st.lists(
        st.tuples(st.sampled_from(sorted(TAG_NAMES)), st.binary(max_size=40)),
        max_size=12,
    )
)
def test_framing_roundtrip(pairs):
    data = b"".join(encode_message(tag, payload) for tag, payload in pairs)
    assert transcript_decode(data) == pairs
    assert file_frames(MAGIC + data) == pairs


def test_frames_are_the_messages_as_pairs():
    pairs = [(TAG_SC_CLAIM, b"one"), (TAG_SC_POLY, b""), (TAG_SC_PRIME, b"3")]
    data = MAGIC + b"".join(encode_message(tag, payload) for tag, payload in pairs)
    assert file_frames(data) == pairs
    assert transcript_decode(data, len(MAGIC)) == pairs
    assert transcript_decode(data, len(data)) == []


def test_decode_rejects_malformed_streams():
    good = encode_message(TAG_SC_POLY, b"1234")
    with pytest.raises(DecodeError, match="magic"):
        file_frames(b"SEQPLOOF" + good)
    with pytest.raises(DecodeError, match="truncated message header"):
        transcript_decode(good + b"\x05\x00")
    with pytest.raises(DecodeError, match="truncated message payload"):
        transcript_decode(good[:-1])
    assert file_frames(MAGIC) == []


def test_u64_codec():
    assert decode_u64(encode_u64(2**64 - 1)) == 2**64 - 1
    with pytest.raises(DecodeError, match="8 bytes"):
        decode_u64(b"\x00" * 7)


def _u64_join(coeffs) -> bytes:
    """The polynomial payload as it was first written: count, then each u64."""
    return len(coeffs).to_bytes(4, "big") + b"".join(c.to_bytes(8, "big") for c in coeffs)


def _u64_reader(data: bytes, p: int) -> tuple[int, ...]:
    """The to_bytes reader decode_poly replaced, refusals in the same order."""
    if len(data) < 4:
        raise DecodeError("truncated polynomial")
    count = int.from_bytes(data[:4], "big")
    if len(data) != 4 + 8 * count:
        raise DecodeError("polynomial length mismatch")
    coeffs = [int.from_bytes(data[4 + 8 * i : 12 + 8 * i], "big") for i in range(count)]
    if any(c >= p for c in coeffs):
        raise DecodeError("coefficient outside the field")
    if coeffs and coeffs[-1] == 0:
        raise DecodeError("non-canonical trailing zero coefficient")
    return canonical(coeffs, p)


def _outcome(decode, data, p):
    try:
        return decode(data, p)
    except DecodeError as exc:
        return f"refused: {exc}"


_U64 = st.integers(0, 2**64 - 1)
_MAX_COEFFS = 3 * 24 + 1  # degree 3m at the most clauses the prime cap allows


@given(coeffs=st.lists(_U64, max_size=_MAX_COEFFS))
def test_poly_codec_writes_the_u64_join(coeffs):
    p = 1 << 64  # every u64 is a residue, so the polynomial keeps its coefficients
    poly = canonical(coeffs, p)
    data = encode_poly(poly)
    assert data == _u64_join(poly)
    assert decode_poly(data, p) == poly


@given(
    coeffs=st.lists(st.one_of(st.integers(0, 300), _U64), max_size=_MAX_COEFFS + 2),
    count=st.one_of(st.none(), st.integers(0, _MAX_COEFFS + 2)),
    cut=st.one_of(st.just(0), st.integers(1, 9)),
    p=st.sampled_from((2, 7, 223, 1 << 40, 1 << 64, 1 << 65)),
)
def test_poly_decoder_reads_and_refuses_as_the_u64_reader(coeffs, count, cut, p):
    count = len(coeffs) if count is None else count  # None: a count that matches
    data = count.to_bytes(4, "big") + b"".join(c.to_bytes(8, "big") for c in coeffs)
    data = data[: max(0, len(data) - cut)]
    assert _outcome(decode_poly, data, p) == _outcome(_u64_reader, data, p)


def test_poly_encoder_refuses_what_the_u64_join_refuses():
    poly = canonical([1, 1 << 64], 1 << 65)
    with pytest.raises(OverflowError) as expected:
        _u64_join(poly)
    with pytest.raises(OverflowError, match=str(expected.value)):
        encode_poly(poly)


def test_poly_codec_is_canonical():
    poly = canonical([3, 0, 5], 7)
    assert decode_poly(encode_poly(poly), 7) == (3, 0, 5)
    assert encode_poly(canonical([], 7)) == b"\x00\x00\x00\x00"
    with pytest.raises(DecodeError, match="trailing zero"):
        decode_poly(b"\x00\x00\x00\x01" + encode_u64(0), 7)
    with pytest.raises(DecodeError, match="outside the field"):
        decode_poly(b"\x00\x00\x00\x01" + encode_u64(9), 7)
    with pytest.raises(DecodeError, match="length mismatch"):
        decode_poly(b"\x00\x00\x00\x02" + encode_u64(1), 7)
    with pytest.raises(DecodeError, match="truncated"):
        decode_poly(b"\x00\x00", 7)


def test_ro_challenge_frozen_values():
    # sha256(domain || transcript) reduced mod the range, derived by hand
    assert ro_challenge(TQBF_ORACLE, b"abc", 97) == 58
    assert ro_challenge(VDF_ORACLE, b"abc", 97) == 54
    claim = encode_message(TAG_SC_CLAIM, encode_u64(7))
    assert ro_challenge(TQBF_ORACLE, claim, 1009) == 837
    assert ro_challenge(VDF_ORACLE, b"xyz", 32, lo=100) == 103


def test_ro_challenge_range_checks():
    assert ro_challenge(TQBF_ORACLE, b"", 1, lo=41) == 41
    with pytest.raises(ValueError, match="out of bounds"):
        ro_challenge(TQBF_ORACLE, b"", 0)
    with pytest.raises(ValueError, match="out of bounds"):
        ro_challenge(TQBF_ORACLE, b"", 1 << 128)


def test_domain_separation():
    sizes = (97, 1009, 2**40)
    assert all(
        ro_challenge(TQBF_ORACLE, b"shared", s) != ro_challenge(VDF_ORACLE, b"shared", s)
        for s in sizes
    )


def test_fiat_shamir_source_is_deterministic_and_order_sensitive():
    def run(order):
        src = FiatShamirChallenges(TQBF_ORACLE)
        for tag, payload in order:
            src.absorb(tag, lambda: payload)
        return src.challenge_interval(0, 1009)

    a = [(TAG_SC_CLAIM, b"one"), (TAG_SC_POLY, b"two")]
    assert run(a) == run(a)
    assert run(a) != run(list(reversed(a)))
    # the tag participates, not just the payload bytes
    assert run([(TAG_SC_CLAIM, b"x")]) != run([(TAG_SC_POLY, b"x")])


def test_fiat_shamir_challenges_chain():
    src = FiatShamirChallenges(TQBF_ORACLE)
    src.absorb(TAG_SC_CLAIM, lambda: b"start")
    first = src.challenge_interval(0, 1009)
    src.absorb(TAG_SC_CHALLENGE, lambda: encode_u64(first))
    second = src.challenge_interval(10, 50)
    assert 10 <= second < 60
    assert ro_challenge(
        TQBF_ORACLE,
        encode_message(TAG_SC_CLAIM, b"start")
        + encode_message(TAG_SC_CHALLENGE, encode_u64(first)),
        50,
        10,
    ) == second


_ABSORB = st.tuples(st.just("absorb"), st.sampled_from(sorted(TAG_NAMES)), st.binary(max_size=300))
_CHALLENGE = st.tuples(st.just("challenge"), st.integers(0, 2**64), st.integers(1, MAX_CHALLENGE_RANGE - 1))
_REFUSED = st.tuples(st.just("refused"), st.integers(0, 2**64), st.sampled_from((0, MAX_CHALLENGE_RANGE)))


@given(st.sampled_from((TQBF_ORACLE, VDF_ORACLE)), st.lists(st.one_of(_ABSORB, _CHALLENGE, _REFUSED), max_size=30))
def test_the_running_hash_draws_what_hashing_from_scratch_draws(spec, steps):
    src = FiatShamirChallenges(spec)
    for kind, a, b in steps:
        if kind == "absorb":
            src.absorb(a, lambda: b)
        elif kind == "challenge":
            assert src.challenge_interval(a, b) == ro_challenge(spec, src.transcript_bytes(), b, a)
        else:
            with pytest.raises(ValueError, match="out of bounds"):
                src.challenge_interval(a, b)
    # a refused size as the last step must not have moved the state either
    assert src.challenge_interval(3, 1009) == ro_challenge(spec, src.transcript_bytes(), 1009, 3)


@given(st.sampled_from((TQBF_ORACLE, VDF_ORACLE)), st.lists(st.one_of(_ABSORB, _CHALLENGE, _REFUSED), max_size=30))
def test_the_read_source_draws_what_the_encoding_source_draws(spec, steps):
    def unread():
        raise AssertionError("the read source called an encoder")

    encoding = FiatShamirChallenges(spec)
    data = b"".join(encode_message(tag, payload) for kind, tag, payload in steps if kind == "absorb")
    read = replay_challenges(MODE_FIAT_SHAMIR, spec, [], data)
    assert isinstance(read, FiatShamirChallenges) and read.mode == MODE_FIAT_SHAMIR
    for kind, a, b in steps:
        if kind == "absorb":
            encoding.absorb(a, lambda: b)
            read.absorb(a, unread)
        elif kind == "challenge":
            assert read.challenge_interval(a, b) == encoding.challenge_interval(a, b)
        else:
            with pytest.raises(ValueError, match="out of bounds"):
                read.challenge_interval(a, b)
    assert read.challenge_interval(3, 1009) == encoding.challenge_interval(3, 1009)


def test_the_read_source_checks_each_frame_it_steps_past():
    data = encode_message(TAG_SC_CLAIM, b"one") + encode_message(TAG_SC_POLY, b"two")
    read = FiatShamirChallenges(TQBF_ORACLE, data)
    with pytest.raises(DecodeError, match="expected sc-poly message, found sc-claim"):
        read.absorb(TAG_SC_POLY, lambda: b"")
    read.absorb(TAG_SC_CLAIM, lambda: b"")
    read.absorb(TAG_SC_POLY, lambda: b"")
    with pytest.raises(DecodeError, match="ends before the sc-challenge message"):
        read.absorb(TAG_SC_CHALLENGE, lambda: b"")
    with pytest.raises(DecodeError, match="found tag 0xee"):
        FiatShamirChallenges(TQBF_ORACLE, b"\xee\x00\x00\x00\x00").absorb(TAG_SC_CLAIM, lambda: b"")
    with pytest.raises(DecodeError, match="truncated message payload"):
        FiatShamirChallenges(TQBF_ORACLE, data[:7]).absorb(TAG_SC_CLAIM, lambda: b"")
    # without bytes read, a hashed source encodes; other modes replay the record
    assert isinstance(replay_challenges(MODE_FIAT_SHAMIR, TQBF_ORACLE, []), FiatShamirChallenges)
    assert isinstance(replay_challenges(MODE_INTERACTIVE, TQBF_ORACLE, [4], data), RecordedChallenges)


def test_interactive_source_ignores_absorbs():
    a = InteractiveChallenges(5)
    b = InteractiveChallenges(random.Random(5))
    a.absorb(TAG_SC_CLAIM, lambda: b"noise")
    draws_a = [a.challenge_interval(0, 101), a.challenge_interval(20, 10)]
    draws_b = [b.challenge_interval(0, 101), b.challenge_interval(20, 10)]
    assert draws_a == draws_b
    assert 20 <= draws_a[1] < 30


def test_recorded_source_replays_then_runs_dry():
    src = RecordedChallenges([4, 9])
    src.absorb(TAG_SC_POLY, lambda: b"ignored")
    assert src.challenge_interval(0, 101) == 4
    assert src.challenge_interval(0, 101) == 9
    with pytest.raises(DecodeError, match="ran out"):
        src.challenge_interval(0, 101)


def test_mode_labels_distinct():
    assert MODE_INTERACTIVE != MODE_FIAT_SHAMIR
