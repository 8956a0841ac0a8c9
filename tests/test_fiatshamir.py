"""Message framing, payload codecs, and the challenge sources."""

import random

import pytest
from hypothesis import given, strategies as st

from seqproof.field import canonical
from seqproof.fiatshamir import (
    MAGIC,
    MAX_CHALLENGE_RANGE,
    MAX_POLY_COEFFS,
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    TAG_NAMES,
    TAG_SC_CLAIM,
    TAG_SC_POLY,
    TAG_SC_PRIME,
    TQBF_ORACLE,
    VDF_ORACLE,
    DecodeError,
    FiatShamirChallenges,
    InteractiveChallenges,
    RecordedChallenges,
    decode_element,
    decode_poly,
    decode_u64,
    element_width,
    encode_element,
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


# moduli at and around each element-width boundary; the codecs need no primality
_MODULI = st.sampled_from(
    (2, 223, 1 << 8, (1 << 8) + 1, 1 << 16, (1 << 16) + 1, 1 << 32, (1 << 32) + 1, 1 << 64)
)


def _width(p: int) -> int:
    """The narrowest of 1, 2, 4 or 8 bytes that holds p - 1."""
    return next(w for w in (1, 2, 4, 8) if (p - 1).bit_length() <= 8 * w)


def _poly(data, p: int, max_size: int = MAX_POLY_COEFFS) -> tuple[int, ...]:
    return canonical(data.draw(st.lists(st.integers(0, p - 1), max_size=max_size)), p)


def test_element_width_boundaries():
    assert [element_width(p) for p in (2, 256, 257, 1 << 16, (1 << 16) + 1)] == [1, 1, 2, 2, 4]
    assert [element_width(p) for p in (1 << 32, (1 << 32) + 1, 1 << 64)] == [4, 8, 8]
    with pytest.raises(ValueError, match="u64 prime frame"):
        element_width((1 << 64) + 1)


@given(data=st.data(), p=_MODULI)
def test_poly_codec_round_trips_at_the_element_width(data, p):
    width = element_width(p)
    assert width == _width(p)
    poly = _poly(data, p)
    encoded = encode_poly(poly, p)
    # a count byte, then each coefficient big-endian at the element width
    assert len(encoded) == 1 + width * len(poly)
    assert encoded == bytes([len(poly)]) + b"".join(c.to_bytes(width, "big") for c in poly)
    assert decode_poly(encoded, p) == poly
    x = data.draw(st.integers(0, p - 1))
    assert encode_element(x, p) == x.to_bytes(width, "big")
    assert decode_element(encode_element(x, p), p) == x


@given(data=st.data(), p=_MODULI)
def test_poly_decoder_refuses_out_of_field_trailing_zero_and_wrong_length(data, p):
    width = element_width(p)
    poly = _poly(data, p, MAX_POLY_COEFFS - 1)
    encoded = encode_poly(poly, p)
    if p < 1 << 8 * width:  # a width-byte value at or above p exists
        big = data.draw(st.integers(p, (1 << 8 * width) - 1)).to_bytes(width, "big")
        with pytest.raises(DecodeError, match="outside the field"):
            decode_element(big, p)
        if poly:
            i = data.draw(st.integers(0, len(poly) - 1))
            bad = encoded[: 1 + width * i] + big + encoded[1 + width * (i + 1) :]
            with pytest.raises(DecodeError, match="outside the field"):
                decode_poly(bad, p)
    zero = bytes([len(poly) + 1]) + encoded[1:] + bytes(width)
    with pytest.raises(DecodeError, match="trailing zero"):
        decode_poly(zero, p)
    cut = data.draw(st.integers(1, len(encoded)))
    with pytest.raises(DecodeError, match="length mismatch" if cut < len(encoded) else "truncated"):
        decode_poly(encoded[:-cut], p)
    extra = data.draw(st.binary(min_size=1, max_size=2 * width))
    with pytest.raises(DecodeError, match="length mismatch"):
        decode_poly(encoded + extra, p)
    other = data.draw(st.sampled_from([w for w in (0, 1, 2, 4, 8, 9) if w != width]))
    with pytest.raises(DecodeError, match=f"expected a {width}-byte field element"):
        decode_element(bytes(other), p)


_LONG = st.integers(MAX_POLY_COEFFS - 1, MAX_POLY_COEFFS + 2).map(lambda k: [1] * k)


@given(data=st.data(), p=_MODULI)
def test_poly_encoder_refuses_what_the_decoder_refuses(data, p):
    values = st.one_of(st.integers(-2, p + 2), st.integers(-(1 << 70), 1 << 70))
    coeffs = tuple(data.draw(st.one_of(st.lists(values, max_size=6), _LONG)))
    readable = (
        len(coeffs) <= MAX_POLY_COEFFS
        and all(0 <= c < p for c in coeffs)
        and not (coeffs and coeffs[-1] == 0)
    )
    try:
        encoded = encode_poly(coeffs, p)
    except ValueError:
        assert not readable
    else:
        assert readable and decode_poly(encoded, p) == coeffs
    # each refusal on its own: a value outside [0, p) anywhere, a trailing zero
    poly = list(_poly(data, p, 6))
    bad = data.draw(st.sampled_from((-1, p, p + 1, 1 << 64, 1 << 70)))
    at = data.draw(st.integers(0, len(poly)))
    for refused in (poly[:at] + [bad] + poly[at:] + [1], poly + [0]):
        with pytest.raises(ValueError):
            encode_poly(tuple(refused), p)
    with pytest.raises(ValueError):
        encode_element(bad, p)
    x = data.draw(values)
    try:
        encoded = encode_element(x, p)
    except ValueError:
        assert not 0 <= x < p
    else:
        assert decode_element(encoded, p) == x


def test_poly_codec_is_canonical():
    poly = canonical([3, 0, 5], 7)
    assert decode_poly(encode_poly(poly, 7), 7) == (3, 0, 5)
    assert encode_poly(poly, 7) == b"\x03\x03\x00\x05"
    assert encode_poly(canonical([], 7), 7) == b"\x00"
    with pytest.raises(DecodeError, match="trailing zero"):
        decode_poly(b"\x01\x00", 7)
    with pytest.raises(DecodeError, match="outside the field"):
        decode_poly(b"\x01\x09", 7)
    with pytest.raises(DecodeError, match="length mismatch"):
        decode_poly(b"\x02\x01", 7)
    with pytest.raises(DecodeError, match="truncated"):
        decode_poly(b"", 7)


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
    src.absorb(TAG_SC_POLY, lambda: encode_u64(first))
    second = src.challenge_interval(10, 50)
    assert 10 <= second < 60
    assert ro_challenge(
        TQBF_ORACLE,
        encode_message(TAG_SC_CLAIM, b"start")
        + encode_message(TAG_SC_POLY, encode_u64(first)),
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
    read = FiatShamirChallenges(spec, data)
    assert read.mode == MODE_FIAT_SHAMIR
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
    with pytest.raises(DecodeError, match="ends before the sc-prime message"):
        read.absorb(TAG_SC_PRIME, lambda: b"")
    with pytest.raises(DecodeError, match="found tag 0xee"):
        FiatShamirChallenges(TQBF_ORACLE, b"\xee\x00\x00\x00\x00").absorb(TAG_SC_CLAIM, lambda: b"")
    with pytest.raises(DecodeError, match="truncated message payload"):
        FiatShamirChallenges(TQBF_ORACLE, data[:7]).absorb(TAG_SC_CLAIM, lambda: b"")
    # a verifier's hashed source encodes what it absorbs; other modes replay the record
    assert isinstance(replay_challenges(MODE_FIAT_SHAMIR, TQBF_ORACLE, []), FiatShamirChallenges)
    assert isinstance(replay_challenges(MODE_INTERACTIVE, TQBF_ORACLE, [4]), RecordedChallenges)


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


def test_the_retired_challenge_tag_stays_unregistered():
    # 0x06 framed sum-check challenges; a file no longer carries any, and the
    # tag is not reused, so a file in that layout fails at framing
    assert 0x06 not in TAG_NAMES
    with pytest.raises(ValueError, match="unregistered message tag 0x6"):
        encode_message(0x06, b"")
    with pytest.raises(DecodeError, match="unregistered message tag 0x6"):
        transcript_decode(b"\x06\x00\x00\x00\x00")
