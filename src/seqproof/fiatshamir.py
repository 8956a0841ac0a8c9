"""Canonical transcript encoding, hash-derived challenges, pluggable challenge sources.

Every protocol message is a (tag, payload) pair encoded as tag byte, 4-byte
big-endian length, payload.  The encoding is injective, so hashing the
concatenation commits to the whole conversation so far.

Writers encode each frame once with `encode_message`; one framing function,
`transcript_decode`, reads every transcript and bundle file back into
(tag, payload) pairs.

A sum-check field element (the claim, each polynomial coefficient) takes the
narrowest of 1, 2, 4 or 8 big-endian bytes that holds p - 1; a round
polynomial is a 1-byte coefficient count, then its coefficients.  The prime
itself travels as a u64, since it fixes the width.

A challenge source absorbs each message as its tag and a zero-argument
encoder, and calls the encoder only if it needs the bytes: rng coins and
replayed challenges ignore them.  The one hashed source keeps the framed
messages in a byte buffer and hashes each span of it once.  A prover's
source appends each message's frame to an empty buffer; a verifier's source
steps through the buffer of a file already read, checking each frame's tag
and calling no encoder.  The decoders accept only canonical encodings, so
the bytes stepped through are the ones the encoders would append.  A
sum-check challenge is drawn, never absorbed, so no file carries one.  Each
source names the mode of the transcripts it yields; only this module pairs
modes with sources.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections.abc import Callable
from dataclasses import dataclass

MAGIC = b"SEQPROOF"

TAG_MODE = 0x01
TAG_SC_PRIME = 0x02
TAG_SC_FORMULA = 0x03
TAG_SC_CLAIM = 0x04
TAG_SC_POLY = 0x05
# 0x06 carried sum-check challenges; it stays unregistered, so files that hold one fail framing
TAG_VDF_PP = 0x10
TAG_VDF_INPUT = 0x11
TAG_VDF_OUTPUT = 0x12
TAG_VDF_CHALLENGE = 0x13
TAG_VDF_PROOF = 0x14

TAG_NAMES = {
    TAG_MODE: "mode",
    TAG_SC_PRIME: "sc-prime",
    TAG_SC_FORMULA: "sc-formula",
    TAG_SC_CLAIM: "sc-claim",
    TAG_SC_POLY: "sc-poly",
    TAG_VDF_PP: "vdf-pp",
    TAG_VDF_INPUT: "vdf-input",
    TAG_VDF_OUTPUT: "vdf-output",
    TAG_VDF_CHALLENGE: "vdf-challenge",
    TAG_VDF_PROOF: "vdf-proof",
}

# transcript and bundle mode labels; the mode message carries them UTF-8 encoded
MODE_INTERACTIVE = "interactive"
MODE_FIAT_SHAMIR = "fiat-shamir"

# reducing a 256-bit digest mod sizes below this keeps the bias negligible
MAX_CHALLENGE_RANGE = 1 << 128


class DecodeError(ValueError):
    """Malformed transcript bytes."""


def encode_message(tag: int, payload: bytes) -> bytes:
    if tag not in TAG_NAMES:
        raise ValueError(f"unregistered message tag {tag:#x}")
    return bytes([tag]) + len(payload).to_bytes(4, "big") + payload


_HEADER = struct.Struct(">BI")  # tag byte, 4-byte big-endian payload length


def transcript_decode(data: bytes, pos: int = 0) -> list[tuple[int, bytes]]:
    """The (tag, payload) pairs framed in data from pos on; the one framing loop."""
    out = []
    end = len(data)
    while pos < end:
        if pos + 5 > end:
            raise DecodeError("truncated message header")
        tag, length = _HEADER.unpack_from(data, pos)
        if tag not in TAG_NAMES:
            raise DecodeError(f"unregistered message tag {tag:#x}")
        pos += 5
        if pos + length > end:
            raise DecodeError("truncated message payload")
        out.append((tag, data[pos : pos + length]))
        pos += length
    return out


def file_frames(data: bytes) -> list[tuple[int, bytes]]:
    """The (tag, payload) pairs of a file: the magic, then framed messages."""
    if data[: len(MAGIC)] != MAGIC:
        raise DecodeError("bad magic header")
    return transcript_decode(data, len(MAGIC))


# ── payload codecs ─────────────────────────────────────────────────────────


def encode_u64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def decode_u64(data: bytes) -> int:
    if len(data) != 8:
        raise DecodeError(f"expected 8 bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def element_width(p: int) -> int:
    """Bytes per element of F_p: the narrowest of 1, 2, 4 or 8 that holds p - 1.

    A u64 prime frame carries p, so 8 bytes hold every element of a field
    a file can name; a wider modulus is refused.
    """
    if p <= 1 << 16:
        return 1 if p <= 1 << 8 else 2
    if p <= 1 << 32:
        return 4
    if p <= 1 << 64:
        return 8
    raise ValueError(f"modulus {p} does not fit the u64 prime frame")


_ELEMENT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes by element width

# the count byte's limit; a statement's round polynomials have at most 3m + 1 <= 73
MAX_POLY_COEFFS = 255


def encode_element(x: int, p: int) -> bytes:
    """x, which must lie in [0, p), as element_width(p) big-endian bytes."""
    if not 0 <= x < p:
        raise ValueError(f"{x} is not an element of the field of size {p}")
    return x.to_bytes(element_width(p), "big")


def decode_element(data: bytes, p: int) -> int:
    """An element of F_p; refused unless it is element_width(p) bytes below p."""
    width = element_width(p)
    if len(data) != width:
        raise DecodeError(f"expected a {width}-byte field element, got {len(data)} bytes")
    x = int.from_bytes(data, "big")
    if x >= p:
        raise DecodeError("element outside the field")
    return x


def encode_poly(coeffs: tuple[int, ...], p: int) -> bytes:
    """1-byte coefficient count, then each coefficient as an element of F_p;
    refused unless canonical over F_p, as decode_poly refuses it."""
    if coeffs and (coeffs[-1] == 0 or max(coeffs) >= p):
        raise ValueError(f"not a canonical polynomial over the field of size {p}")
    try:
        return struct.pack(f">B{len(coeffs)}{_ELEMENT_CODES[element_width(p)]}", len(coeffs), *coeffs)
    except struct.error:  # a negative coefficient, or a count past its byte
        raise ValueError(f"not a polynomial of at most {MAX_POLY_COEFFS} coefficients in [0, {p})") from None


def decode_poly(data: bytes, p: int) -> tuple[int, ...]:
    """The coefficients as read; refused unless canonical over F_p."""
    if not data:
        raise DecodeError("truncated polynomial")
    width = element_width(p)
    count = data[0]
    if len(data) != 1 + width * count:
        raise DecodeError("polynomial length mismatch")
    coeffs = struct.unpack_from(f">{count}{_ELEMENT_CODES[width]}", data, 1)
    if coeffs and max(coeffs) >= p:
        raise DecodeError("coefficient outside the field")
    if coeffs and coeffs[-1] == 0:
        raise DecodeError("non-canonical trailing zero coefficient")
    return coeffs


# ── random oracle ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class OracleSpec:
    """SHA-256 under a domain separator; distinct protocols never share one."""

    domain_separator: bytes


TQBF_ORACLE = OracleSpec(b"TQBF-SC-v1")
VDF_ORACLE = OracleSpec(b"SHVDF-v1")


def ro_challenge(spec: OracleSpec, transcript: bytes, size: int, lo: int = 0, state=None) -> int:
    """Deterministic challenge in [lo, lo+size) from the transcript so far.

    state, if given, is a running sha256 of spec's separator and every byte
    before `transcript`; it absorbs `transcript` and keeps absorbing after.
    A refused size leaves it untouched.
    """
    if not 1 <= size < MAX_CHALLENGE_RANGE:
        raise ValueError(f"challenge range size {size} out of bounds")
    h = hashlib.sha256(spec.domain_separator) if state is None else state
    h.update(transcript)
    return lo + int.from_bytes(h.digest(), "big") % size


# ── challenge sources fed to the protocol drivers ──────────────────────────


class InteractiveChallenges:
    """Fresh verifier coins from a seeded rng; ignores the conversation."""

    mode = MODE_INTERACTIVE

    def __init__(self, rng: random.Random | int):
        self.rng = rng if isinstance(rng, random.Random) else random.Random(rng)

    def absorb(self, tag: int, encode: Callable[[], bytes]) -> None:
        pass

    def challenge_interval(self, lo: int, size: int) -> int:
        return lo + self.rng.randrange(size)


class FiatShamirChallenges:
    """Challenges derived by hashing everything absorbed so far.

    The absorbed messages are framed in one byte buffer.  Without data, each
    absorb encodes its message and appends the frame; over data, the framed
    messages of a file already read, each absorb checks that the next frame
    carries its tag and steps past it without calling the encoder.  Either
    way one running hash state serves every challenge: each feeds it only
    the bytes absorbed since the previous one, so each byte is hashed once.
    """

    mode = MODE_FIAT_SHAMIR

    def __init__(self, spec: OracleSpec, data: bytes | None = None):
        self.spec = spec
        self._appending = data is None
        self._buffer = bytearray() if data is None else data
        self._pos = 0  # the end of the last frame absorbed
        self._hashed = 0  # how many bytes the running state has absorbed
        self._state = hashlib.sha256(spec.domain_separator)

    def absorb(self, tag: int, encode: Callable[[], bytes]) -> None:
        if self._appending:
            self._buffer += encode_message(tag, encode())
            self._pos = len(self._buffer)
            return
        data, pos = self._buffer, self._pos
        if pos + 5 > len(data):
            raise DecodeError(f"transcript ends before the {TAG_NAMES[tag]} message")
        found, length = _HEADER.unpack_from(data, pos)
        if found != tag:
            raise DecodeError(
                f"expected {TAG_NAMES[tag]} message, found {TAG_NAMES.get(found, f'tag {found:#x}')}"
            )
        if pos + 5 + length > len(data):
            raise DecodeError("truncated message payload")
        self._pos = pos + 5 + length

    def transcript_bytes(self) -> bytes:
        return bytes(self._buffer[: self._pos])

    def challenge_interval(self, lo: int, size: int) -> int:
        r = ro_challenge(self.spec, self._buffer[self._hashed : self._pos], size, lo, self._state)
        self._hashed = self._pos
        return r


class RecordedChallenges:
    """Replays challenges already fixed in a transcript."""

    mode = MODE_INTERACTIVE

    def __init__(self, challenges):
        self._queue = list(challenges)
        self._next = 0

    def absorb(self, tag: int, encode: Callable[[], bytes]) -> None:
        pass

    def _pop(self) -> int:
        if self._next >= len(self._queue):
            raise DecodeError("transcript ran out of recorded challenges")
        r = self._queue[self._next]
        self._next += 1
        return r

    def challenge_interval(self, lo: int, size: int) -> int:
        return self._pop()


def replay_challenges(mode: str, spec: OracleSpec, recorded):
    """The verifier's source for a transcript or bundle of the given mode:
    the hash under spec for Fiat-Shamir, the recorded challenges otherwise."""
    if mode != MODE_FIAT_SHAMIR:
        return RecordedChallenges(recorded)
    return FiatShamirChallenges(spec)
