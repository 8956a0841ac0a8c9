"""Transcript files in the layout they had before a file became a
Fiat-Shamir proof, built byte by byte; the package never calls it.

In that layout a round polynomial's frame was followed by the frame of the
challenge that answered it (tag 0x06, one field element), and the mode
frame could read `interactive`, in which case the verifier replayed the
challenges the file recorded.  Tag 0x06 is no longer registered, so these
files are framed here by hand.
"""

import hashlib

from seqproof.fiatshamir import MAGIC, MODE_FIAT_SHAMIR, MODE_INTERACTIVE, TAG_MODE, TQBF_ORACLE
from seqproof.fiatshamir import encode_element, ro_challenge

TAG_SC_CHALLENGE = 0x06


def frame(tag: int, payload: bytes) -> bytes:
    """Tag byte, 4-byte big-endian length, payload, for any tag byte."""
    return bytes([tag]) + len(payload).to_bytes(4, "big") + payload


def frames(data: bytes) -> list[tuple[int, bytes]]:
    """The (tag, payload) pairs after a well-formed file's magic, any tag byte allowed."""
    pos, out = len(MAGIC), []
    while pos < len(data):
        length = int.from_bytes(data[pos + 1 : pos + 5], "big")
        out.append((data[pos], data[pos + 5 : pos + 5 + length]))
        pos += 5 + length
    return out


def today_layout(data: bytes, mode: str) -> bytes:
    """The file's messages with its challenge frames dropped, after a mode frame reading mode."""
    kept = b"".join(frame(tag, payload) for tag, payload in frames(data)[1:] if tag != TAG_SC_CHALLENGE)
    return MAGIC + frame(TAG_MODE, mode.encode()) + kept


class ParentLayoutChallenges:
    """A challenge source that writes the parent layout: the frame of each
    message absorbed, and after each challenge it draws, that challenge's
    frame.

    coins is the source the challenges come from, in the interactive mode;
    None hashes the frames written so far under TQBF_ORACLE, as that
    layout's Fiat-Shamir files did, challenge frames included.  layout
    rewrites each (tag, payload) before it is framed.
    """

    def __init__(self, p: int, coins=None, layout=lambda tag, payload: payload):
        self.p, self.coins, self.layout = p, coins, layout
        self.mode = MODE_FIAT_SHAMIR if coins is None else MODE_INTERACTIVE
        self._frames = bytearray()
        self._hashed = 0
        self._state = hashlib.sha256(TQBF_ORACLE.domain_separator)

    def absorb(self, tag: int, encode) -> None:
        self._frames += frame(tag, self.layout(tag, encode()))

    def challenge_interval(self, lo: int, size: int) -> int:
        if self.coins is None:
            r = ro_challenge(TQBF_ORACLE, bytes(self._frames[self._hashed :]), size, lo, self._state)
            self._hashed = len(self._frames)
        else:
            r = self.coins.challenge_interval(lo, size)
        self.absorb(TAG_SC_CHALLENGE, lambda: encode_element(r, self.p))
        return r

    def file_bytes(self) -> bytes:
        return MAGIC + frame(TAG_MODE, self.mode.encode()) + bytes(self._frames)
