"""One-message proofs via hashed challenges, plus on-disk artifact formats.

The interactive protocols become single objects by drawing every verifier
coin from a hash of the conversation so far.  This module wraps the provers
and verifiers accordingly and fixes byte formats for shipping sum-check
transcripts and delay-function opening bundles between processes.  Every
decoder is strict: unknown tags, out-of-order messages, trailing bytes and
semantically broken payloads all raise DecodeError.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .fiatshamir import (
    MAGIC,
    MODE_FIAT_SHAMIR,
    MODE_INTERACTIVE,
    TAG_MODE,
    TAG_NAMES,
    TAG_SC_CLAIM,
    TAG_SC_FORMULA,
    TAG_SC_POLY,
    TAG_SC_PRIME,
    TAG_VDF_CHALLENGE,
    TAG_VDF_INPUT,
    TAG_VDF_OUTPUT,
    TAG_VDF_PP,
    TAG_VDF_PROOF,
    TQBF_ORACLE,
    VDF_ORACLE,
    DecodeError,
    FiatShamirChallenges,
    RecordedChallenges,
    decode_element,
    decode_poly,
    decode_u64,
    encode_message,
    encode_u64,
    file_frames,
    replay_challenges,
)
from .qbf import Qbf, QbfParseError, parse_qbf, to_qdimacs
from .shvdf import (
    VdfParams,
    VdfProof,
    VdfRun,
    VdfVerdict,
    params_from_bytes,
    params_to_bytes,
    proof_from_bytes,
    proof_to_bytes,
    vdf_eval,
    vdf_verify,
)
from .sumcheck import (
    MAX_PROTOCOL_VARS,
    Conversation,
    Transcript,
    Verdict,
    build_operator_chain,
    sumcheck_prove,
    sumcheck_verify,
)


def _decode_mode(payload: bytes) -> str:
    try:
        mode = payload.decode()
    except UnicodeDecodeError:
        raise DecodeError("unreadable mode payload")
    if mode not in (MODE_INTERACTIVE, MODE_FIAT_SHAMIR):
        raise DecodeError(f"unknown mode {mode!r}")
    return mode


def _expect(frames: list[tuple[int, bytes]], i: int, tag: int) -> bytes:
    """The payload of frame i, which must carry tag."""
    if i >= len(frames):
        raise DecodeError(f"transcript ends before the {TAG_NAMES[tag]} message")
    found, payload = frames[i]
    if found != tag:
        raise DecodeError(f"expected {TAG_NAMES[tag]} message, found {TAG_NAMES[found]}")
    return payload


# ── hashed-challenge sum-check ─────────────────────────────────────────────


def fs_prove_tqbf(formula: Qbf, p: int | None = None) -> Transcript:
    """Prove membership with all challenges drawn from the hash oracle."""
    return sumcheck_prove(formula, p, FiatShamirChallenges(TQBF_ORACLE))


def fs_verify_tqbf(formula: Qbf, transcript: Transcript) -> Verdict:
    """Re-derive every challenge from the hash and check the transcript.

    The prime travels with the transcript; an inadmissible one (wrong size,
    composite) rejects.  Recorded challenges that do not match the
    re-derived ones reject, so interactive transcripts fail here; a decoded
    file's challenges are the ones its reader derived.
    """
    return sumcheck_verify(formula, transcript.p, transcript, FiatShamirChallenges(TQBF_ORACLE))


class _Transcriber(RecordedChallenges):
    """Replays recorded challenges and encodes every message absorbed."""

    def __init__(self, mode: str, challenges):
        super().__init__(challenges)
        self.mode = mode
        self._parts: list[bytes] = []

    def absorb(self, tag: int, encode: Callable[[], bytes]) -> None:
        self._parts.append(encode_message(tag, encode()))

    def transcript_bytes(self) -> bytes:
        return b"".join(self._parts)


def file_bytes(source) -> bytes:
    """The file for the conversation a challenge source absorbed: the magic,
    the mode message, then every message absorbed, as the source encoded it."""
    return MAGIC + encode_message(TAG_MODE, source.mode.encode()) + source.transcript_bytes()


def transcript_from_bytes(data: bytes, formula: Qbf | None = None) -> Transcript:
    """The schedule reader: a transcript from a Fiat-Shamir file, read in
    the schedule's order, with each challenge derived from the messages
    before it as the prover's source drew it.

    A formula given stands for a formula payload that is its canonical text,
    since parsing that text gives an equal formula; any other payload is
    parsed, with the same checks and errors.
    """
    frames = file_frames(data)
    mode = _decode_mode(_expect(frames, 0, TAG_MODE))
    if mode != MODE_FIAT_SHAMIR:
        raise DecodeError(f"a transcript file must be a {MODE_FIAT_SHAMIR} proof, not {mode}")
    p = decode_u64(_expect(frames, 1, TAG_SC_PRIME))
    if p < 2:
        raise DecodeError("modulus too small")
    raw = _expect(frames, 2, TAG_SC_FORMULA)
    reused = formula is not None and to_qdimacs(formula).encode() == raw
    if not reused:
        try:
            formula = parse_qbf(raw.decode())
        except (UnicodeDecodeError, QbfParseError) as exc:
            raise DecodeError(f"bad formula payload: {exc}")
    if formula.num_vars > MAX_PROTOCOL_VARS:
        raise DecodeError(
            f"formula has {formula.num_vars} variables; the protocol is capped at "
            f"{MAX_PROTOCOL_VARS} variables"
        )
    if not reused and to_qdimacs(formula).encode() != raw:
        raise DecodeError("formula payload is not in canonical form")
    claim = decode_element(_expect(frames, 3, TAG_SC_CLAIM), p)
    num_rounds = len(build_operator_chain(formula))
    if len(frames) != 4 + num_rounds:
        raise DecodeError("round count does not match the formula")
    polys = tuple(decode_poly(_expect(frames, 4 + k, TAG_SC_POLY), p) for k in range(num_rounds))
    # hashed past the magic and the mode frame; canonical, so as the prover's source hashed them
    source = FiatShamirChallenges(TQBF_ORACLE, data[len(MAGIC) + 5 + len(MODE_FIAT_SHAMIR) :])
    conversation = Conversation(source, formula, p, claim)
    return Transcript(formula, p, claim, polys, tuple(map(conversation.exchange, polys)), mode)


def transcript_to_bytes(transcript: Transcript) -> bytes:
    """The transcript's file, its conversation replayed into a _Transcriber;
    only a Fiat-Shamir transcript has one, as the reader reads no other."""
    if transcript.mode != MODE_FIAT_SHAMIR:
        raise ValueError(f"a transcript file must be a {MODE_FIAT_SHAMIR} proof, not {transcript.mode}")
    source = _Transcriber(transcript.mode, transcript.challenges)
    conversation = Conversation(source, transcript.formula, transcript.p, transcript.claimed_value)
    for s in transcript.polys:
        conversation.exchange(s)
    return file_bytes(source)


def verify_transcript_bytes(formula: Qbf, data: bytes) -> Verdict:
    """Decode a transcript file and check it against formula.

    The decoder derives every challenge from the hash of the bytes read,
    hashing each byte once; the verdict is sumcheck_verify's on the decoded
    transcript with those challenges replayed.  The decoder is handed
    formula, so a file that carries formula's canonical text does not parse
    it again.  Raises DecodeError as transcript_from_bytes does.
    """
    t = transcript_from_bytes(data, formula)
    return sumcheck_verify(formula, t.p, t, RecordedChallenges(t.challenges))


def save_transcript(path, transcript: Transcript) -> None:
    Path(path).write_bytes(transcript_to_bytes(transcript))


def load_transcript(path) -> Transcript:
    return transcript_from_bytes(Path(path).read_bytes())


# ── delay-function openings ────────────────────────────────────────────────


@dataclass(frozen=True)
class VdfBundle:
    """Self-contained opening: parameters, input, output, challenge, proof."""

    params: VdfParams
    x: str
    output_value: int
    challenge: int
    proof: VdfProof
    mode: str = MODE_FIAT_SHAMIR


def _output_width(pp: VdfParams) -> int:
    """Output bytes: eight (a u64) up to 64 state bits, the state width past that."""
    return max(8, (pp.state_bits + 7) // 8)


def vdf_challenge(challenges, pp: VdfParams, x: str, output_value: int) -> int:
    """The opening schedule: parameters, input, output, then the challenge step drawn from them."""
    challenges.absorb(TAG_VDF_PP, lambda: params_to_bytes(pp))
    challenges.absorb(TAG_VDF_INPUT, x.encode)
    challenges.absorb(TAG_VDF_OUTPUT, lambda: output_value.to_bytes(_output_width(pp), "big"))
    t = challenges.challenge_interval(pp.num_steps - pp.lam, pp.lam)
    challenges.absorb(TAG_VDF_CHALLENGE, lambda: encode_u64(t))
    return t


def open_bundle(run: VdfRun, x: str, challenges) -> VdfBundle:
    """Draw the challenge through the opening schedule; answer from the run's window."""
    t = vdf_challenge(challenges, run.params, x, run.value)
    return VdfBundle(run.params, x, run.value, t, run.respond(t), challenges.mode)


def fs_vdf_open(pp: VdfParams, x: str) -> VdfBundle:
    """Run once, derive the challenge from the hash, and open at it."""
    return open_bundle(vdf_eval(pp, x), x, FiatShamirChallenges(VDF_ORACLE))


def verify_bundle(bundle: VdfBundle, challenge: int | None = None) -> VdfVerdict:
    """Check the bundle's challenge against the verifier's, then replay.

    challenge is the verifier's own coin: a bundle of either mode whose
    challenge differs from it is refused.  An interactive bundle's challenge
    is a coin its prover wrote down, so without the verifier's it is
    refused; a Fiat-Shamir bundle's challenge is re-derived from the hash.
    """
    if challenge is not None and challenge != bundle.challenge:
        return VdfVerdict(False, 0, "challenge-mismatch")
    if challenge is None and bundle.mode != MODE_FIAT_SHAMIR:
        return VdfVerdict(False, 0, "no-verifier-challenge")
    source = replay_challenges(bundle.mode, VDF_ORACLE, [bundle.challenge])
    t = vdf_challenge(source, bundle.params, bundle.x, bundle.output_value)
    if t != bundle.challenge:
        return VdfVerdict(False, 0, "challenge-mismatch")
    return vdf_verify(bundle.params, bundle.x, bundle.output_value, t, bundle.proof)


def fs_vdf_verify(bundle: VdfBundle) -> VdfVerdict:
    """Refuse interactive bundles, then check as verify_bundle does."""
    if bundle.mode != MODE_FIAT_SHAMIR:
        return VdfVerdict(False, 0, "mode-mismatch")
    return verify_bundle(bundle)


def _read_bundle(frames: list[tuple[int, bytes]]) -> VdfBundle:
    if len(frames) != 6:
        raise DecodeError(f"expected six bundle messages, found {len(frames)}")
    mode = _decode_mode(_expect(frames, 0, TAG_MODE))
    pp = params_from_bytes(_expect(frames, 1, TAG_VDF_PP))
    try:
        x = _expect(frames, 2, TAG_VDF_INPUT).decode()
    except UnicodeDecodeError:
        raise DecodeError("unreadable input payload")
    if any(c not in "01" for c in x):
        raise DecodeError("input must be a bit string")
    if len(x) > pp.space - 1:
        raise DecodeError("input does not fit on the tape")
    raw = _expect(frames, 3, TAG_VDF_OUTPUT)
    if len(raw) != _output_width(pp):
        raise DecodeError(f"expected {_output_width(pp)} output bytes, got {len(raw)}")
    y = int.from_bytes(raw, "big")
    if y >= pp.num_states:
        raise DecodeError("output outside the machine")
    t = decode_u64(_expect(frames, 4, TAG_VDF_CHALLENGE))
    proof = proof_from_bytes(pp, _expect(frames, 5, TAG_VDF_PROOF))
    return VdfBundle(pp, x, y, t, proof, mode)


def bundle_to_bytes(bundle: VdfBundle) -> bytes:
    """The bundle's file: what the opening schedule absorbs, then the proof."""
    source = _Transcriber(bundle.mode, [bundle.challenge])
    vdf_challenge(source, bundle.params, bundle.x, bundle.output_value)
    return file_bytes(source) + encode_message(TAG_VDF_PROOF, proof_to_bytes(bundle.params, bundle.proof))


def bundle_from_bytes(data: bytes) -> VdfBundle:
    return _read_bundle(file_frames(data))


def save_bundle(path, bundle: VdfBundle) -> None:
    Path(path).write_bytes(bundle_to_bytes(bundle))


def load_bundle(path) -> VdfBundle:
    return bundle_from_bytes(Path(path).read_bytes())
