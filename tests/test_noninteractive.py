import dataclasses
import random

import pytest

from machine_steps import count_machine_steps
from qbf_sampler import sample_distinct_qbfs, seeded_true_formula
from seqproof.fiatshamir import (
    MAGIC,
    TAG_MODE,
    TAG_SC_CLAIM,
    TAG_SC_FORMULA,
    TAG_SC_PRIME,
    VDF_ORACLE,
    DecodeError,
    FiatShamirChallenges,
    InteractiveChallenges,
    encode_message,
    file_frames,
)
from seqproof.noninteractive import (
    VdfBundle,
    bundle_from_bytes,
    bundle_to_bytes,
    fs_prove_tqbf,
    fs_vdf_open,
    fs_vdf_verify,
    load_bundle,
    load_transcript,
    save_bundle,
    save_transcript,
    transcript_from_bytes,
    transcript_to_bytes,
    vdf_challenge,
    verify_transcript_bytes,
)
from seqproof.qbf import parse_qbf
from seqproof import fiatshamir, noninteractive, sumcheck
from seqproof.shvdf import VdfParams, vdf_eval, vdf_open
from seqproof.sumcheck import cheat_prover, default_prime, sumcheck_prove, sumcheck_verify

ALT_TRUE = parse_qbf("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")
GOLDEN = VdfParams(8, 16, 4, 8, b"golden")


def _file(frames) -> bytes:
    """A file framing the given (tag, payload) pairs after the magic."""
    return MAGIC + b"".join(encode_message(tag, payload) for tag, payload in frames)


def test_fs_prove_verify_roundtrip():
    tr = fs_prove_tqbf(ALT_TRUE, 37)
    assert tr.mode == "fiat-shamir"
    assert sumcheck_verify(ALT_TRUE, 37, tr)
    # the whole object is a deterministic function of the statement
    assert fs_prove_tqbf(ALT_TRUE, 37) == tr


def test_fs_uses_default_prime():
    tr = fs_prove_tqbf(ALT_TRUE)
    assert tr.p == 37  # smallest prime >= 2^2 * 3^2
    assert sumcheck_verify(ALT_TRUE, tr.p, tr)


def test_fs_rejects_interactive_coins():
    tr = sumcheck_prove(ALT_TRUE, 37, InteractiveChallenges(5))
    assert tr.mode == "interactive"
    verdict = sumcheck_verify(ALT_TRUE, 37, tr, FiatShamirChallenges(fiatshamir.TQBF_ORACLE))
    assert not verdict and verdict.reason == "challenge-mismatch"


def test_fs_rejects_bad_prime():
    tr = fs_prove_tqbf(ALT_TRUE, 37)
    verdict = sumcheck_verify(ALT_TRUE, 36, dataclasses.replace(tr, p=36))
    assert verdict.reason == "statement-mismatch"


def test_each_absorbed_byte_is_hashed_once(monkeypatch):
    formula = seeded_true_formula(10, 8, 10)
    lengths = []
    ro = fiatshamir.ro_challenge

    def counted(spec, transcript, *args, **kwargs):  # as the benchmark's tracer reads it
        lengths.append(len(transcript))
        return ro(spec, transcript, *args, **kwargs)

    monkeypatch.setattr(fiatshamir, "ro_challenge", counted)
    tr = fs_prove_tqbf(formula)
    proved = list(lengths)
    lengths.clear()
    assert sumcheck_verify(formula, tr.p, tr)
    # the bytes the source absorbed are the file's messages after the mode
    # message, the last round polynomial included
    absorbed = len(b"".join(encode_message(*f) for f in file_frames(transcript_to_bytes(tr))[1:]))
    for run in (proved, lengths):
        # 10 quantifier and 10 final-block rounds, and blocks 5 and 6, before universal x6 and x7
        assert len(run) == len(tr.polys) == 31
        assert sum(run) == absorbed


def test_each_byte_read_is_hashed_once(monkeypatch):
    formula = seeded_true_formula(10, 8, 10)
    tr = fs_prove_tqbf(formula)
    data = transcript_to_bytes(tr)
    lengths = []
    ro = fiatshamir.ro_challenge

    def counted(spec, transcript, *args, **kwargs):  # as the benchmark's tracer reads it
        lengths.append(len(transcript))
        return ro(spec, transcript, *args, **kwargs)

    def unread(*_args):
        raise AssertionError("the file verifier encoded a message it had read")

    monkeypatch.setattr(fiatshamir, "ro_challenge", counted)
    monkeypatch.setattr(sumcheck, "encode_poly", unread)
    monkeypatch.setattr(sumcheck, "encode_element", unread)
    monkeypatch.setattr(sumcheck, "encode_u64", unread)
    for module in (fiatshamir, noninteractive):  # nor frames one, not even the mode message
        monkeypatch.setattr(module, "encode_message", unread)
    assert verify_transcript_bytes(formula, data)
    # the bytes hashed are all of the file's messages after the mode message
    absorbed = len(data) - len(MAGIC) - len(encode_message(TAG_MODE, b"fiat-shamir"))
    assert len(lengths) == 31
    assert sum(lengths) == absorbed


def test_the_file_verifier_writes_the_formula_text_only_to_check_it(monkeypatch):
    formula = seeded_true_formula(4, 3, 2)
    data = transcript_to_bytes(fs_prove_tqbf(formula))
    written = []
    to_qdimacs = sumcheck.to_qdimacs

    def counted(f):
        written.append(f)
        return to_qdimacs(f)

    for module in (sumcheck, noninteractive):
        monkeypatch.setattr(module, "to_qdimacs", counted)
    assert verify_transcript_bytes(formula, data)
    assert written == [formula]  # the decoder's canonical-form check
    written.clear()
    t = transcript_from_bytes(data)
    assert sumcheck_verify(formula, t.p, t)
    assert len(written) == 2  # that check, then the message the hashed source encodes


def _file_equals_object_verdict(formula, data: bytes):
    """The file verifier's verdict on data against sumcheck_verify's on the
    decoded transcript; both refuse with DecodeError where data does not
    decode.  Returns the verdict, or None for a refusal."""
    try:
        t = transcript_from_bytes(data)
    except DecodeError as exc:
        with pytest.raises(DecodeError) as refused:
            verify_transcript_bytes(formula, data)
        assert str(refused.value) == str(exc)
        return None
    expected = sumcheck_verify(formula, t.p, t)
    got = verify_transcript_bytes(formula, data)
    assert (got.accepted, got.reason) == (expected.accepted, expected.reason)
    return got


def test_the_file_verifier_agrees_on_honest_and_cheating_transcripts():
    reasons = set()
    formulas = sample_distinct_qbfs(5, 4, 24, seed=20)
    for i, formula in enumerate(formulas):
        p = default_prime(formula)
        # an interactive transcript has no file: the writer refuses it
        for tr in (
            sumcheck_prove(formula, None, InteractiveChallenges(i)),
            cheat_prover("constant-poly", formula, p, InteractiveChallenges(i)),
        ):
            with pytest.raises(ValueError, match="must be a fiat-shamir proof, not interactive"):
                transcript_to_bytes(tr)
        transcripts = [
            fs_prove_tqbf(formula),
            cheat_prover("wrong-claim", formula, p, FiatShamirChallenges(fiatshamir.TQBF_ORACLE)),
            cheat_prover("constant-poly", formula, p, FiatShamirChallenges(fiatshamir.TQBF_ORACLE)),
            cheat_prover("random-round(1)", formula, p, FiatShamirChallenges(fiatshamir.TQBF_ORACLE), i),
        ]
        for tr in transcripts:
            data = transcript_to_bytes(tr)
            for against in (formula, formulas[i - 1]):
                reasons.add(_file_equals_object_verdict(against, data).reason)
    assert {None, "statement-mismatch", "zero-claim", "round-check"} <= reasons


def test_the_file_verifier_agrees_on_every_bit_flip_and_truncation():
    data = transcript_to_bytes(fs_prove_tqbf(ALT_TRUE))
    reasons = []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        flipped = bytes(flipped)
        verdict = _file_equals_object_verdict(ALT_TRUE, flipped)
        reasons.append("refused" if verdict is None else verdict.reason)
        if verdict is not None:  # also against the formula the flipped file names
            _file_equals_object_verdict(transcript_from_bytes(flipped).formula, flipped)
    # a file carries no challenge, so none can mismatch
    assert {"refused", "statement-mismatch", "round-check"} <= set(reasons)
    assert "challenge-mismatch" not in reasons
    for cut in range(len(data)):
        assert _file_equals_object_verdict(ALT_TRUE, data[:cut]) is None


def test_transcript_file_roundtrip(tmp_path):
    tr = fs_prove_tqbf(ALT_TRUE, 37)
    path = tmp_path / "alt.transcript"
    save_transcript(path, tr)
    assert load_transcript(path) == tr
    blob = transcript_to_bytes(tr)
    assert blob.startswith(MAGIC)
    assert transcript_from_bytes(blob) == tr


def test_transcript_decode_errors():
    tr = fs_prove_tqbf(ALT_TRUE, 37)
    blob = transcript_to_bytes(tr)
    with pytest.raises(DecodeError, match="magic"):
        transcript_from_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(DecodeError, match="truncated"):
        transcript_from_bytes(blob[:-3])
    frames = file_frames(blob)
    # a trailing well-formed message (the final round polynomial repeated) is refused
    with pytest.raises(DecodeError, match="round count"):
        transcript_from_bytes(blob + encode_message(*frames[-1]))
    with pytest.raises(DecodeError, match="expected mode"):
        transcript_from_bytes(_file(frames[1:] + frames[:1]))
    with pytest.raises(DecodeError, match="unknown mode"):
        transcript_from_bytes(_file([(TAG_MODE, b"other")] + frames[1:]))
    with pytest.raises(DecodeError, match="must be a fiat-shamir proof, not interactive"):
        transcript_from_bytes(_file([(TAG_MODE, b"interactive")] + frames[1:]))
    with pytest.raises(DecodeError, match="round count"):
        transcript_from_bytes(_file(frames[:-2]))
    with pytest.raises(DecodeError, match="modulus"):
        bad = [frames[0], (frames[1][0], (1).to_bytes(8, "big"))] + frames[2:]
        transcript_from_bytes(_file(bad))
    with pytest.raises(DecodeError, match="bad formula"):
        bad = frames[:2] + [(frames[2][0], b"p cnf oops")] + frames[3:]
        transcript_from_bytes(_file(bad))


def test_transcript_decode_refuses_oversized_formula_before_building_its_chain():
    # header only: the 3000-variable chain would have 4.5 million operators
    n = 3000
    text = f"p cnf {n} 1\ne " + " ".join(map(str, range(1, n + 1))) + " 0\n1 0\n"
    blob = _file(
        [
            (TAG_MODE, b"fiat-shamir"),
            (TAG_SC_PRIME, (1 << 39).to_bytes(8, "big")),
            (TAG_SC_FORMULA, text.encode()),
            (TAG_SC_CLAIM, (1).to_bytes(8, "big")),
        ]
    )
    # also when the decoder is handed the formula the payload spells
    for given in (None, parse_qbf(text)):
        with pytest.raises(DecodeError, match="capped at 16 variables"):
            transcript_from_bytes(blob, given)


def test_transcript_decode_requires_the_canonical_formula_text():
    tr = fs_prove_tqbf(ALT_TRUE)
    frames = file_frames(transcript_to_bytes(tr))
    for given in (None, ALT_TRUE):
        assert transcript_from_bytes(_file(frames), given) == tr
        # same formula, but not the bytes the challenges hashed
        tag, payload = frames[2]
        for text in (b"c note\n" + payload, payload.replace(b"\n", b"\n\n")):
            bad = frames[:2] + [(tag, text)] + frames[3:]
            with pytest.raises(DecodeError, match="canonical"):
                transcript_from_bytes(_file(bad), given)


def hashed_challenge(pp, x, y):
    return vdf_challenge(FiatShamirChallenges(VDF_ORACLE), pp, x, y)


def test_fs_vdf_challenge_in_window_and_binding():
    t = hashed_challenge(GOLDEN, "101", 4)
    assert t in GOLDEN.challenge_window()
    assert hashed_challenge(GOLDEN, "101", 4) == t
    others = {
        hashed_challenge(GOLDEN, "100", 4),
        hashed_challenge(GOLDEN, "101", 5),
        hashed_challenge(VdfParams(8, 16, 4, 8, b"other"), "101", 4),
    }
    assert all(u in GOLDEN.challenge_window() for u in others)


def test_fs_vdf_open_verify_roundtrip(tmp_path):
    bundle = fs_vdf_open(GOLDEN, "101")
    assert bundle.output_value == 4
    assert bundle.challenge == hashed_challenge(GOLDEN, "101", 4)
    assert fs_vdf_verify(bundle)
    path = tmp_path / "opening.bundle"
    save_bundle(path, bundle)
    assert load_bundle(path) == bundle
    assert bundle_from_bytes(bundle_to_bytes(bundle)) == bundle


def test_an_opening_steps_the_machine_once(monkeypatch):
    pp = VdfParams(16, 64, 8, 16, b"vdf-demo")
    stepped = count_machine_steps(monkeypatch)
    openings = (
        lambda: fs_vdf_open(pp, "1100"),
        lambda: vdf_eval(pp, "1100").respond(60),
        lambda: vdf_open(pp, "1100", 60),
    )
    for opening in openings:
        stepped.clear()
        opening()
        assert sum(stepped) == pp.num_steps


def test_interactive_bundle_dispatch():
    from seqproof.noninteractive import verify_bundle

    rng = random.Random(3)
    t = rng.randrange(8, 16)
    out = vdf_eval(GOLDEN, "101")
    bundle = VdfBundle(GOLDEN, "101", out.value, t, vdf_open(GOLDEN, "101", t), "interactive")
    # the bundle's own coin is its prover's: it counts only as the verifier's
    assert verify_bundle(bundle).reason == "no-verifier-challenge"
    assert verify_bundle(bundle, t).accepted
    assert verify_bundle(bundle, t ^ 1).reason == "challenge-mismatch"
    # a hashed bundle needs no coin from the verifier, but a given one must match
    hashed = fs_vdf_open(GOLDEN, "101")
    assert verify_bundle(hashed).accepted and verify_bundle(hashed, hashed.challenge).accepted
    assert verify_bundle(hashed, hashed.challenge ^ 1).reason == "challenge-mismatch"
    # the fs checker refuses to trust externally supplied coins
    assert fs_vdf_verify(bundle).reason == "mode-mismatch"
    assert bundle_from_bytes(bundle_to_bytes(bundle)) == bundle


def test_fs_vdf_verify_rejects_tampering():
    bundle = fs_vdf_open(GOLDEN, "101")
    wrong_coin = VdfBundle(
        bundle.params, bundle.x, bundle.output_value, bundle.challenge ^ 1, bundle.proof
    )
    assert fs_vdf_verify(wrong_coin).reason == "challenge-mismatch"
    # a changed output moves the hash-derived challenge, so the recorded one
    # fails; where it lands on the recorded one (chance 1/lam), the replay fails
    moved = 0
    for y in range(GOLDEN.num_states):
        if y == bundle.output_value:
            continue
        wrong_out = VdfBundle(bundle.params, bundle.x, y, bundle.challenge, bundle.proof)
        if hashed_challenge(GOLDEN, "101", y) != bundle.challenge:
            moved += 1
            assert fs_vdf_verify(wrong_out).reason == "challenge-mismatch"
        else:
            assert fs_vdf_verify(wrong_out).reason == "output-mismatch"
    assert moved > 0


def test_bundle_decode_errors():
    bundle = fs_vdf_open(GOLDEN, "101")
    frames = file_frames(bundle_to_bytes(bundle))
    with pytest.raises(DecodeError, match="six bundle messages"):
        bundle_from_bytes(_file(frames[:-1]))
    with pytest.raises(DecodeError, match="bit string"):
        bad = frames[:2] + [(frames[2][0], b"10x")] + frames[3:]
        bundle_from_bytes(_file(bad))
    with pytest.raises(DecodeError, match="does not fit"):
        bad = frames[:2] + [(frames[2][0], b"0101")] + frames[3:]
        bundle_from_bytes(_file(bad))
    with pytest.raises(DecodeError, match="outside the machine"):
        bad = frames[:3] + [(frames[3][0], (1 << 20).to_bytes(8, "big"))] + frames[4:]
        bundle_from_bytes(_file(bad))


def _flip_rejects(blob: bytes, pos: int, mask: int, decode, check) -> bool:
    tampered = blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1 :]
    try:
        obj = decode(tampered)
    except DecodeError:
        return True
    return not check(obj)


def test_transcript_tamper_sampling():
    tr = fs_prove_tqbf(ALT_TRUE, 37)
    blob = transcript_to_bytes(tr)
    rng = random.Random(2026)
    rejected = sum(
        _flip_rejects(
            blob,
            rng.randrange(len(blob)),
            rng.randrange(1, 256),
            transcript_from_bytes,
            lambda obj: sumcheck_verify(obj.formula, obj.p, obj).accepted,
        )
        for _ in range(60)
    )
    assert rejected == 60


def test_bundle_tamper_sampling():
    blob = bundle_to_bytes(fs_vdf_open(GOLDEN, "101"))
    rng = random.Random(2027)
    rejected = sum(
        _flip_rejects(
            blob,
            rng.randrange(len(blob)),
            rng.randrange(1, 256),
            bundle_from_bytes,
            lambda obj: fs_vdf_verify(obj).accepted,
        )
        for _ in range(60)
    )
    # an input flip that leaves the hash-derived coin unchanged slips through
    # the input-blind replay; anything near that is a broken run
    assert rejected >= 59
