import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqproof.fiatshamir import DecodeError
from seqproof.shvdf import (
    MAX_SECURITY,
    MAX_STATE_BITS,
    MAX_STEPS,
    VdfParams,
    VdfProof,
    _seeded_delta,
    params_from_bytes,
    params_to_bytes,
    proof_from_bytes,
    proof_to_bytes,
    sample_challenge,
    vdf_attack,
    vdf_eval,
    vdf_open,
    vdf_setup,
    vdf_verify,
)

GOLDEN = VdfParams(8, 16, 4, 8, b"golden")
GOLDEN_X = "101"
# this run happens to hit a final state at step 6, so it also pins the
# absorbing tail behaviour
GOLDEN_Y = 4

BIG = VdfParams(16, 64, 8, 16, b"vdf-demo")
BIG_X = "1100"
BIG_Y = 37788


def reference_run(pp, x, steps, start_state=0):
    """Straight-line simulator sharing no code with the package."""
    tape = [2] + [int(c) for c in x] + [0] * (pp.space - 1 - len(x))
    state, head, last = start_state, 0, pp.space - 1
    states, scanned = [state], [tape[head]]
    mask = (1 << pp.state_bits) - 1
    for _ in range(steps):
        if 0 < state < pp.lam:
            states.append(state)
            scanned.append(tape[head])
            continue
        digest = hashlib.sha256(
            pp.seed + state.to_bytes(16, "big") + bytes([tape[head]])
        ).digest()
        bits = int.from_bytes(digest[:16], "big")
        if head:
            tape[head] = (bits >> pp.state_bits) & 1
        state = bits & mask
        head += ((bits >> (pp.state_bits + 1)) % 3) - 1
        head = max(0, min(last, head))
        states.append(state)
        scanned.append(tape[head])
    return state, states, scanned


def test_setup_guards():
    with pytest.raises(ValueError, match="at least 8"):
        vdf_setup(4, 3, 4, b"s")
    with pytest.raises(ValueError, match="exceeds"):
        vdf_setup(8, 9, 4, b"s")
    with pytest.raises(ValueError, match="exceed the challenge window"):
        vdf_setup(8, 3, 4, b"s")
    with pytest.raises(ValueError, match="state_bits"):
        vdf_setup(8, 4, 4, b"s", state_bits=121)
    with pytest.raises(ValueError, match="cover the whole state space"):
        vdf_setup(8, 4, 4, b"s", state_bits=3)
    with pytest.raises(ValueError, match="work cell"):
        vdf_setup(8, 4, 1, b"s")
    # str seeds are utf-8 encoded
    assert vdf_setup(8, 4, 4, "golden", state_bits=8) == GOLDEN


def test_default_state_width_grows_with_lam_and_log2_steps():
    assert vdf_setup(8, 4, 4, "golden").state_bits == 12
    assert vdf_setup(16, 12, 32, "a1b2c3").state_bits == 28
    assert vdf_setup(32, 16, 32, "bench").state_bits == 48
    assert vdf_setup(110, 20, 8, "wide").state_bits == MAX_STATE_BITS
    # an explicit width wins
    assert vdf_setup(16, 12, 32, "a1b2c3", state_bits=16).state_bits == 16


def test_security_parameter_is_capped():
    assert VdfParams(MAX_SECURITY, MAX_SECURITY + 1, 4, 9, b"s").lam == MAX_SECURITY
    with pytest.raises(ValueError, match="at most 256"):
        VdfParams(MAX_SECURITY + 1, 1 << 10, 4, 16, b"s")
    with pytest.raises(ValueError, match="at most 256"):
        vdf_setup(MAX_SECURITY + 1, 10, 4, b"s")
    # lam is the second u64 of a params file
    blob = params_to_bytes(GOLDEN)
    for lam in (MAX_SECURITY + 1, (1 << 20) - 1, (1 << 64) - 1):
        with pytest.raises(DecodeError, match="at most 256"):
            params_from_bytes(blob[:8] + lam.to_bytes(8, "big") + blob[16:])


def test_golden_eval():
    out = vdf_eval(GOLDEN, GOLDEN_X)
    assert out.value == GOLDEN_Y
    assert out.steps == 6


def test_golden_open_frozen():
    proof = vdf_open(GOLDEN, GOLDEN_X, 8)
    assert proof.state_at_challenge == 4
    assert proof.scanned == (1,) * 8
    # the challenge lies past the halt, so the replay takes no transition
    assert vdf_verify(GOLDEN, GOLDEN_X, GOLDEN_Y, 8, proof).steps == 0


def test_big_instance_frozen():
    assert vdf_eval(BIG, BIG_X).value == BIG_Y
    proof = vdf_open(BIG, BIG_X, 56)
    assert proof.state_at_challenge == 10581
    assert proof.scanned == (0, 0, 0, 0, 0, 0, 1, 0)


@pytest.mark.parametrize(
    "pp,x",
    [
        (GOLDEN, GOLDEN_X),
        (BIG, BIG_X),
        (VdfParams(9, 33, 5, 13, b"odd sizes"), "0110"),
    ],
)
def test_eval_matches_reference(pp, x):
    want, _, _ = reference_run(pp, x, pp.num_steps)
    assert vdf_eval(pp, x).value == want


@pytest.mark.parametrize(
    "pp,x",
    [
        (GOLDEN, GOLDEN_X),
        (BIG, BIG_X),
        (VdfParams(8, 16, 4, 4, b"halts-0"), "01"),
        (VdfParams(8, 32, 8, 6, b"straddle-49"), "0110"),
    ],
)
def test_live_steps_stop_at_the_first_final_state(pp, x):
    _, states, _ = reference_run(pp, x, pp.num_steps)
    halted = [i for i, q in enumerate(states) if q in pp.final_states]
    assert vdf_eval(pp, x).steps == (halted[0] if halted else pp.num_steps)


def test_live_steps_of_the_readme_example_and_of_a_wide_machine():
    # the README's example at 16 state bits halts early, after 631 of 4096 steps
    out = vdf_eval(vdf_setup(16, 12, 32, "a1b2c3", state_bits=16), "1011")
    assert (out.value, out.steps) == (9, 631)
    # at the default width it runs all of them
    assert vdf_eval(vdf_setup(16, 12, 32, "a1b2c3"), "1011").steps == 4096
    # with 32 state bits the benchmark-sized run never reaches a final state
    out = vdf_eval(vdf_setup(32, 16, 32, "live-32", state_bits=32), "1011")
    assert out.steps == 1 << 16


def _spec_delta(seed, state_bits, q, sym):
    """The rule as specified: sha256(seed || q as 16 bytes || sym as 1 byte)."""
    digest = hashlib.sha256(seed + q.to_bytes(16, "big") + bytes([sym])).digest()
    bits = int.from_bytes(digest[:16], "big")
    return (
        bits & ((1 << state_bits) - 1),
        (bits >> state_bits) & 1,
        ((bits >> (state_bits + 1)) % 3) - 1,
    )


@pytest.mark.parametrize("seed_len", [0, 55, 64, 200])
@pytest.mark.parametrize("state_bits", [1, 8, 32, 120])
def test_seeded_rule_matches_its_specification(state_bits, seed_len):
    # seeds of 55, 64 and 200 bytes put the absorbed prefix just short of, on
    # and across sha256's 64-byte block boundaries
    seed = bytes((7 + 3 * i) % 256 for i in range(seed_len))
    if state_bits >= 4:
        delta = VdfParams(8, 16, 4, state_bits, seed).machine().delta
    else:
        # too few states for any admissible lam; the rule itself still takes them
        delta = _seeded_delta(seed, state_bits)
    for q in (0, 1, (1 << state_bits) - 1):
        for sym in (0, 1, 2):
            want = _spec_delta(seed, state_bits, q, sym)
            # a second call checks that a step leaves the absorbed seed untouched
            assert delta(q, sym) == want
            assert delta(q, sym) == want


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200), st.integers(1, MAX_STATE_BITS), st.data())
def test_seeded_rule_matches_its_specification_property(seed, state_bits, data):
    q = data.draw(st.integers(0, (1 << state_bits) - 1))
    sym = data.draw(st.sampled_from((0, 1, 2)))
    assert _seeded_delta(seed, state_bits)(q, sym) == _spec_delta(seed, state_bits, q, sym)


@pytest.mark.parametrize("sym", [-1, 3, 256])
def test_the_seeded_rule_refuses_a_symbol_outside_the_alphabet(sym):
    # hashing q << 8 | sym would read a symbol of 256 as q + 1 reading 0,
    # and an index into a tuple of three would read -1 as the mark
    delta = _seeded_delta(b"alias", 48)
    with pytest.raises(ValueError, match="tape symbol"):
        delta(4, sym)


def test_the_seed_is_hashed_once_per_machine_not_once_per_step(monkeypatch):
    pp = vdf_setup(16, 10, 16, "budget", state_bits=32)
    sha256, machine = hashlib.sha256, VdfParams.machine
    counts = {"sha256": 0, "machine": 0}

    def counted_sha256(*args, **kwargs):
        counts["sha256"] += 1
        return sha256(*args, **kwargs)

    def counted_machine(self):
        counts["machine"] += 1
        return machine(self)

    monkeypatch.setattr(hashlib, "sha256", counted_sha256)
    monkeypatch.setattr(VdfParams, "machine", counted_machine)
    run = vdf_eval(pp, "1011")
    assert run.steps == 1 << 10
    assert counts["machine"] == 1
    assert counts["sha256"] == counts["machine"]


def test_open_verify_all_challenges():
    out = vdf_eval(BIG, BIG_X)
    for t in BIG.challenge_window():
        proof = vdf_open(BIG, BIG_X, t)
        assert len(proof.scanned) == BIG.num_steps - t
        verdict = vdf_verify(BIG, BIG_X, out.value, t, proof)
        assert verdict.accepted and verdict.reason is None
        assert verdict.steps == BIG.num_steps - t <= BIG.lam


def test_open_rejects_out_of_window():
    for t in (-1, 0, BIG.num_steps - BIG.lam - 1, BIG.num_steps):
        with pytest.raises(ValueError, match="outside"):
            vdf_open(BIG, BIG_X, t)


@pytest.mark.parametrize(
    "pp,x,value,halted_at",
    [
        (VdfParams(8, 16, 4, 4, b"halts-0"), "01", 3, 2),
        # the README's parameters before the default state width grew
        (vdf_setup(16, 12, 32, "a1b2c3", state_bits=16), "1011", 9, 631),
    ],
    ids=["halts-0", "readme-at-16-state-bits"],
)
def test_absorbing_run_opens_cleanly(pp, x, value, halted_at):
    out = vdf_eval(pp, x)
    assert (out.value, out.steps) == (value, halted_at)
    assert out.value in pp.final_states
    # every state in the window is final, so no replay takes a transition
    for t in pp.challenge_window():
        verdict = vdf_verify(pp, x, out.value, t, vdf_open(pp, x, t))
        assert verdict.accepted and verdict.steps == 0


def test_window_where_the_run_halts():
    # this run reaches a final state at step 27, inside the window [24, 32)
    pp = VdfParams(8, 32, 8, 6, b"straddle-49")
    want, states, scanned = reference_run(pp, "0110", pp.num_steps)
    assert states[27] in pp.final_states and states[26] not in pp.final_states
    run = vdf_eval(pp, "0110")
    assert run.states == tuple(states[-pp.lam - 1 :])
    assert run.scanned == tuple(scanned[-pp.lam - 1 : -1])
    assert run.value == want
    assert run.steps == 27
    for t in pp.challenge_window():
        assert vdf_verify(pp, "0110", want, t, run.respond(t))


def test_verify_rejections():
    t = 56
    proof = vdf_open(BIG, BIG_X, t)
    ok = vdf_verify(BIG, BIG_X, BIG_Y, t, proof)
    assert ok
    assert not ok.reason

    v = vdf_verify(BIG, BIG_X, BIG_Y, BIG.num_steps, proof)
    assert not v and v.reason == "challenge-out-of-range"
    v = vdf_verify(BIG, BIG_X, BIG_Y, t, VdfProof(proof.state_at_challenge, proof.scanned[:-1]))
    assert v.reason == "trace-length"
    v = vdf_verify(BIG, BIG_X, BIG_Y, t, VdfProof(1 << 16, proof.scanned))
    assert v.reason == "state-out-of-range"
    bad = proof.scanned[:-1] + (3,)
    v = vdf_verify(BIG, BIG_X, BIG_Y, t, VdfProof(proof.state_at_challenge, bad))
    assert v.reason == "bad-symbol"
    v = vdf_verify(BIG, BIG_X, BIG_Y + 1, t, proof)
    assert v.reason == "output-mismatch"
    # a flipped scanned symbol sends the replay down a different walk
    flipped = (1 - proof.scanned[0],) + proof.scanned[1:]
    v = vdf_verify(BIG, BIG_X, BIG_Y, t, VdfProof(proof.state_at_challenge, flipped))
    assert v.reason == "output-mismatch"
    # a different challenge state does too
    v = vdf_verify(BIG, BIG_X, BIG_Y, t, VdfProof(proof.state_at_challenge + 1, proof.scanned))
    assert v.reason == "output-mismatch"


def test_verify_never_consults_the_input():
    t = 60
    proof = vdf_open(BIG, BIG_X, t)
    for other_x in ("0000", "1111111", ""):
        assert vdf_verify(BIG, other_x, BIG_Y, t, proof)


def test_sample_challenge_in_window():
    rng = random.Random(1)
    window = BIG.challenge_window()
    drawn = {sample_challenge(BIG, rng) for _ in range(200)}
    assert drawn <= set(window)
    assert len(drawn) > 1


def test_attack_forges_every_challenge():
    rng = random.Random(7)
    honest = vdf_eval(BIG, BIG_X)
    forgery = vdf_attack(BIG, BIG_X, rng)
    assert forgery.steps == BIG.lam
    assert forgery.states[0] not in BIG.final_states
    assert forgery.value != honest.value
    for t in BIG.challenge_window():
        verdict = vdf_verify(BIG, BIG_X, forgery.value, t, forgery.respond(t))
        assert verdict.accepted
    with pytest.raises(ValueError, match="outside"):
        forgery.respond(BIG.num_steps - BIG.lam - 1)


def test_attack_matches_reference_walk():
    rng = random.Random(11)
    forgery = vdf_attack(BIG, BIG_X, rng)
    want, states, scanned = reference_run(
        BIG, BIG_X, BIG.lam, start_state=forgery.states[0]
    )
    assert forgery.value == want
    assert forgery.states == tuple(states)
    assert forgery.scanned == tuple(scanned[:-1])


def test_params_roundtrip():
    for pp in (GOLDEN, BIG, vdf_setup(10, 7, 6, b"", state_bits=40)):
        assert params_from_bytes(params_to_bytes(pp)) == pp


def test_params_decode_errors():
    blob = params_to_bytes(GOLDEN)
    with pytest.raises(DecodeError, match="version"):
        params_from_bytes(b"\x00" * 7 + b"\x01" + blob[8:])
    with pytest.raises(DecodeError, match="truncated"):
        params_from_bytes(blob[:47])
    with pytest.raises(DecodeError, match="length mismatch"):
        params_from_bytes(blob + b"x")
    # structurally valid but semantically broken parameters are refused
    patched = blob[:8] + (4).to_bytes(8, "big") + blob[16:]
    with pytest.raises(DecodeError, match="at least 8"):
        params_from_bytes(patched)


def test_params_step_count_is_capped():
    assert VdfParams(8, MAX_STEPS, 4, 8, b"s").num_steps == MAX_STEPS
    with pytest.raises(ValueError, match="2\\^22"):
        VdfParams(8, MAX_STEPS + 1, 4, 8, b"s")
    with pytest.raises(ValueError, match="2\\^22"):
        vdf_setup(40, 40, 4, b"s")
    # the count is the third u64 of a params file
    blob = params_to_bytes(GOLDEN)
    for steps in (MAX_STEPS + 1, 1 << 62, (1 << 64) - 1):
        with pytest.raises(DecodeError, match="2\\^22"):
            params_from_bytes(blob[:16] + steps.to_bytes(8, "big") + blob[24:])


def test_proof_roundtrip_frozen():
    proof = vdf_open(BIG, BIG_X, 56)
    blob = proof_to_bytes(BIG, proof)
    assert len(blob) == 2 + 4 + 2  # 16-bit state, count, 8 symbols packed
    assert proof_from_bytes(BIG, blob) == proof


def test_proof_decode_errors():
    wide = VdfParams(8, 16, 4, 12, b"s")
    with pytest.raises(DecodeError, match="truncated"):
        proof_from_bytes(GOLDEN, b"\x00" * 4)
    with pytest.raises(DecodeError, match="outside the machine"):
        proof_from_bytes(wide, (1 << 12).to_bytes(2, "big") + (0).to_bytes(4, "big"))
    with pytest.raises(DecodeError, match="length mismatch"):
        proof_from_bytes(GOLDEN, b"\x00" + (5).to_bytes(4, "big") + b"\x00")
    with pytest.raises(DecodeError, match="bad tape symbol"):
        proof_from_bytes(GOLDEN, b"\x00" + (1).to_bytes(4, "big") + bytes([0b11]))
    with pytest.raises(DecodeError, match="padding"):
        proof_from_bytes(GOLDEN, b"\x00" + (1).to_bytes(4, "big") + bytes([0b0100]))


@settings(max_examples=60)
@given(
    state=st.integers(min_value=0, max_value=255),
    syms=st.lists(st.integers(min_value=0, max_value=2), max_size=40),
)
def test_proof_codec_roundtrip_property(state, syms):
    proof = VdfProof(state, tuple(syms))
    assert proof_from_bytes(GOLDEN, proof_to_bytes(GOLDEN, proof)) == proof
