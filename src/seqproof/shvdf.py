"""A delay function from seeded bounded-space machine runs, plus its break.

Eval runs a pseudorandomly wired machine for a fixed number of steps and
outputs the final control state; sequential work is the number of
transitions the machine takes.  Open answers a challenge near the end of
the run by revealing the control state at the challenged step and the
scanned symbols from there on.  Verify replays that suffix through the
transition rule alone: it never re-derives the tape from the input, so the
check costs at most `lam` steps - and nothing ties the revealed symbols to
the input.  So an opening only needs a recorded window of the last `lam`
steps (VdfRun), and vdf_attack records one after `lam` steps of work
instead of `num_steps`.

The steps before the window run in `_run_prefix`, one loop with the
seeded rule inlined; the window and verify's replay step through the
machine's `delta`, one transition per call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .fiatshamir import DecodeError, decode_u64, encode_u64
from .turing import (
    SYM_MARK,
    SYM_ONE,
    SYM_ZERO,
    TmConfiguration,
    TmDescription,
    initial_configuration,
    tm_run,
)

FORMAT_VERSION = 2
MIN_SECURITY = 8
# a bundle names its own lam, and verify replays up to lam steps
MAX_SECURITY = 256
# state id plus write bit plus move bits must fit the 128-bit prf output
MAX_STATE_BITS = 120
# eval allocates one list entry per tape cell; tests and benchmarks use at most 32
MAX_SPACE = 1 << 20
# a params file fixes how long eval and open run; this bounds it as MAX_SPACE bounds the tape
MAX_STEPS = 1 << 22


# ── parameters and the seeded machine ──────────────────────────────────────


def _seeded_delta(seed: bytes, state_bits: int):
    """Transition rule keyed by (state, symbol) through sha256.

    The hashed bytes are the seed, then q as 16 big-endian bytes, then sym
    as one byte.  The seed is absorbed once per machine; each step copies
    that hash state and feeds it q's 16 bytes and sym's prebuilt byte.  A
    symbol outside {0, 1, 2} raises ValueError.  The first 16 digest bytes,
    big-endian, are the top 128 bits of the whole digest read as one
    integer: their low `state_bits` bits give the next state, the bit above
    the written bit, and the bits above that, mod 3, minus 1, the move.
    The rule's `keyed` attribute is the absorbed seed, for `_run_prefix`.
    """
    keyed = hashlib.sha256(seed)
    copy = keyed.copy
    from_bytes = int.from_bytes
    sym_bytes = {s: bytes([s]) for s in (SYM_ZERO, SYM_ONE, SYM_MARK)}
    mask = (1 << state_bits) - 1
    write_shift = 128 + state_bits

    def delta(q: int, sym: int) -> tuple[int, int, int]:
        try:
            sym_byte = sym_bytes[sym]
        except KeyError:
            raise ValueError(f"tape symbol {sym!r} is not 0, 1 or 2") from None
        h = copy()
        h.update(q.to_bytes(16, "big"))
        h.update(sym_byte)
        bits = from_bytes(h.digest(), "big")
        rest = bits >> write_shift
        return (bits >> 128) & mask, rest & 1, ((rest >> 1) % 3) - 1

    delta.keyed = keyed
    return delta


@dataclass(frozen=True)
class VdfParams:
    """Public parameters; `seed` wires the machine's transition rule.

    States are `state_bits`-bit integers, 0 is initial and 1..lam-1 are
    final (absorbing).  Challenges index one of the last `lam` steps of a
    `num_steps`-step run.
    """

    lam: int
    num_steps: int
    space: int
    state_bits: int
    seed: bytes

    def __post_init__(self):
        if self.lam < MIN_SECURITY:
            raise ValueError(f"security parameter must be at least {MIN_SECURITY}")
        if self.lam > MAX_SECURITY:
            raise ValueError(f"security parameter must be at most {MAX_SECURITY}")
        if not 1 <= self.state_bits <= MAX_STATE_BITS:
            raise ValueError(f"state_bits must be in [1, {MAX_STATE_BITS}]")
        if self.lam >= (1 << self.state_bits):
            raise ValueError("final states would cover the whole state space")
        if self.num_steps <= self.lam:
            raise ValueError("step count must exceed the challenge window")
        if self.num_steps > MAX_STEPS:
            raise ValueError("step count must be at most 2^22")
        if self.space < 2:
            raise ValueError("need at least one work cell beyond the mark")
        if self.space > MAX_SPACE:
            raise ValueError(f"space must be at most {MAX_SPACE} cells")
        if not isinstance(self.seed, bytes):
            raise ValueError("seed must be bytes")

    @property
    def num_states(self) -> int:
        return 1 << self.state_bits

    @property
    def final_states(self) -> range:
        return range(1, self.lam)

    def challenge_window(self) -> range:
        return range(self.num_steps - self.lam, self.num_steps)

    def check_challenge(self, t: int) -> None:
        if t not in self.challenge_window():
            raise ValueError(f"challenge {t} outside [{self.num_steps - self.lam}, {self.num_steps - 1}]")

    def machine(self) -> TmDescription:
        """A fresh machine each call, halting on `final_states` by range
        membership; `tm_run` reads its `delta` attribute when called.  Its
        `keyed` attribute is the rule's absorbed seed, which stays with the
        machine if `delta` is replaced by a wrapper."""
        delta = _seeded_delta(self.seed, self.state_bits)
        desc = TmDescription(self.num_states, delta, self.final_states.__contains__)
        desc.keyed = delta.keyed
        return desc


def vdf_setup(
    lam: int,
    log2_steps: int,
    space: int,
    seed: bytes | str,
    state_bits: int | None = None,
) -> VdfParams:
    """Fix parameters for runs of T = 2**log2_steps steps.

    The exponent is capped at lam so the run length stays polynomial in the
    window size, and the step count at MAX_STEPS.  The default state width,
    log2_steps + lam up to MAX_STATE_BITS, makes an early halt rare: each
    transition hits one of the lam - 1 final states with probability
    (lam - 1) / 2^state_bits, so P(halt within T) <= T (lam - 1) / 2^state_bits,
    at most (lam - 1) / 2^lam below the cap and (lam - 1) / 2^98 at it.
    """
    if isinstance(seed, str):
        seed = seed.encode()
    if log2_steps < 0:
        raise ValueError(f"log2 step count {log2_steps} is negative")
    if log2_steps > lam:
        raise ValueError(f"log2 step count {log2_steps} exceeds lam = {lam}")
    bits = min(log2_steps + lam, MAX_STATE_BITS) if state_bits is None else state_bits
    # one bit past MAX_STEPS is enough for VdfParams to refuse the count
    num_steps = 1 << min(log2_steps, MAX_STEPS.bit_length())
    return VdfParams(lam, num_steps, space, bits, seed)


# ── proofs and verdicts ────────────────────────────────────────────────────


@dataclass(frozen=True)
class VdfProof:
    """Opening at challenge t: the control state after t steps and the
    scanned symbols at offsets t..num_steps-1, one read before each step."""

    state_at_challenge: int
    scanned: tuple[int, ...]


@dataclass(frozen=True)
class VdfVerdict:
    accepted: bool
    steps: int
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


# ── evaluate / open / verify ───────────────────────────────────────────────


def vdf_eval(pp: VdfParams, x: str) -> VdfRun:
    """Run the machine on input x for the full step count, recording the
    last lam steps; output `.value`, open with `.respond(t)`."""
    return _record_window(pp, initial_configuration(x, pp.space), pp.num_steps - pp.lam)


def vdf_open(pp: VdfParams, x: str, t: int) -> VdfProof:
    """Recompute the run and reveal the suffix the challenge asks for."""
    pp.check_challenge(t)
    return vdf_eval(pp, x).respond(t)


def vdf_verify(pp: VdfParams, x: str, y: int, t: int, proof: VdfProof) -> VdfVerdict:
    """Replay the revealed suffix and compare the end state against y.

    The input x is part of the statement but the replay never consults it:
    the scanned symbols are taken from the proof on faith, which is the gap
    vdf_attack drives through.  The verdict counts the transitions replayed,
    at most `lam`; a replay that reaches a final state stops there.
    """
    if t not in pp.challenge_window():
        return VdfVerdict(False, 0, "challenge-out-of-range")
    if len(proof.scanned) != pp.num_steps - t:
        return VdfVerdict(False, 0, "trace-length")
    if not 0 <= proof.state_at_challenge < pp.num_states:
        return VdfVerdict(False, 0, "state-out-of-range")
    if any(not 0 <= s <= SYM_MARK for s in proof.scanned):
        return VdfVerdict(False, 0, "bad-symbol")
    desc = pp.machine()
    state = proof.state_at_challenge
    steps = 0
    for sym in proof.scanned:
        if desc.is_halting(state):
            break
        # the write and move have no tape to act on here; state is all the
        # verifier tracks
        state, _, _ = desc.delta(state, sym)
        steps += 1
    if state != y:
        return VdfVerdict(False, steps, "output-mismatch")
    return VdfVerdict(True, steps, None)


def sample_challenge(pp: VdfParams, rng: random.Random) -> int:
    return rng.randrange(pp.num_steps - pp.lam, pp.num_steps)


# ── recorded windows: the honest run and the break ────────────────────────


@dataclass(frozen=True)
class VdfRun:
    """A claimed run's last `lam` steps and its responder: `states[j]` is the
    state j steps into the window (the last is the output), `scanned[j]` the
    symbol that step j + 1 reads, and `steps` the transitions the run took."""

    params: VdfParams
    states: tuple[int, ...]
    scanned: tuple[int, ...]
    steps: int

    @property
    def value(self) -> int:
        return self.states[-1]

    def respond(self, t: int) -> VdfProof:
        """Answer any in-window challenge from the recorded window."""
        self.params.check_challenge(t)
        start = t - self.params.challenge_window().start
        return VdfProof(self.states[start], self.scanned[start:])


def _run_prefix(pp: VdfParams, keyed, config: TmConfiguration, steps: int) -> int:
    """`tm_run` on the seeded machine, with its rule inlined: up to `steps`
    transitions, stopping at a final state, mutating `config`; returns the
    transitions taken.

    `keyed` is the machine's absorbed seed.  Each step hashes a copy of it
    with `(q << 8) | sym` as 17 big-endian bytes, which are q's 16 bytes
    and then sym's byte, as `_seeded_delta` hashes them, and reads the
    digest the same way.  The tape holds only 0, 1 and the mark, so the
    rule's symbol check is left out.
    """
    copy = keyed.copy
    from_bytes = int.from_bytes
    lam = pp.lam
    mask = (1 << pp.state_bits) - 1
    write_shift = 128 + pp.state_bits
    state, tape, head = config.state, config.tape, config.head
    last = len(tape) - 1
    taken = steps
    for step in range(steps):
        if 0 < state < lam:
            taken = step
            break
        h = copy()
        h.update(((state << 8) | tape[head]).to_bytes(17, "big"))
        bits = from_bytes(h.digest(), "big")
        rest = bits >> write_shift
        if head:
            tape[head] = rest & 1
        state = (bits >> 128) & mask
        head += ((rest >> 1) % 3) - 1
        if head < 0:
            head = 0
        elif head > last:
            head = last
    config.state = state
    config.head = head
    return taken


def _record_window(pp: VdfParams, config: TmConfiguration, unrecorded: int) -> VdfRun:
    """Run `unrecorded` steps in `_run_prefix`, then lam single steps of
    `tm_run`, reading the scanned symbol before each one and the state
    before the first and after each.

    The window steps through `tm_run` and the machine's `delta` because
    perfbench's tracer counts live steps only as `delta` calls inside
    `tm_run`; a traced run still sees the window's.
    """
    desc = pp.machine()
    steps = _run_prefix(pp, desc.keyed, config, unrecorded)
    states, scanned = [config.state], []
    for _ in range(pp.lam):
        scanned.append(config.tape[config.head])
        steps += tm_run(desc, config, 1).steps
        states.append(config.state)
    return VdfRun(pp, tuple(states), tuple(scanned), steps)


def vdf_attack(pp: VdfParams, x: str, rng: random.Random) -> VdfRun:
    """Forge an accepting output with lam instead of num_steps steps of work.

    Start the machine in a random non-final state and record just lam steps.
    Every challenge points into the last lam steps of the claimed run, so
    this window already contains everything respond() must reveal, and the
    verifier's input-blind replay accepts it.
    """
    start = rng.randrange(pp.lam, pp.num_states)
    return _record_window(pp, initial_configuration(x, pp.space, initial_state=start), 0)


# ── wire formats ───────────────────────────────────────────────────────────


def params_to_bytes(pp: VdfParams) -> bytes:
    return (
        encode_u64(FORMAT_VERSION)
        + encode_u64(pp.lam)
        + encode_u64(pp.num_steps)
        + encode_u64(pp.space)
        + encode_u64(pp.state_bits)
        + encode_u64(len(pp.seed))
        + pp.seed
    )


def params_from_bytes(data: bytes) -> VdfParams:
    if len(data) < 48:
        raise DecodeError("truncated parameters")
    version, lam, num_steps, space, state_bits, seed_len = (
        decode_u64(data[8 * i : 8 * i + 8]) for i in range(6)
    )
    if version != FORMAT_VERSION:
        raise DecodeError(f"unsupported parameter format version {version}")
    if len(data) != 48 + seed_len:
        raise DecodeError("parameter length mismatch")
    try:
        return VdfParams(lam, num_steps, space, state_bits, data[48:])
    except ValueError as exc:
        raise DecodeError(str(exc))


def _pack_symbols(syms) -> bytes:
    out = bytearray((len(syms) + 3) // 4)
    for i, s in enumerate(syms):
        out[i >> 2] |= s << ((i & 3) << 1)
    return bytes(out)


def proof_to_bytes(pp: VdfParams, proof: VdfProof) -> bytes:
    """Challenge state big-endian, then a count and two bits per symbol,
    one symbol per replayed step."""
    width = (pp.state_bits + 7) // 8
    return (
        proof.state_at_challenge.to_bytes(width, "big")
        + len(proof.scanned).to_bytes(4, "big")
        + _pack_symbols(proof.scanned)
    )


def proof_from_bytes(pp: VdfParams, data: bytes) -> VdfProof:
    width = (pp.state_bits + 7) // 8
    if len(data) < width + 4:
        raise DecodeError("truncated proof")
    state = int.from_bytes(data[:width], "big")
    if state >= pp.num_states:
        raise DecodeError("challenge state outside the machine")
    count = int.from_bytes(data[width : width + 4], "big")
    packed = data[width + 4 :]
    if len(packed) != (count + 3) // 4:
        raise DecodeError("proof length mismatch")
    syms = []
    for i in range(count):
        s = (packed[i >> 2] >> ((i & 3) << 1)) & 3
        if s > SYM_MARK:
            raise DecodeError("bad tape symbol")
        syms.append(s)
    if _pack_symbols(syms) != packed:
        raise DecodeError("nonzero padding bits")
    return VdfProof(state, tuple(syms))
