"""The four workloads: inputs made from a seed, and the checks on each call.

Every call goes through `seqproof.cli.main(argv)`.  A workload builds its
input files in setup, lists the calls of one cycle, checks each call's exit
status and output as it returns, and runs its slower reference checks after
the timed phase (`reference`), so they never count as measured work.  The
references come from outside the timed code path: brute-force QBF truth, an
untimed re-verify or re-evaluation, the soundness gate recomputed here, and a
challenge recomputed here from the bundle bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

# the token a call's argv carries where it writes its own output file
OUT = "{out}"


@dataclass
class Op:
    """One CLI call of a cycle and what it must produce."""

    argv: list[str]
    expect: str = "ok"  # ok | reject | forge | collision | unread
    units: int = 1
    # file read or written (OUT: the call's own output file; "stdout": the report)
    artifact: str | None = None
    ref: tuple = ()  # inputs the reference check needs


@dataclass(slots=True)
class Record:
    """The outcome of one timed call (kept small: a run holds thousands)."""

    op: Op
    rc: int | None
    out: str
    artifact: str | None
    artifact_bytes: int
    failure: str | None = None


def call_cli(sp, argv) -> tuple[int | None, str, str, str | None]:
    """(exit status, stdout, stderr, failure) of one in-process CLI call.

    A clean exit is main() returning; a SystemExit (argparse) or an
    exception escaping main() is a failure.
    """
    out, err = io.StringIO(), io.StringIO()
    failure = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sp.cli.main(argv)
        except SystemExit as exc:
            failure = f"SystemExit({exc.code})"
        except Exception:
            failure = "traceback: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return rc, out.getvalue(), err.getvalue(), failure


def _fields(text: str) -> dict[str, str]:
    """'key value' lines of CLI output as a dict (first word is the key)."""
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, rest)
    return out


def _true_formulas(sp, rng: random.Random, n: int, m: int, count: int) -> list:
    """Seeded random formulas that brute force says are true.

    False draws are skipped because the workload proves true statements;
    a true formula is never skipped, whatever the prover later does with it.
    """
    out = []
    while len(out) < count:
        f = sp.qbf.random_qbf(rng, n, m)
        if sp.qbf.eval_qbf_bruteforce(f):
            out.append(f)
    return out


class Workload:
    name = ""
    unit = ""  # what one work unit is
    cycle = 1  # the timed phase stops only at multiples of this many calls

    def setup(self, sp, rng: random.Random, work: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, rc: int | None, out: str, err: str) -> str | None:
        """Failure reason for one call, or None; must be cheap."""
        return None if rc == 0 else f"exit {rc}"

    def reference(self, sp, records: list[Record]) -> None:
        """Untimed reference checks; sets `failure` on records that fail."""


# ── tqbf-prove ─────────────────────────────────────────────────────────────


class TqbfProve(Workload):
    """prove-tqbf --fs --out on seeded true formulas at n=10, m=8.

    One shape keeps every proof the same amount of work, so a run's median
    call is a property of the prover rather than of which formulas were drawn.
    """

    name = "tqbf-prove"
    unit = "proof"
    NUM_VARS = 10
    NUM_CLAUSES = 8
    POOL = 16

    def setup(self, sp, rng, work):
        ops = []
        for i, f in enumerate(_true_formulas(sp, rng, self.NUM_VARS, self.NUM_CLAUSES, self.POOL)):
            path = work / f"formula-{i}.qdimacs"
            path.write_text(sp.qbf.to_qdimacs(f))
            ops.append(
                Op(["prove-tqbf", "--in", str(path), "--fs", "--out", OUT], artifact=OUT, ref=(str(path),))
            )
        return ops

    def check(self, op, rc, out, err):
        if rc == 1 and "formula is false" in err:
            return "true formula reported false"
        if rc != 0 or "wrote " not in out:
            return f"exit {rc}"
        return None

    def reference(self, sp, records):
        for rec in records:
            if rec.failure is None:
                argv = ["verify-tqbf", "--in", rec.op.ref[0], "--transcript", rec.artifact]
                rc, out, _, _ = call_cli(sp, argv)
                if rc != 0 or not out.startswith("accepted"):
                    rec.failure = f"transcript not accepted: {out.strip()}"


# ── soundness ──────────────────────────────────────────────────────────────


class Soundness(Workload):
    """exp soundness --json at criterion 4's two shapes.

    A cycle is one n=1 call and two n=2 calls, so the median call always
    falls among the n=2 calls rather than between the two shapes, where it
    would swing with the slowest n=1 and the fastest n=2 call.

    Each call's exit status must agree with its own gate (accept rate <=
    bound + 3 sigma), recomputed here, and every honest control must be
    accepted.  The wrong-claim prover's accept rate sits at the bound
    (1.83% +- 0.07% over 40000 trials at n=1, bound 1.79%), so that gate
    fires by chance on a fraction of a percent of calls; such a call is a
    correct report, not a failure.  Soundness itself is checked on the
    accepts pooled over the run: a rate above bound + 4 sigma fails every
    call of that shape.
    """

    name = "soundness"
    unit = "trial"
    SHAPES = ((1, 1, 223), (2, 2, 1009), (2, 2, 1009))
    TRIALS = 1000  # the experiment's minimum
    STRATEGIES = 3  # the experiment's default strategy list
    CONTROL_TRIALS = 200  # the experiment's honest-control count
    POOL = 30
    cycle = 3

    def setup(self, sp, rng, work):
        ops = []
        for i in range(self.POOL):
            n, m, p = self.SHAPES[i % len(self.SHAPES)]
            argv = ["exp", "soundness", "--n", str(n), "--m", str(m), "--prime", str(p)]
            argv += ["--trials", str(self.TRIALS), "--seed", str(rng.randrange(1 << 31)), "--json"]
            units = self.STRATEGIES * self.TRIALS + self.CONTROL_TRIALS
            ops.append(Op(argv, units=units, artifact="stdout", ref=(n, m, p)))
        return ops

    @staticmethod
    def _bound(n, m, p, trials, sigmas):
        bound = (3 * m * n + n * n) / p
        return bound + sigmas * math.sqrt(bound * (1 - bound) / trials)

    def check(self, op, rc, out, err):
        try:
            report = json.loads(out)
            strategies = report["metrics"]["strategies"]
            control = report["metrics"]["control_accepted"]
        except (ValueError, KeyError):
            return f"no report (exit {rc})"
        if len(strategies) != self.STRATEGIES:
            return "wrong strategy count"
        if control != self.CONTROL_TRIALS:
            return "honest control rejected"
        threshold = self._bound(*op.ref, self.TRIALS, 3)
        within = all(row["accepted"] / self.TRIALS <= threshold for row in strategies.values())
        if rc != (0 if within else 1):
            return f"exit {rc} disagrees with the gate"
        return None

    def reference(self, sp, records):
        pooled: dict[tuple, list[int]] = {}
        for rec in records:
            if rec.failure is None:
                for name, row in json.loads(rec.out)["metrics"]["strategies"].items():
                    counts = pooled.setdefault((rec.op.ref, name), [0, 0])
                    counts[0] += row["accepted"]
                    counts[1] += self.TRIALS
        for (shape, name), (accepted, trials) in pooled.items():
            if accepted / trials > self._bound(*shape, trials, 4):
                for rec in records:
                    if rec.op.ref == shape:
                        rec.failure = f"{name} accepted {accepted} of {trials} pooled"


# ── vdf ────────────────────────────────────────────────────────────────────


class Vdf(Workload):
    """vdf open with the hashed challenge at lambda=32, T=2^16, space 32.

    At lambda=32 the seeded machine does not reach a final state within T
    steps, so every counted step is a live transition.
    """

    name = "vdf"
    unit = "opening"
    LAM = 32
    LOG2T = 16
    SPACE = 32
    PARAMS = 4
    POOL = 8  # distinct inputs; each needs an untimed reference eval

    def setup(self, sp, rng, work):
        pps = []
        for k in range(self.PARAMS):
            pp = sp.shvdf.vdf_setup(self.LAM, self.LOG2T, self.SPACE, f"bench-{rng.randrange(1 << 62)}")
            path = work / f"pp-{k}.bin"
            path.write_bytes(sp.shvdf.params_to_bytes(pp))
            pps.append(str(path))
        ops = []
        for i in range(self.POOL):
            x = "".join(rng.choice("01") for _ in range(self.SPACE - 1))
            pp = pps[i % self.PARAMS]
            ops.append(
                Op(["vdf", "open", "--pp", pp, "--input", x, "--proof", OUT], artifact=OUT, ref=(pp, x))
            )
        return ops

    def check(self, op, rc, out, err):
        if rc != 0:
            return f"exit {rc}"
        fields = _fields(out)
        try:
            challenge = int(fields["challenge"])
            int(fields["value"])
        except (KeyError, ValueError):
            return "unreadable open output"
        steps = 1 << self.LOG2T
        if not steps - self.LAM <= challenge < steps:
            return f"challenge {challenge} outside the window"
        return None

    def reference(self, sp, records):
        values: dict[tuple, str] = {}
        for rec in records:
            if rec.failure is not None:
                continue
            pp, x = rec.op.ref
            if (pp, x) not in values:
                rc, out, _, _ = call_cli(sp, ["vdf", "eval", "--pp", pp, "--input", x])
                values[pp, x] = _fields(out).get("value") if rc == 0 else None
            if _fields(rec.out).get("value") != values[pp, x]:
                rec.failure = "opened value differs from a plain eval"
                continue
            rc, out, _, _ = call_cli(sp, ["vdf", "verify", "--proof", rec.artifact, "--pp", pp, "--input", x])
            if rc != 0:
                rec.failure = f"opening not accepted: {out.strip()}"


# ── verify ─────────────────────────────────────────────────────────────────


def _frames(data: bytes) -> list[tuple[int, int, int]]:
    """(tag, payload start, payload end) of each message after the magic."""
    out, pos = [], 8
    while pos < len(data):
        length = int.from_bytes(data[pos + 1 : pos + 5], "big")
        out.append((data[pos], pos + 5, pos + 5 + length))
        pos += 5 + length
    return out


def _flip(data: bytes, byte: int, bit: int) -> bytes:
    out = bytearray(data)
    out[byte] ^= 1 << bit
    return bytes(out)


def _proof_layout(bundle: bytes) -> tuple[int, int, int, int]:
    """(challenge state start, its width, packed symbols start, symbol count).

    Read from the documented framing: the proof message holds the challenge
    state in ceil(state_bits / 8) bytes, a four-byte count, then two bits per
    scanned symbol, the first symbol in the lowest bits.
    """
    frames = {tag: (a, b) for tag, a, b in _frames(bundle)}
    pp = frames[0x10][0]
    width = (int.from_bytes(bundle[pp + 32 : pp + 40], "big") + 7) // 8
    state = frames[0x14][0]
    count = int.from_bytes(bundle[state + width : state + width + 4], "big")
    return state, width, state + width + 4, count


def _vdf_challenge(bundle: bytes) -> tuple[int, int]:
    """(recorded challenge, challenge the hash gives) for a bundle file.

    Recomputed here from the documented framing: sha256 over the domain
    separator and the parameter, input and output messages, reduced into
    the last lambda steps.
    """
    frames = _frames(bundle)
    payload = {tag: bundle[a:b] for tag, a, b in frames}
    framed = b"".join(bytes([tag]) + (b - a).to_bytes(4, "big") + bundle[a:b] for tag, a, b in frames[1:4])
    pp = payload[0x10]
    lam = int.from_bytes(pp[8:16], "big")
    steps = int.from_bytes(pp[16:24], "big")
    digest = hashlib.sha256(b"SHVDF-v1" + framed).digest()
    return int.from_bytes(payload[0x13], "big"), steps - lam + int.from_bytes(digest, "big") % lam


class Verify(Workload):
    """verify-tqbf, vdf verify and vdf attack on artifacts made in setup.

    Honest transcripts and bundles must be accepted, one-bit-tampered ones
    must end in a clean exit 1, and forgeries must be accepted (the shipped
    break).  Two tampered bundles are told apart and counted in the report:

    - a flipped input bit changes the hashed challenge, which lands on the
      recorded one with probability 1/lambda; that collision must then be
      accepted, since the replay never reads the input;
    - the replay never reads the last scanned symbol of the proof, so a
      bundle whose last symbol is flipped (one tamper kind always does so,
      a flip anywhere in the symbols sometimes) is accepted by the current
      format.  Either clean verdict passes, and the accepts are counted, so
      the defect and a later fix both show.
    """

    name = "verify"
    unit = "verdict"
    TQBF_SHAPES = ((7, 5), (8, 5), (9, 5))
    TQBF_PER_SHAPE = 2
    LAM = 32
    BUNDLE_LOG2T = 12  # verify replays at most lambda steps whatever T is
    ATTACK_LOG2T = 16
    SPACE = 32
    BUNDLES = 6
    TAMPER_KINDS = ("input", "output", "input", "state", "symbols", "last-symbol")
    ATTACKS = 4
    cycle = 2 * len(TQBF_SHAPES) * TQBF_PER_SHAPE + 2 * BUNDLES + ATTACKS

    def setup(self, sp, rng, work):
        ops = []
        for n, m in self.TQBF_SHAPES:
            for f in _true_formulas(sp, rng, n, m, self.TQBF_PER_SHAPE):
                i = len(ops) // 2
                formula = work / f"formula-{i}.qdimacs"
                formula.write_text(sp.qbf.to_qdimacs(f))
                honest = work / f"transcript-{i}.sqp"
                sp.noninteractive.save_transcript(honest, sp.noninteractive.fs_prove_tqbf(f))
                data = honest.read_bytes()
                a, b = rng.choice([(a, b) for tag, a, b in _frames(data) if tag in (0x04, 0x05, 0x06)])
                tampered = work / f"transcript-{i}-tampered.sqp"
                tampered.write_bytes(_flip(data, rng.randrange(a, b), rng.randrange(8)))
                for path, expect in ((honest, "ok"), (tampered, "reject")):
                    argv = ["verify-tqbf", "--in", str(formula), "--transcript", str(path)]
                    ops.append(Op(argv, expect=expect, artifact=str(path)))
        for k in range(self.BUNDLES):
            pp = sp.shvdf.vdf_setup(self.LAM, self.BUNDLE_LOG2T, self.SPACE, f"bench-{rng.randrange(1 << 62)}")
            x = "".join(rng.choice("01") for _ in range(self.SPACE - 1))
            honest = work / f"bundle-{k}.bin"
            sp.noninteractive.save_bundle(honest, sp.noninteractive.fs_vdf_open(pp, x))
            data = honest.read_bytes()
            frames = {tag: (a, b) for tag, a, b in _frames(data)}
            kind = self.TAMPER_KINDS[k % len(self.TAMPER_KINDS)]
            if kind == "input":
                # bit 0 turns an ASCII '0' into '1' and back: a valid other input
                a, b = frames[0x11]
                tampered_data = _flip(data, rng.randrange(a, b), 0)
                recorded, derived = _vdf_challenge(tampered_data)
                expect = "collision" if recorded == derived else "reject"
            elif kind == "output":
                a, b = frames[0x12]
                tampered_data = _flip(data, rng.randrange(a, b), rng.randrange(8))
                expect = "reject"
            elif kind == "state":
                a, width, _, _ = _proof_layout(data)
                tampered_data = _flip(data, rng.randrange(a, a + width), rng.randrange(8))
                expect = "reject"
            else:
                _, _, start, count = _proof_layout(data)
                if kind == "symbols":
                    pos = rng.randrange(8 * (frames[0x14][1] - start))
                else:  # the last symbol, to another valid symbol (0, 1 or 2)
                    old = data[start + (count - 1) // 4] >> ((count - 1) % 4 * 2) & 3
                    pos = 2 * (count - 1) + rng.choice([k for k in (0, 1) if old ^ (1 << k) <= 2])
                tampered_data = _flip(data, start + pos // 8, pos % 8)
                index = pos // 2
                symbol = tampered_data[start + index // 4] >> (index % 4 * 2) & 3
                # a padding bit or the invalid code 3 is a decode error
                expect = "unread" if index == count - 1 and symbol <= 2 else "reject"
            tampered = work / f"bundle-{k}-tampered.bin"
            tampered.write_bytes(tampered_data)
            for path, exp in ((honest, "ok"), (tampered, expect)):
                ops.append(Op(["vdf", "verify", "--proof", str(path)], expect=exp, artifact=str(path)))
        pp = sp.shvdf.vdf_setup(self.LAM, self.ATTACK_LOG2T, self.SPACE, f"bench-{rng.randrange(1 << 62)}")
        pp_path = work / "pp-attack.bin"
        pp_path.write_bytes(sp.shvdf.params_to_bytes(pp))
        for k in range(self.ATTACKS):
            x = "".join(rng.choice("01") for _ in range(self.SPACE - 1))
            proof = str(work / f"forgery-{k}.bin")
            argv = ["vdf", "attack", "--pp", str(pp_path), "--input", x]
            argv += ["--seed", str(rng.randrange(1 << 31)), "--proof", proof]
            ops.append(Op(argv, expect="forge", artifact=proof))
        return ops

    def check(self, op, rc, out, err):
        if op.expect == "reject":
            return None if rc == 1 else f"tampered artifact gave exit {rc}"
        if op.expect == "unread":
            return None if rc == 1 or (rc == 0 and out.startswith("accepted")) else f"exit {rc}"
        if op.expect == "forge":
            return None if rc == 0 and "forged opening accepted" in out else f"forgery not accepted (exit {rc})"
        if rc != 0 or not out.startswith("accepted"):
            return f"not accepted (exit {rc})"
        return None


WORKLOADS = {w.name: w for w in (TqbfProve(), Soundness(), Vdf(), Verify())}
