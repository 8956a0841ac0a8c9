"""Traced run: spans and counters recorded around seqproof's public functions.

Nothing here changes the program.  `install` rebinds each wrapped function
in every seqproof module that holds a reference to it (so a caller that did
`from .field import lagrange_interpolate` sees the wrapper too), and patches
methods on their classes.  Spans are kept in memory as parallel integer
arrays and written out when the run ends; self time (a span's duration minus
its children's) is accumulated as each span closes.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# spans beyond this many are folded into the totals but not kept for the file
MAX_KEPT_SPANS = 200_000

SPAN_NAMES = (
    "cli",
    "harness",
    "sumcheck.prove",
    "sumcheck.claim",
    "sumcheck.round_poly.quant",
    "sumcheck.round_poly.lin",
    "sumcheck.round_poly.final",
    "sumcheck.chain_value",
    "sumcheck.verify",
    "field.interpolate",
    "field.is_prime",
    "fiatshamir.ro",
    "fiatshamir.decode",
    "noninteractive.encode",
    "noninteractive.decode",
    "qbf.parse",
    "qbf.to_qdimacs",
    "turing.run",
    "shvdf.eval",
    "shvdf.open",
    "shvdf.verify",
    "shvdf.attack",
)


class Recorder:
    """Spans (name, start, end, parent, op id) and named counters."""

    def __init__(self):
        self.op_id = 0
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self._name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._name = array("b")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._stack: list[list] = []  # [span index, name, start, child ns]
        self.dropped = 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self._start)
        if index < MAX_KEPT_SPANS:
            self._name.append(self._name_id[name])
            self._start.append(0)
            self._end.append(0)
            self._parent.append(parent)
            self._op.append(self.op_id)
        else:
            index = -1
            self.dropped += 1
        self._stack.append([index, name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        index, name, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self._start[index] = start
            self._end[index] = end

    def write(self, path: Path) -> None:
        """One line per kept span: name, start ns, end ns, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{SPAN_NAMES[self._name[i]]}\t{self._start[i]}\t{self._end[i]}"
                    f"\t{self._parent[i]}\t{self._op[i]}\n"
                )


def _seqproof_modules():
    return [m for name, m in sys.modules.items() if name == "seqproof" or name.startswith("seqproof.")]


class Tracer:
    """Installs the wrappers for one Recorder and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    # ── wrapping helpers ───────────────────────────────────────────────────

    def _span(self, fn, name, after=None, name_of=None, on_error=None):
        rec = self.rec

        def wrapper(*args, **kwargs):
            rec.enter(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec.exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every seqproof module-level name bound to original at wrapper."""
        for mod in _seqproof_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ── the layers ─────────────────────────────────────────────────────────

    def install(self, sp) -> None:
        """Wrap the public functions of each seqproof module (sp holds them)."""
        rec, counts = self.rec, self.rec.counts
        span, rebind = self._span, self._rebind

        rebind(sp.cli.main, span(sp.cli.main, "cli"))
        rebind(sp.harness.exp_soundness, span(sp.harness.exp_soundness, "harness"))

        # field
        rebind(sp.field.lagrange_interpolate, span(sp.field.lagrange_interpolate, "field.interpolate"))
        rebind(sp.field.is_prime, span(sp.field.is_prime, "field.is_prime"))

        # sumcheck
        sc = sp.sumcheck

        def round_kind(args):
            ops, k, _bindings, _f, formula = args
            op = ops[k]
            if op.kind is not sc.OpKind.LIN:
                return "sumcheck.round_poly.quant"
            return "sumcheck.round_poly.final" if op.block == formula.num_vars else "sumcheck.round_poly.lin"

        rebind(sc.compute_round_poly, span(sc.compute_round_poly, None, name_of=round_kind))

        def prover_made(args, _result):
            counts["sumcheck.cube_points"] += 1 << args[1].num_vars

        self._patch(
            sc.HonestProver,
            "__init__",
            span(sc.HonestProver.__init__, "sumcheck.claim", after=prover_made),
        )

        evaluate = sc.ArithPoly.evaluate

        def counted_evaluate(self_, point):
            counts["sumcheck.f_evals"] += 1
            return evaluate(self_, point)

        self._patch(sc.ArithPoly, "evaluate", counted_evaluate)

        last_cheat = []

        def cheat_done(_args, transcript):
            counts["harness.trials"] += 1
            last_cheat[:] = [transcript]

        rebind(sc.sumcheck_prove, span(sc.sumcheck_prove, "sumcheck.prove"))
        rebind(sc.cheat_prover, span(sc.cheat_prover, "sumcheck.prove", after=cheat_done))

        def verdict(args, result):
            if not result.accepted:
                counts["sumcheck.verify.rejects"] += 1
            elif last_cheat and args[2] is last_cheat[0]:
                counts["harness.cheat_accepts"] += 1

        rebind(sc.sumcheck_verify, span(sc.sumcheck_verify, "sumcheck.verify", after=verdict))

        def chain_done(_args, value):
            counts["harness.control_draws"] += 1
            if value == 0:
                counts["harness.control_zero_draws"] += 1

        rebind(sc.chain_value, span(sc.chain_value, "sumcheck.chain_value", after=chain_done))

        # fiatshamir
        fs = sp.fiatshamir

        def hashed(args, _result):
            spec, transcript = args[0], args[1]
            counts["fiatshamir.ro.bytes_hashed"] += len(spec.domain_separator) + len(transcript)

        rebind(fs.ro_challenge, span(fs.ro_challenge, "fiatshamir.ro", after=hashed))
        rebind(fs.transcript_decode, span(fs.transcript_decode, "fiatshamir.decode"))
        rebind(fs.decode_poly, span(fs.decode_poly, "fiatshamir.decode"))

        # noninteractive
        ni = sp.noninteractive

        def decode_failed(exc):
            if isinstance(exc, fs.DecodeError):
                counts["noninteractive.decode_errors"] += 1

        for fn in (ni.transcript_to_bytes, ni.bundle_to_bytes):
            rebind(fn, span(fn, "noninteractive.encode"))
        for fn in (ni.transcript_from_bytes, ni.bundle_from_bytes):
            rebind(fn, span(fn, "noninteractive.decode", on_error=decode_failed))

        # qbf
        rebind(sp.qbf.parse_qbf, span(sp.qbf.parse_qbf, "qbf.parse"))
        rebind(sp.qbf.to_qdimacs, span(sp.qbf.to_qdimacs, "qbf.to_qdimacs"))

        # turing: live steps are transition-rule calls made inside tm_run
        def ran(_args, result):
            counts["turing.steps.executed"] += result.steps

        rebind(sp.turing.tm_run, span(sp.turing.tm_run, "turing.run", after=ran))

        machine = sp.shvdf.VdfParams.machine

        def counted_machine(pp):
            desc = machine(pp)
            delta = desc.delta
            stack = rec._stack

            def counted_delta(q, sym):
                if stack and stack[-1][1] == "turing.run":
                    counts["turing.steps.live"] += 1
                return delta(q, sym)

            desc.delta = counted_delta
            return desc

        self._patch(sp.shvdf.VdfParams, "machine", counted_machine)

        # shvdf
        sv = sp.shvdf

        def verify_steps(_args, result):
            counts["shvdf.verify.steps"] += result.steps

        attack_op = [-1]

        def attacked(_args, forgery):
            counts["shvdf.attack.steps"] += forgery.steps
            counts["shvdf.attacks"] += 1
            attack_op[0] = rec.op_id

        rebind(sv.vdf_eval, span(sv.vdf_eval, "shvdf.eval"))
        rebind(sv.vdf_open, span(sv.vdf_open, "shvdf.open"))
        rebind(sv.vdf_verify, span(sv.vdf_verify, "shvdf.verify", after=verify_steps))
        rebind(sv.vdf_attack, span(sv.vdf_attack, "shvdf.attack", after=attacked))
        # fs_vdf_verify is not a layer span; it only tells forged verdicts apart
        fs_verify = ni.fs_vdf_verify

        def fs_verify_counted(bundle):
            result = fs_verify(bundle)
            if attack_op[0] == rec.op_id and result.accepted:
                counts["shvdf.forgeries_accepted"] += 1
            return result

        rebind(fs_verify, fs_verify_counted)


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_unit") or name == "work":
        return "count"
    return "ratio"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, call_ns: int, work: int, overhead_pct: float) -> tuple[dict, dict]:
    """(per-layer metrics as named in BENCHMARK.json, raw per-span totals).

    Counts are given per work unit, so on a given seed they repeat exactly
    however fast the run went.  Self time is given as a share of the time
    spent inside CLI calls in the traced phase, so that it compares across
    runs and CPU speeds; the raw seconds are in the second dict.
    """
    c, calls, self_ns = rec.counts, rec.calls, rec.self_ns
    live = c["turing.steps.live"]
    counts = {
        "field.interpolate.calls": calls["field.interpolate"],
        "field.is_prime.calls": calls["field.is_prime"],
        "sumcheck.f_evals": c["sumcheck.f_evals"],
        "sumcheck.round_poly.quant.calls": calls["sumcheck.round_poly.quant"],
        "sumcheck.round_poly.lin.calls": calls["sumcheck.round_poly.lin"],
        "sumcheck.round_poly.final.calls": calls["sumcheck.round_poly.final"],
        "sumcheck.verify.calls": calls["sumcheck.verify"],
        "sumcheck.verify.rejects": c["sumcheck.verify.rejects"],
        "fiatshamir.ro.calls": calls["fiatshamir.ro"],
        "fiatshamir.ro.bytes_hashed": c["fiatshamir.ro.bytes_hashed"],
        "noninteractive.decode_errors": c["noninteractive.decode_errors"],
        "qbf.parse.calls": calls["qbf.parse"],
        "qbf.to_qdimacs.calls": calls["qbf.to_qdimacs"],
        "turing.run.calls": calls["turing.run"],
        "turing.steps.live": live,
        "turing.steps.absorbed": c["turing.steps.executed"] - live,
        "shvdf.verify.steps": c["shvdf.verify.steps"],
        "shvdf.attack.steps": c["shvdf.attack.steps"],
        "harness.trials": c["harness.trials"],
        "harness.cheat_accepts": c["harness.cheat_accepts"],
        "cli.calls": calls["cli"],
    }
    m = {"work": work, "tracing_overhead_pct": overhead_pct}
    m.update({f"{name}_per_unit": _ratio(v, work) for name, v in counts.items()})
    m.update(
        {
            "sumcheck.f_evals_per_cube_point": _ratio(c["sumcheck.f_evals"], c["sumcheck.cube_points"]),
            "turing.live_step_ratio": _ratio(live, c["turing.steps.executed"]),
            "turing.live_steps_per_s": _ratio(live * 1e9, self_ns["turing.run"]),
            "shvdf.forgery_accept_ratio": _ratio(c["shvdf.forgeries_accepted"], c["shvdf.attacks"]),
            "harness.control_redraws": _ratio(
                c["harness.control_zero_draws"],
                c["harness.control_draws"] - c["harness.control_zero_draws"],
            ),
        }
    )
    m.update({f"{name}.self_pct": 100.0 * _ratio(self_ns[name], call_ns) for name in SPAN_NAMES})
    m["outside_spans_pct"] = 100.0 * _ratio(call_ns - sum(self_ns.values()), call_ns)
    raw = {
        name: {"calls": calls[name], "self_s": self_ns[name] / 1e9}
        for name in SPAN_NAMES
        if calls[name]
    }
    raw["turing.ns_per_live_step"] = _ratio(self_ns["turing.run"], live)
    return m, raw
