"""seqproof benchmark: one workload, one closed-loop client, in-process CLI calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a seqproof checkout; the program is imported from its
`src/` directory.  Every call goes through `seqproof.cli.main(argv)` with
stdout and stderr captured, one call after another in this one process.

Set-up (import plus input generation) is done several times and the median
is reported.  The timed phase then calls the CLI until `--seconds` have passed,
stopping only at the end of a workload cycle so every run covers the same
mix of calls.  Each call's output is checked; slower reference checks run
after the timed phase.

Times are reported at a reference CPU speed (see speed.py): on a shared
host the raw times drift with the neighbours' load.  The raw times are in
the report line.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` an untraced phase runs first, then a phase with the tracing
wrappers installed, and the last line reports the per-layer metrics and the
tracing overhead (the gap in work per second between the two phases).  The
spans of the traced phase are written to `.perfbench/spans-<workload>.tsv`.

The line before the last one is the report: environment, sample counts,
failure ratio and reasons, raw times, and the per-span seconds when traced.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedClock  # noqa: E402
from tracing import Recorder, Tracer, layer_metrics, unit_of  # noqa: E402
from workloads import OUT, WORKLOADS, Record, call_cli  # noqa: E402

ROOT = HERE.parent
MODULES = ("cli", "field", "fiatshamir", "harness", "noninteractive", "qbf", "shvdf", "sumcheck", "turing")
# set-up is repeated at least SETUP_MIN_REPEATS times and until SETUP_MIN_S
# have passed (at most SETUP_MAX_REPEATS), and the median is reported: a
# set-up of tens of milliseconds is otherwise at the mercy of one slow moment
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 1.5


class SetupError(Exception):
    pass


# ── set-up ─────────────────────────────────────────────────────────────────


def load_seqproof() -> SimpleNamespace:
    """Import seqproof afresh from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "seqproof" / "__init__.py").is_file():
        raise SetupError(f"no seqproof sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "seqproof" or n.startswith("seqproof.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"seqproof.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != (src / "seqproof").resolve():
        raise SetupError("seqproof was imported from outside ./src")
    return SimpleNamespace(**mods)


def set_up(workload, seed: int, work: Path, clock: SpeedClock):
    """Import and generate inputs several times (see SETUP_MIN_S); keep the last.

    Returns the raw and the speed-scaled time of each repeat.
    """
    raw, scaled = [], []
    while len(raw) < SETUP_MIN_REPEATS or (sum(raw) < SETUP_MIN_S and len(raw) < SETUP_MAX_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        start = clock.mark()
        sp = load_seqproof()
        ops = workload.setup(sp, random.Random(f"perfbench:{workload.name}:{seed}"), work)
        end = clock.mark()
        clock.sample()
        raw.append(clock.raw_s(start, end))
        scaled.append(clock.scaled_s(start, end))
        # the modules dropped by the next import sit in reference cycles;
        # left to pile up they would drive peak_rss_mb by the repeat count
        gc.collect()
    return sp, ops, raw, scaled


# ── the closed loop ────────────────────────────────────────────────────────


def timed_phase(sp, workload, ops, seconds: float, work: Path, first: int, clock, rec=None):
    """Call the CLI in a closed loop for `seconds`, then whole cycles only.

    Returns the records and three arrays: per call, its wall time, its time
    without the speed samples, and that time scaled to the reference speed
    (all in s).
    """
    records: list[Record] = []
    marks = array("q")  # per call: start ns, start kernel ns, end ns, end kernel ns
    i = first
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while not (i > first and (i - first) % workload.cycle == 0 and time.perf_counter_ns() >= deadline):
        op = ops[(i - first) % len(ops)]
        artifact = op.artifact
        argv = op.argv
        if artifact == OUT:
            artifact = str(work / "out" / f"{i}.bin")
            argv = [artifact if a == OUT else a for a in argv]
        if rec is not None:
            rec.op_id = i
        start = clock.mark()
        rc, out, err, failure = call_cli(sp, argv)
        marks.extend(start + clock.mark())
        failure = failure or workload.check(op, rc, out, err)
        records.append(Record(op, rc, out, artifact, artifact_bytes(artifact, out), failure))
        i += 1
    clock.sample()
    wall, raw, scaled = array("d"), array("d"), array("d")
    for k in range(0, len(marks), 4):
        a, b = (marks[k], marks[k + 1]), (marks[k + 2], marks[k + 3])
        wall.append((b[0] - a[0]) / 1e9)
        raw.append(clock.raw_s(a, b))
        scaled.append(clock.scaled_s(a, b))
    return records, wall, raw, scaled


def artifact_bytes(artifact: str, out: str) -> int:
    if artifact == "stdout":
        return len(out.encode())
    try:
        return os.path.getsize(artifact)
    except OSError:  # a failed call may write nothing
        return 0


def summarize(records, raw, scaled) -> dict:
    """Figures of one phase; rates and latencies use the scaled call times."""
    units = sum(r.op.units for r in records if r.failure is None)
    lat_ms = sorted(x * 1e3 for x in scaled)
    return {
        "calls": len(records),
        "failed": sum(1 for r in records if r.failure is not None),
        "work": units,
        "work_per_s": units / sum(scaled),
        "call_p50_ms": statistics.median(lat_ms),
        "call_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
        "artifact_bytes": statistics.fmean(r.artifact_bytes for r in records),
        "raw_work_per_s": units / sum(raw),
        "raw_call_p50_ms": statistics.median(raw) * 1e3,
        "slowdown": sum(raw) / sum(scaled),
    }


# ── report ─────────────────────────────────────────────────────────────────


def git_commit() -> str | None:
    """HEAD of ./.git, read from the files (the checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def failures(records) -> dict:
    reasons: dict[str, int] = {}
    for r in records:
        if r.failure is not None:
            reasons[r.failure] = reasons.get(r.failure, 0) + 1
    return reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    try:
        with SpeedClock() as clock:
            sp, ops, setup_raw, setup_scaled = set_up(workload, args.seed, work, clock)
            records, _, raw, scaled = timed_phase(sp, workload, ops, args.seconds, work, 0, clock)
            if args.trace:
                rec = Recorder()
                tracer = Tracer(rec)
                tracer.install(sp)
                try:
                    t_records, t_wall, t_raw, t_scaled = timed_phase(
                        sp, workload, ops, args.seconds, work, len(records), clock, rec
                    )
                finally:
                    tracer.uninstall()
        workload.reference(sp, records)
        plain = summarize(records, raw, scaled)
        report = {
            "env": environment(workload.name, args.seed),
            "work_unit": workload.unit,
            "setup_raw_s": setup_raw,
            "setup_scaled_s": setup_scaled,
            "untraced": plain,
            "fail_ratio": plain["failed"] / plain["calls"],
            "collisions": sum(1 for r in records if r.op.expect == "collision"),
            "unread_symbol_calls": sum(1 for r in records if r.op.expect == "unread"),
            "unread_symbol_accepts": sum(1 for r in records if r.op.expect == "unread" and r.rc == 0),
            "clean_exit_1": sum(1 for r in records if r.rc == 1 and r.failure is None),
        }
        if args.trace:
            workload.reference(sp, t_records)
            traced = summarize(t_records, t_raw, t_scaled)
            overhead = 100.0 * (plain["work_per_s"] - traced["work_per_s"]) / plain["work_per_s"]
            # the speed samples land inside spans in proportion to their time,
            # so shares are taken of the calls' wall time, samples included
            call_ns = int(sum(t_wall) * 1e9)
            metrics, raw = layer_metrics(rec, call_ns, traced["work"], overhead)
            rec.write(state / f"spans-{workload.name}.tsv")
            report.update(traced=traced, spans_dropped=rec.dropped, self_s=raw)
            records += t_records
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "work_per_s": plain["work_per_s"],
                "call_p50_ms": plain["call_p50_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "artifact_bytes": plain["artifact_bytes"],
            }
            units = {
                "setup_s": "s",
                "work_per_s": "1/s",
                "call_p50_ms": "ms",
                "peak_rss_mb": "MB",
                "artifact_bytes": "B",
            }
        report["failures"] = failures(records)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r.failure is not None)
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
