"""Steadiness check: two independent sets of runs of one commit, compared.

    python3 perfbench/steady.py [--out FILE]

Run from the root of a checkout.  For each of the two sets and every
workload in BENCHMARK.json it runs the benchmark command ten times, each
with another seed (the sets use disjoint seeds), with tracing off.  For
every end-to-end metric it prints each set's median and spread (the
distance between the first and third quartile as a share of the median)
and the second set's drift from the first in the metric's worse direction,
all against the metric's bound.  A metric fails when either spread or the
drift exceeds the bound, set-up time included; it is flagged "wide" when a
spread is above a third of the bound.  Exit status 1 means some metric
failed or some run reported a failure.

With --out the figures (per-set medians and spreads, the median over all
runs, drift and bound for every metric), the report-line counters summed
over all runs, and one traced run per workload are written as JSON: this is
how perfbench/BASELINE.json is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
RUNS = 10  # per set and workload
SETS = 2


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    change = (second - first) / first
    return change if better == "lower" else -change


# report-line counters summed over the runs into the baseline
COUNTERS = ("collisions", "unread_symbol_calls", "unread_symbol_accepts", "clean_exit_1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the figures here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(SETS)] for w in names}
    calls = {w: [0, 0] for w in names}  # attempted, failed
    counters = {w: dict.fromkeys(COUNTERS, 0) for w in names}
    ok = True
    env = None
    for s in range(SETS):
        for w in names:
            for r in range(RUNS):
                seed = 1000 * s + r + 1
                result, report = run_once(spec, w, seed, 0)
                env = {k: v for k, v in report["env"].items() if k not in ("workload", "seed")}
                calls[w][0] += result["attempted"]
                calls[w][1] += result["failed"]
                for k in COUNTERS:
                    counters[w][k] += report[k]
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{w} seed {seed}: {result['failed']} failed: {report['failures']}")
                for m in metrics:
                    values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
                figures = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics)
                print(f"set {s + 1} {w} seed {seed}: {figures}", file=sys.stderr, flush=True)

    print(f"{'workload':<11} {'metric':<15} {'medians':<22} {'spreads':<14} {'drift':>7} {'bound':>6}  verdict")
    figures = {w: {} for w in names}
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first, second = values[w]
            medians = [statistics.median(first[name]), statistics.median(second[name])]
            spreads = [spread(first[name]), spread(second[name])]
            drift = worse_by(medians[0], medians[1], m["better"])
            failed = drift > bound or max(spreads) > bound
            ok = ok and not failed
            verdict = "FAIL" if failed else ("wide" if max(spreads) > bound / 3 else "ok")
            print(
                f"{w:<11} {name:<15} {' '.join(f'{x:.6g}' for x in medians):<22} "
                f"{' '.join(f'{x:.4f}' for x in spreads):<14} {drift:>7.4f} {bound:>6}  {verdict}"
            )
            figures[w][name] = {
                "median": statistics.median(first[name] + second[name]),
                "set_medians": medians,
                "set_spreads": spreads,
                "drift": drift,
                "bound": bound,
            }

    if args.out:
        baseline = {"env": env, "runs_per_set": RUNS, "sets": SETS, "workloads": {}}
        for w in names:
            traced, report = run_once(spec, w, 1, 1)
            baseline["workloads"][w] = {
                "work_unit": report["work_unit"],
                "end_to_end": figures[w],
                "fail_ratio": calls[w][1] / calls[w][0],
                "counters": counters[w],
                "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        Path(args.out).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
