#!/usr/bin/env python3
"""
The measurement harness
=======================

Each experiment returns a structured report (name, parameters, metrics,
overall pass flag) that serializes to JSON; the command-line front end
exposes the same runs.  This script exercises small configurations of
all three (soundness, delay-function cost growth, forgery), plus the
planted-size helper that maps a step budget to the smallest variable
count whose operator chain has at least that many rounds.
"""

from seqproof.harness import (
    exp_attack,
    exp_soundness,
    exp_vdf_growth,
    min_formula_vars,
)


def main():
    print("soundness sweep (n=1, m=1, p=223, 1000 trials/strategy):")
    report = exp_soundness(1, 1, 223, trials=1000, seed=1)
    for strategy, stats in report.metrics["strategies"].items():
        print(f"  {strategy:13s} rate {stats['rate']:.4f} within threshold: {stats['within_threshold']}")
    print(f"  honest controls all accepted: {report.metrics['control_accepted']}, passed={report.passed}\n")

    print("delay-function cost growth (lambda=16):")
    report = exp_vdf_growth(lam=16, log2_steps_list=(8, 9, 10), space=16, seed=3)
    for row in report.metrics["rows"]:
        print(
            f"  T=2^{row['log2_steps']}: eval {row['eval_steps']} steps, "
            f"verify {row['verify_steps']} steps, accepted={row['accepted']}"
        )
    print(f"  passed={report.passed}\n")

    print("forgery campaign (lambda=16, T=2^10, 100 instances):")
    report = exp_attack(lam=16, log2_steps=10, space=16, instances=100, seed=4)
    print(f"  metrics: {report.metrics}")
    print(f"  passed={report.passed}\n")

    print("fewest variables whose chain has at least as many rounds as the step budget:")
    for budget in (2, 9, 54, 65536):
        print(f"  {budget:6d} steps -> n = {min_formula_vars(budget)}")

    print("\nevery report above is also available as `seqproof exp ... --json`.")


if __name__ == "__main__":
    main()
