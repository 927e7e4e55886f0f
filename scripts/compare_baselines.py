#!/usr/bin/env python3
"""Run the learned graph against the uniform and no-exchange baselines.

Prints a per-seed table and the seed means for final accuracy, mean link
success probability over chosen links, delivered data points, and cumulative
D2D / D2S energy.

Usage: python3 scripts/compare_baselines.py [--config cfg.ini] [--seeds 10]
"""
from __future__ import annotations

import argparse

import numpy as np

from d2dfl.config import ScenarioConfig, load_config, with_overrides
from d2dfl.experiment import run_experiments

BASELINES = ("rl", "uniform", "none")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", help="INI config (defaults if omitted)")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    base = load_config(args.config) if args.config else ScenarioConfig()

    # Each baseline's seeds run as one batch; rows print seed by seed.
    rows = {
        b: [
            r.summary
            for r in run_experiments(
                [with_overrides(base, baseline=b, seed=seed) for seed in range(args.seeds)]
            )
        ]
        for b in BASELINES
    }
    print(f"{'seed':>4} {'baseline':>8} {'accuracy':>9} {'success':>8} {'points':>7} "
          f"{'d2d_J':>10} {'d2s_J':>10}")
    for seed in range(args.seeds):
        for baseline in BASELINES:
            summary = rows[baseline][seed]
            print(
                f"{seed:>4} {baseline:>8} {summary['final_accuracy']:>9.4f} "
                f"{summary['mean_link_success']:>8.3f} {summary['points_delivered']:>7.0f} "
                f"{summary['d2d_energy_j']:>10.3e} {summary['d2s_energy_j']:>10.3e}"
            )
    print("-" * 62)
    for baseline in BASELINES:
        acc = np.mean([s["final_accuracy"] for s in rows[baseline]])
        succ = np.mean([s["mean_link_success"] for s in rows[baseline]])
        pts = np.mean([s["points_delivered"] for s in rows[baseline]])
        print(f"mean {baseline:>8} {acc:>9.4f} {succ:>8.3f} {pts:>7.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
