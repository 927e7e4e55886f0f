#!/usr/bin/env python3
"""Run the learned graph against the uniform and no-exchange baselines.

Prints a per-seed table and the seed means for final accuracy, mean link
success probability over chosen links, delivered data points, and cumulative
D2D / D2S energy.

Usage: python3 scripts/compare_baselines.py [--config cfg.ini] [--seeds 10]
       [--seed-start 0]

Runs seeds seed-start .. seed-start + seeds - 1. Exits 1 with a
`config error: ...` message when the config cannot be loaded or a seed is
invalid, as `d2dfl` does.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from d2dfl.config import ConfigError, ScenarioConfig, load_config, with_overrides
from d2dfl.experiment import run_experiments

BASELINES = ("rl", "uniform", "none")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", help="INI config (defaults if omitted)")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, at least 1")
    parser.add_argument("--seed-start", type=int, default=0, help="first seed")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1 (got {args.seeds})")
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    try:
        base = load_config(args.config) if args.config else ScenarioConfig()
        configs = {b: [with_overrides(base, baseline=b, seed=s) for s in seeds] for b in BASELINES}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    # Each baseline's seeds run as one batch; rows print seed by seed.
    rows = {b: [r.summary for r in run_experiments(configs[b])] for b in BASELINES}
    print(f"{'seed':>4} {'baseline':>8} {'accuracy':>9} {'success':>8} {'points':>7} "
          f"{'d2d_J':>10} {'d2s_J':>10}")
    for i, seed in enumerate(seeds):
        for baseline in BASELINES:
            summary = rows[baseline][i]
            print(
                f"{seed:>4} {baseline:>8} {summary['final_accuracy']:>9.4f} "
                f"{summary['mean_link_success']:>8.3f} {summary['points_delivered']:>7.0f} "
                f"{summary['d2d_energy_j']:>10.3e} {summary['d2s_energy_j']:>10.3e}"
            )
    print("-" * 62)
    for baseline in BASELINES:
        mean = {
            key: np.mean([s[key] for s in rows[baseline]])
            for key in ("final_accuracy", "mean_link_success", "points_delivered",
                        "d2d_energy_j", "d2s_energy_j")
        }
        print(
            f"mean {baseline:>8} {mean['final_accuracy']:>9.4f} "
            f"{mean['mean_link_success']:>8.3f} {mean['points_delivered']:>7.0f} "
            f"{mean['d2d_energy_j']:>10.3e} {mean['d2s_energy_j']:>10.3e}"
        )
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
