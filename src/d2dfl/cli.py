"""Command-line interface.

Subcommands:
  run    full experiment (scenario -> links -> exchange -> FL), metrics file
  train  RL graph discovery only, metrics file with the episode trace
  sweep  repeat `run` while varying one config key over a list of values

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, ScenarioConfig, load_config, with_overrides
from .experiment import (
    discover_links,
    emit_metrics,
    links_json,
    reward_weights_from,
    rl_records,
    run_experiment,
    sweep_experiment,
)
from .scenario import generate_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dfl",
        description="Simulate learned device-to-device exchange graphs for federated learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="path to INI config (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="metrics.csv", help="metrics output path")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    run_p = sub.add_parser("run", help="run one full experiment")
    common(run_p)

    train_p = sub.add_parser("train", help="run RL graph discovery only")
    common(train_p)

    sweep_p = sub.add_parser("sweep", help="vary one config key over a list")
    common(sweep_p)
    sweep_p.add_argument("--key", required=True, help="config key to vary, e.g. tau_a")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated values, e.g. 1,5,10,20"
    )
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = with_overrides(cfg, seed=args.seed)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg)
    emit_metrics(result.records, args.out, args.format)
    print(json.dumps(result.summary, indent=2))
    return 0


def _cmd_train(args) -> int:
    cfg = _load(args)
    if cfg.baseline != "rl":
        cfg = with_overrides(cfg, baseline="rl")
    scenario = generate_scenario(cfg)
    links, rl_result = discover_links(cfg, scenario)
    weights = reward_weights_from(cfg, scenario.partition.k)
    budgets = weights.budget_array(scenario.partition.k)
    records = rl_records(rl_result, f"train-s{cfg.seed}", budgets)
    emit_metrics(records, args.out, args.format)
    print(
        json.dumps(
            {
                "links": links_json(links),
                "episodes": cfg.episodes,
                "final_mean_reward": records[-1].mean_reward if records else None,
            },
            indent=2,
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    values = [v for v in args.values.split(",") if v]
    records, summaries = sweep_experiment(cfg, args.key, values)
    emit_metrics(records, args.out, args.format)
    print(json.dumps(summaries, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "train": _cmd_train, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface stage failures as exit 2
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
