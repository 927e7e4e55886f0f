"""Experiment orchestration: scenario -> link discovery -> materialized
exchange -> federated training, with per-step metrics and energy accounting.

run_experiments is the one pipeline: run_experiment, sweep_experiment and
the CLI go through it. It trains the rl runs of a list of configs in batches
(runs sharing n_devices, n_classes, episodes and allow_no_link train as one
stacked policy table, see rl.train_runs), then finishes each run alone, in
config order.

Metrics are append-only records, one per RL episode and one per FL
aggregation round, and can be written as CSV or JSON lines with identical
fields. Output is byte-identical for equal (config, seed).
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import fl, rl
from .config import ConfigError, ScenarioConfig, _parse_value, with_overrides
from .exchange import ExchangeResult
from .network import SCALAR_BITS, energy_cost, transmit_energy
from .scenario import (
    Scenario,
    generate_scenario,
    materialize_exchange,
    named_rng,
    uniform_baseline_links,
)

CSV_HEADER = (
    "run_id",
    "phase",
    "step",
    "mean_reward",
    "mean_link_success",
    "cluster_load",
    "budget_slack",
    "test_accuracy",
    "d2d_energy_j",
    "d2s_energy_j",
    "stragglers",
)


@dataclass
class MetricsRecord:
    run_id: str
    phase: str  # "rl" or "fl"
    step: int
    mean_reward: float | None
    mean_link_success: float | None
    cluster_load: tuple[float, ...] | None
    budget_slack: tuple[float, ...] | None
    test_accuracy: float | None
    d2d_energy_j: float
    d2s_energy_j: float
    stragglers: int | None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return "|".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_field(name: str, raw: str):
    if raw == "":
        return None
    if name in ("cluster_load", "budget_slack"):
        return tuple(float(v) for v in raw.split("|"))
    if name in ("step", "stragglers"):
        return int(raw)
    if name in ("run_id", "phase"):
        return raw
    return float(raw)


def emit_metrics(records: list[MetricsRecord], path: str | Path, fmt: str = "csv") -> None:
    """Write records as CSV (fixed header) or JSON lines, same fields both."""
    path = Path(path)
    try:
        path.write_text(render_metrics(records, fmt))
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


def render_metrics(records: list[MetricsRecord], fmt: str = "csv") -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, name)) for name in CSV_HEADER])
        return buf.getvalue()
    if fmt == "jsonl":
        lines = []
        for rec in records:
            d = asdict(rec)
            for key in ("cluster_load", "budget_slack"):
                if d[key] is not None:
                    d[key] = list(d[key])
            lines.append(json.dumps(d))
        return "".join(line + "\n" for line in lines)
    raise ValueError(f"unknown metrics format {fmt!r}")


def read_metrics(path: str | Path, fmt: str = "csv") -> list[MetricsRecord]:
    """Parse a metrics file back into records (inverse of emit_metrics)."""
    text = Path(path).read_text()
    records: list[MetricsRecord] = []
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows and tuple(rows[0]) != CSV_HEADER:
            raise ValueError("unexpected CSV header")
        for row in rows[1:]:
            kwargs = {name: _parse_field(name, raw) for name, raw in zip(CSV_HEADER, row)}
            records.append(MetricsRecord(**kwargs))
        return records
    if fmt == "jsonl":
        for line in text.splitlines():
            d = json.loads(line)
            for key in ("cluster_load", "budget_slack"):
                if d[key] is not None:
                    d[key] = tuple(d[key])
            records.append(MetricsRecord(**d))
        return records
    raise ValueError(f"unknown metrics format {fmt!r}")


@dataclass
class ExperimentResult:
    config: ScenarioConfig
    scenario: Scenario
    links: np.ndarray  # (N,) transmitter per receiver, -1 for none
    records: list[MetricsRecord]
    summary: dict
    rl_result: rl.TrainResult | None = None
    fl_trace: fl.FlTrace | None = None


def reward_weights_from(cfg: ScenarioConfig, n_clusters: int) -> rl.RewardWeights:
    return rl.RewardWeights(
        alpha1=cfg.alpha1,
        alpha2=cfg.alpha2,
        alpha3=cfg.alpha3,
        gamma=cfg.gamma,
        diversity_min=cfg.diversity_min,
        budgets=np.full(n_clusters, cfg.cluster_budget),
    )


def train_rl(cfgs: list[ScenarioConfig], scenarios: list[Scenario]) -> list[rl.TrainResult]:
    """Train the rl runs of one batch together (see rl.train_runs); the
    configs share n_devices, n_classes, episodes and allow_no_link."""
    cfg = cfgs[0]
    return rl.train_runs(
        scenarios,
        cfg.episodes,
        [reward_weights_from(c, s.partition.k) for c, s in zip(cfgs, scenarios)],
        [named_rng(c.seed, "rl") for c in cfgs],
        allow_no_link=cfg.allow_no_link,
    )


def discover_links(
    cfg: ScenarioConfig, scenario: Scenario, rl_result: rl.TrainResult | None = None
) -> tuple[np.ndarray, rl.TrainResult | None]:
    """Produce the exchange graph for the configured baseline, as an (N,)
    transmitter array with -1 for no link. An rl run reads its graph from
    rl_result, trained here alone when not given."""
    if cfg.baseline == "rl":
        if rl_result is None:
            (rl_result,) = train_rl([cfg], [scenario])
        return rl.extract_graph(rl_result.policies, allow_no_link=cfg.allow_no_link), rl_result
    if cfg.baseline == "uniform":
        return uniform_baseline_links(cfg.n_devices, named_rng(cfg.seed, "rl")), None
    if cfg.baseline == "none":
        return np.full(cfg.n_devices, -1, dtype=np.int64), None
    raise ConfigError(f"key 'baseline': unknown value {cfg.baseline!r}")


def links_json(links: np.ndarray) -> dict[str, int | None]:
    """A link array as a JSON object: receiver index -> transmitter, null
    for no link."""
    return {str(rx): None if tx < 0 else tx for rx, tx in enumerate(links.tolist())}


def rl_records(
    result: rl.TrainResult, run_id: str, budgets: np.ndarray, episode_energy: float = 0.0
) -> list[MetricsRecord]:
    """One metrics record per training episode; the cumulative D2D energy
    grows by episode_energy per episode."""
    records: list[MetricsRecord] = []
    d2d_energy = 0.0
    slack = budgets - result.cluster_load
    for step, (reward, success, load, free) in enumerate(
        zip(result.mean_reward.tolist(), result.link_success.tolist(), result.cluster_load, slack)
    ):
        d2d_energy += episode_energy
        records.append(
            MetricsRecord(
                run_id=run_id,
                phase="rl",
                step=step,
                mean_reward=reward,
                mean_link_success=success,
                cluster_load=tuple(load.tolist()),
                budget_slack=tuple(free.tolist()),
                test_accuracy=None,
                d2d_energy_j=d2d_energy,
                d2s_energy_j=0.0,
                stragglers=None,
            )
        )
    return records


def graph_stats(scenario: Scenario, links: np.ndarray, exchange: ExchangeResult) -> dict:
    """Success probability and inter-cluster request load of a fixed graph,
    from the executed exchange's request ledger."""
    load = rl.inter_cluster_load(
        exchange.receivers,
        exchange.transmitters,
        exchange.requested,
        scenario.partition.assignment,
        scenario.partition.k,
    )
    return {"mean_link_success": rl.link_success(scenario.drop, links), "cluster_load": load}


def rl_batches(cfgs: list[ScenarioConfig]) -> list[list[int]]:
    """Group the indices of the rl configs into training batches, in config
    order: runs that share n_devices, n_classes (the stacked class tables),
    episodes and allow_no_link, at most rl.BATCH_CELLS policy cells (R*N*N)
    per batch, one run at the least."""
    batches: list[list[int]] = []
    open_batch: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        if cfg.baseline != "rl":
            continue
        key = (cfg.n_devices, cfg.n_classes, cfg.episodes, cfg.allow_no_link)
        batch = open_batch.get(key)
        if batch is None or (len(batch) + 1) * cfg.n_devices**2 > rl.BATCH_CELLS:
            batch = open_batch[key] = []
            batches.append(batch)
        batch.append(i)
    return batches


def run_experiments(
    cfgs: list[ScenarioConfig], run_ids: list[str] | None = None
) -> Iterator[ExperimentResult]:
    """Full pipeline for a list of configurations, one result per config,
    yielded in config order; run ids default to "<baseline>-s<seed>".

    Stages: generate scenario; discover links (RL training, uniform draw, or
    none); materialize the exchange on the real datasets; run federated
    training; collect metrics. The rl runs of one batch (see rl_batches)
    generate their scenarios and train together when the first of them is
    reached; everything after training runs per config. Each result is
    byte-identical to running its config alone, and a batch's scenarios
    are dropped as their results are yielded.
    """
    run_ids = run_ids or [f"{cfg.baseline}-s{cfg.seed}" for cfg in cfgs]
    batch_of = {i: batch for batch in rl_batches(cfgs) for i in batch}
    ready: dict[int, tuple[Scenario, rl.TrainResult | None]] = {}
    for i, (cfg, run_id) in enumerate(zip(cfgs, run_ids)):
        if i not in ready:
            batch = batch_of.get(i)
            if batch is None:
                ready[i] = (generate_scenario(cfg), None)
            else:
                scenarios = [generate_scenario(cfgs[j]) for j in batch]
                trained = train_rl([cfgs[j] for j in batch], scenarios)
                ready.update(zip(batch, zip(scenarios, trained)))
        scenario, rl_result = ready.pop(i)
        yield _finish_experiment(cfg, run_id, scenario, rl_result)


def run_experiment(cfg: ScenarioConfig, run_id: str | None = None) -> ExperimentResult:
    """Full pipeline for one configuration (see run_experiments)."""
    (result,) = run_experiments([cfg], [run_id] if run_id else None)
    return result


def _finish_experiment(
    cfg: ScenarioConfig, run_id: str, scenario: Scenario, rl_result: rl.TrainResult | None
) -> ExperimentResult:
    """Every stage after RL training, for one run. Energy: D2D counts RL
    reward broadcasts and the materialized point transfers, D2S counts one
    uplink and one downlink of the model parameters per participant per
    aggregation."""
    n = cfg.n_devices
    weights = reward_weights_from(cfg, scenario.partition.k)
    budgets = weights.budget_array(scenario.partition.k)
    mean_dist = scenario.mean_distance

    records: list[MetricsRecord] = []
    d2d_energy = 0.0
    d2s_energy = 0.0

    links, rl_result = discover_links(cfg, scenario, rl_result)
    if rl_result is not None:
        # Each device shares its scalar local reward with the other N-1
        # devices once per episode; this signaling is counted but modeled
        # as lossless.
        episode_signaling = n * (n - 1) * transmit_energy(
            SCALAR_BITS, mean_dist, scenario.energy
        )
        records.extend(rl_records(rl_result, run_id, budgets, episode_signaling))
        d2d_energy = records[-1].d2d_energy_j

    exchange_result = materialize_exchange(
        scenario, links, cfg.delivery, named_rng(cfg.seed, "exchange")
    )
    distances = scenario.distances
    for rx, tx, sent in zip(
        exchange_result.receivers, exchange_result.transmitters, exchange_result.buffered
    ):
        d2d_energy += energy_cost(int(sent.sum()), float(distances[rx, tx]), scenario.energy)

    stats = graph_stats(scenario, links, exchange_result)

    n_stragglers = int(round(cfg.straggler_fraction * n))
    straggler_set = frozenset(
        int(i)
        for i in named_rng(cfg.seed, "stragglers").choice(n, size=n_stragglers, replace=False)
    )
    spec = fl.ModelSpec(
        kind=cfg.model,
        in_dim=cfg.feature_dim,
        n_classes=cfg.n_classes,
        hidden=cfg.hidden_units,
    )
    fl_cfg = fl.FlConfig(
        scheme=cfg.scheme,
        tau_a=cfg.tau_a,
        total_steps=cfg.total_steps,
        learning_rate=cfg.learning_rate,
        prox_mu=cfg.prox_mu,
        batch_size=cfg.batch_size,
        weighting=cfg.weighting,
        stragglers=straggler_set,
    )
    fl_trace = fl.run_fl(spec, scenario.datasets, scenario.test_set, fl_cfg, named_rng(cfg.seed, "fl"))

    d2s_dist = cfg.d2s_distance_factor * mean_dist
    per_device_round = 2.0 * transmit_energy(spec.n_params * SCALAR_BITS, d2s_dist, scenario.energy)
    for round_idx, acc in enumerate(fl_trace.accuracy):
        d2s_energy += fl_trace.participants[round_idx] * per_device_round
        records.append(
            MetricsRecord(
                run_id=run_id,
                phase="fl",
                step=round_idx,
                mean_reward=None,
                mean_link_success=stats["mean_link_success"],
                cluster_load=tuple(float(v) for v in stats["cluster_load"]),
                budget_slack=tuple(float(v) for v in budgets - stats["cluster_load"]),
                test_accuracy=acc,
                d2d_energy_j=d2d_energy,
                d2s_energy_j=d2s_energy,
                stragglers=n_stragglers,
            )
        )

    summary = {
        "run_id": run_id,
        "baseline": cfg.baseline,
        "seed": cfg.seed,
        "n_devices": n,
        "n_clusters": scenario.partition.k,
        "links": links_json(links),
        "points_delivered": exchange_result.delivered_total(),
        "mean_link_success": stats["mean_link_success"],
        "cluster_load": [float(v) for v in stats["cluster_load"]],
        "cluster_budgets": [float(v) for v in budgets],
        "final_accuracy": fl_trace.accuracy[-1] if fl_trace.accuracy else None,
        "rounds": len(fl_trace.accuracy),
        "stragglers": sorted(straggler_set),
        "d2d_energy_j": d2d_energy,
        "d2s_energy_j": d2s_energy,
    }
    return ExperimentResult(
        config=cfg,
        scenario=scenario,
        links=links,
        records=records,
        summary=summary,
        rl_result=rl_result,
        fl_trace=fl_trace,
    )


def sweep_experiment(
    base: ScenarioConfig, key: str, values: list[str]
) -> tuple[list[MetricsRecord], list[dict]]:
    """Run one experiment per value of a single config key.

    Values arrive as strings (CLI form) and are parsed by the config file's
    rule for the key; at least one is needed. Every value is parsed and
    validated before any run starts. Records from all runs are
    concatenated, run ids carry key=value.
    """
    if key not in {f.name for f in fields(ScenarioConfig)}:
        raise ConfigError(f"unknown sweep key {key!r}")
    if not values:
        raise ConfigError(f"key {key!r}: sweep needs at least one value")
    parsed = [_parse_value(key, raw) for raw in values]
    cfgs = [with_overrides(base, **{key: value}) for value in parsed]
    run_ids = [f"{cfg.baseline}-s{cfg.seed}-{key}={raw}" for cfg, raw in zip(cfgs, values)]
    all_records: list[MetricsRecord] = []
    summaries: list[dict] = []
    for result, value in zip(run_experiments(cfgs, run_ids), parsed):
        all_records.extend(result.records)
        summary = dict(result.summary)
        summary["sweep_key"] = key
        summary["sweep_value"] = value
        summaries.append(summary)
    return all_records, summaries
