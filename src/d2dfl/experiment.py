"""Experiment orchestration: scenario -> link discovery -> materialized
exchange -> federated training, with per-step metrics and energy accounting.

run_experiments is the one pipeline: run_experiment, sweep_experiment and
the CLI go through it. One rule (batches) groups runs for both stages: in
config order, by a tuple of config keys, under a cap of rl.BATCH_CELLS
summed N**2 cells. It trains the rl runs of a list of configs in batches
(runs sharing rl.BATCH_KEY train as one stacked policy table, see
rl.train_runs), takes every run's links and exchange in config order, and
runs the FL of the runs of every baseline that share fl.BATCH_KEY together
(see fl.run_fl_runs).

Each stage builds its part of a run once: _exchange_stage the links, the
exchange ledger, the rl records, the D2D energy and the stragglers;
_fl_stage the FL records and then the run's summary. metrics_records builds
every metrics record, one per RL episode and one per FL aggregation round;
records can be written as CSV or JSON lines with identical fields. Output
is byte-identical for equal (config, seed).
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import fl, rl
from .config import ConfigError, ScenarioConfig, _parse_value, batch_key, with_overrides
from .exchange import ExchangeResult
from .network import SCALAR_BITS, energy_cost, link_distances, transmit_energy
from .scenario import (
    Scenario,
    generate_scenario,
    materialize_exchange,
    named_rng,
    uniform_baseline_links,
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


CSV_HEADER = tuple(f.name for f in fields(MetricsRecord))
# Per-cluster vectors: "|"-joined floats in CSV, arrays in JSON lines.
_VECTOR_FIELDS = ("cluster_load", "budget_slack")


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
    if name in _VECTOR_FIELDS:
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
        return "".join(json.dumps(asdict(rec)) + "\n" for rec in records)
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
            for key in _VECTOR_FIELDS:
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


def train_rl(scenarios: list[Scenario]) -> list[rl.TrainResult]:
    """Train the rl runs of one batch together (see rl.train_runs), each
    with its config's "rl" generator."""
    return rl.train_runs(scenarios, [named_rng(s.config.seed, "rl") for s in scenarios])


def discover_links(cfg: ScenarioConfig, rl_result: rl.TrainResult | None) -> np.ndarray:
    """The exchange graph for the configured baseline, as an (N,)
    transmitter array with -1 for no link. An rl run reads its graph from
    its trained rl_result; the other baselines take None."""
    if cfg.baseline == "rl":
        return rl.extract_graph(rl_result.policies, allow_no_link=cfg.allow_no_link)
    if cfg.baseline == "uniform":
        return uniform_baseline_links(cfg.n_devices, named_rng(cfg.seed, "rl"))
    if cfg.baseline == "none":
        return np.full(cfg.n_devices, -1, dtype=np.int64)
    raise ConfigError(f"key 'baseline': unknown value {cfg.baseline!r}")


def links_json(links: np.ndarray) -> dict[str, int | None]:
    """A link array as a JSON object: receiver index -> transmitter, null
    for no link."""
    return {str(rx): None if tx < 0 else tx for rx, tx in enumerate(links.tolist())}


def metrics_records(run_id: str, phase: str, **columns: Iterable) -> list[MetricsRecord]:
    """One record per step of a run's phase. columns holds one iterable per
    field after step, itertools.repeat for a constant one; the shortest
    sets the step count."""
    rows = zip(*(columns[name] for name in CSV_HEADER[3:]))
    return [MetricsRecord(run_id, phase, step, *row) for step, row in enumerate(rows)]


def rl_records(
    cfg: ScenarioConfig, scenario: Scenario, result: rl.TrainResult, run_id: str
) -> list[MetricsRecord]:
    """One metrics record per training episode of an rl run. The cumulative
    D2D energy counts reward signaling: each device shares its scalar local
    reward with the other N-1 devices once per episode, counted but modeled
    as lossless."""
    n = cfg.n_devices
    episode_energy = n * (n - 1) * transmit_energy(SCALAR_BITS, scenario.mean_distance, cfg)
    slack = cfg.cluster_budget - result.cluster_load
    # A running sum: accumulate adds one episode after another.
    energy = np.full(len(result.mean_reward), episode_energy).cumsum()
    return metrics_records(
        run_id, "rl", mean_reward=result.mean_reward.tolist(),
        mean_link_success=result.link_success.tolist(),
        cluster_load=map(tuple, result.cluster_load.tolist()),
        budget_slack=map(tuple, slack.tolist()), test_accuracy=repeat(None),
        d2d_energy_j=energy.tolist(), d2s_energy_j=repeat(0.0), stragglers=repeat(None),
    )


def batches(
    cfgs: list[ScenarioConfig], keys: tuple[str, ...], runs: Iterable[int]
) -> list[list[int]]:
    """Group the run indices runs into batches, in config order: runs whose
    configs share keys (see config.batch_key), at most rl.BATCH_CELLS
    summed n_devices**2 cells per batch, one run at the least."""
    groups: list[list[int]] = []
    open_batch: dict[tuple, tuple[list[int], int]] = {}
    for i in runs:
        key, cells = batch_key(cfgs[i], keys), cfgs[i].n_devices**2
        batch, used = open_batch.get(key, (None, 0))
        if batch is None or used + cells > rl.BATCH_CELLS:
            batch, used = [], 0
            groups.append(batch)
        batch.append(i)
        open_batch[key] = (batch, used + cells)
    return groups


def rl_batches(cfgs: list[ScenarioConfig]) -> list[list[int]]:
    """The rl runs' training batches: they share rl.BATCH_KEY."""
    return batches(cfgs, rl.BATCH_KEY, (i for i, cfg in enumerate(cfgs) if cfg.baseline == "rl"))


def fl_batches(cfgs: list[ScenarioConfig]) -> list[list[int]]:
    """Every run's FL batch, of any baseline: they share fl.BATCH_KEY."""
    return batches(cfgs, fl.BATCH_KEY, range(len(cfgs)))


def run_experiments(
    cfgs: list[ScenarioConfig], run_ids: list[str] | None = None
) -> Iterator[ExperimentResult]:
    """Full pipeline for a list of configurations, one result per config,
    yielded in config order; run ids default to "<baseline>-s<seed>".

    Stages: generate scenario; discover links (RL training, uniform draw, or
    none); materialize the exchange on the real datasets; run federated
    training; collect metrics. The rl runs of one training batch (see
    rl_batches) generate their scenarios and train together when the first
    of them is reached. Every run then takes its links and exchange in
    config order, and the runs of one FL batch (see fl_batches) train their
    FL together (fl.run_fl_runs) once the last of them is exchanged. Each
    result is byte-identical to running its config alone, and is yielded as
    soon as it and every result before it are done.
    """
    run_ids = run_ids or [f"{cfg.baseline}-s{cfg.seed}" for cfg in cfgs]
    batch_of = {i: batch for batch in rl_batches(cfgs) for i in batch}
    group_of = {i: group for group in fl_batches(cfgs) for i in group}
    ready: dict[int, tuple[Scenario, rl.TrainResult | None]] = {}
    exchanged: dict[int, _Exchanged] = {}
    done: dict[int, ExperimentResult] = {}
    next_out = 0
    for i, (cfg, run_id) in enumerate(zip(cfgs, run_ids)):
        if i not in ready:
            batch = batch_of.get(i)
            if batch is None:
                ready[i] = (generate_scenario(cfg), None)
            else:
                scenarios = [generate_scenario(cfgs[j]) for j in batch]
                ready.update(zip(batch, zip(scenarios, train_rl(scenarios))))
        exchanged[i] = _exchange_stage(cfg, run_id, *ready.pop(i))
        group = group_of[i]
        if i == group[-1]:
            runs = [exchanged.pop(j) for j in group]
            done.update(zip(group, map(_fl_stage, runs, _train_fl(runs))))
        while next_out in done:
            yield done.pop(next_out)
            next_out += 1


def run_experiment(cfg: ScenarioConfig, run_id: str | None = None) -> ExperimentResult:
    """Full pipeline for one configuration (see run_experiments)."""
    (result,) = run_experiments([cfg], [run_id] if run_id else None)
    return result


class _Exchanged(NamedTuple):
    """A run up to federated training: its inputs and the values of its
    stages from link discovery to the straggler draw."""

    config: ScenarioConfig
    run_id: str
    scenario: Scenario
    rl_result: rl.TrainResult | None
    links: np.ndarray  # (N,) transmitter per receiver, -1 for none
    exchange: ExchangeResult  # the materialized exchange's ledger
    records: list[MetricsRecord]  # one per RL episode, none for other baselines
    d2d_energy: float
    stragglers: list[int]  # sorted device indices


def _exchange_stage(
    cfg: ScenarioConfig, run_id: str, scenario: Scenario, rl_result: rl.TrainResult | None
) -> _Exchanged:
    """The stages of one run from link discovery to the straggler draw. D2D
    energy counts RL reward broadcasts and the materialized point
    transfers."""
    links = discover_links(cfg, rl_result)
    records = [] if rl_result is None else rl_records(cfg, scenario, rl_result, run_id)
    d2d_energy = records[-1].d2d_energy_j if records else 0.0
    exchange = materialize_exchange(scenario, links, cfg.delivery, named_rng(cfg.seed, "exchange"))
    distances = link_distances(scenario.positions, exchange.receivers, exchange.transmitters)
    for sent, distance in zip(exchange.buffered, distances.tolist()):
        d2d_energy += energy_cost(int(sent.sum()), distance, cfg)
    n = cfg.n_devices
    n_stragglers = int(round(cfg.straggler_fraction * n))
    stragglers = named_rng(cfg.seed, "stragglers").choice(n, size=n_stragglers, replace=False)
    return _Exchanged(
        cfg, run_id, scenario, rl_result, links, exchange, records, d2d_energy,
        sorted(stragglers.tolist()),
    )


def _train_fl(runs: list[_Exchanged]) -> list[fl.FlTrace]:
    """Federated training of exchanged runs that share fl.BATCH_KEY, each
    with its config's "fl" generator (fl.run_fl_runs)."""
    cfg = runs[0].config
    spec = fl.ModelSpec(
        kind=cfg.model, in_dim=cfg.feature_dim, n_classes=cfg.n_classes, hidden=cfg.hidden_units
    )
    return fl.run_fl_runs(
        spec,
        [run.scenario.datasets for run in runs],
        [run.scenario.test_set for run in runs],
        [run.config for run in runs],
        [named_rng(run.config.seed, "fl") for run in runs],
        [frozenset(run.stragglers) for run in runs],
    )


def _fl_stage(run: _Exchanged, fl_trace: fl.FlTrace) -> ExperimentResult:
    """Complete an exchanged run with its FL trace: one record per
    aggregation round, then the run's summary. The graph's link success and
    inter-cluster load come from the executed exchange's request ledger.
    D2S energy counts one uplink and one downlink of the model parameters
    per participant per aggregation."""
    cfg, scenario, exchange = run.config, run.scenario, run.exchange
    k = scenario.partition.k
    success = rl.link_success(scenario.drop, run.links)
    ledger = (exchange.receivers, exchange.transmitters, exchange.requested)
    load = rl.inter_cluster_load(*ledger, scenario.partition.assignment, k).tolist()
    d2s_dist = cfg.d2s_distance_factor * scenario.mean_distance
    per_device_round = 2.0 * transmit_energy(fl_trace.params.size * SCALAR_BITS, d2s_dist, cfg)
    # A running sum: accumulate adds one round after another.
    d2s_energy = (np.array(fl_trace.participants) * per_device_round).cumsum().tolist()
    records = run.records + metrics_records(
        run.run_id, "fl", mean_reward=repeat(None), mean_link_success=repeat(success),
        cluster_load=repeat(tuple(load)),
        budget_slack=repeat(tuple(cfg.cluster_budget - v for v in load)),
        test_accuracy=fl_trace.accuracy, d2d_energy_j=repeat(run.d2d_energy),
        d2s_energy_j=d2s_energy, stragglers=repeat(len(run.stragglers)),
    )
    summary = {
        "run_id": run.run_id,
        "baseline": cfg.baseline,
        "seed": cfg.seed,
        "n_devices": cfg.n_devices,
        "n_clusters": k,
        "links": links_json(run.links),
        "points_delivered": exchange.delivered_total(),
        "mean_link_success": success,
        "cluster_load": load,
        "cluster_budgets": [float(cfg.cluster_budget)] * k,
        "final_accuracy": fl_trace.accuracy[-1],
        "rounds": len(fl_trace.accuracy),
        "stragglers": run.stragglers,
        "d2d_energy_j": run.d2d_energy,
        "d2s_energy_j": d2s_energy[-1],
    }
    return ExperimentResult(cfg, scenario, run.links, records, summary, run.rl_result, fl_trace)


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
