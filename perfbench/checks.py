"""Checks on the output of one `sweep_experiment` call, run by run.

A run is one seed of the sweep. Each check failure is reported as a message
naming the run; a run with any message counts as failed.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def capture_exchanges(experiment):
    """Keep every ExchangeResult that `run_experiment` gets back from
    `materialize_exchange`, in call order, for the duration of the block."""
    original = experiment.materialize_exchange
    captured: list = []

    @functools.wraps(original)
    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result)
        return result

    experiment.materialize_exchange = capturing
    try:
        yield captured
    finally:
        experiment.materialize_exchange = original


def check_call(experiment, cfgs, records, summaries, exchanges, scratch: Path) -> dict[str, list[str]]:
    """Check one sweep call's output; return the failure messages per run id.

    `cfgs` are the per-seed configs the sweep ran, in order; `exchanges` the
    materialized exchange results captured during the call, in the same
    order.
    """
    problems: dict[str, list[str]] = {}
    by_run: dict[str, list] = {}
    for rec in records:
        by_run.setdefault(rec.run_id, []).append(rec)
    if len(summaries) != len(cfgs) or len(exchanges) != len(cfgs):
        raise ValueError(
            f"{len(cfgs)} runs but {len(summaries)} summaries and {len(exchanges)} exchanges"
        )
    for cfg, summary, exchange in zip(cfgs, summaries, exchanges):
        run_id = summary["run_id"]
        run_records = by_run.get(run_id, [])
        bad = problems.setdefault(run_id, [])

        expected = (cfg.episodes if cfg.baseline == "rl" else 0) + cfg.total_steps // cfg.tau_a
        if len(run_records) != expected:
            bad.append(f"{len(run_records)} records, expected {expected}")

        path = scratch / "roundtrip.csv"
        path.write_text(experiment.render_metrics(run_records))
        try:
            if experiment.read_metrics(path) != run_records:
                bad.append("render_metrics -> read_metrics does not round-trip")
        finally:
            path.unlink()

        for rec in run_records:
            if rec.phase == "fl" and not (
                rec.test_accuracy is not None and 0.0 <= rec.test_accuracy <= 1.0
            ):
                bad.append(f"fl step {rec.step}: test_accuracy {rec.test_accuracy!r} not in [0, 1]")
                break
        for key in ("d2d_energy_j", "d2s_energy_j"):
            values = [getattr(rec, key) for rec in run_records]
            if any(b < a for a, b in zip(values, values[1:])):
                bad.append(f"cumulative {key} decreases")

        for plan in exchange.plans:
            if (plan.delivered > plan.buffered).any():
                bad.append(f"link {plan.transmitter}->{plan.receiver} delivered more than it sent")
                break
        if exchange.delivered_total() != summary["points_delivered"]:
            bad.append("captured exchange does not match the run's points_delivered")
    return {run_id: msgs for run_id, msgs in problems.items() if msgs}
