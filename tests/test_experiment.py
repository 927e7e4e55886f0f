import json

import numpy as np
import pytest

from d2dfl import cli, experiment, rl
from d2dfl.config import ConfigError, ScenarioConfig, save_config, with_overrides
from d2dfl.exchange import run_exchange
from d2dfl.experiment import (
    CSV_HEADER,
    MetricsRecord,
    discover_links,
    emit_metrics,
    read_metrics,
    render_metrics,
    rl_batches,
    run_experiment,
    run_experiments,
    sweep_experiment,
)
from d2dfl.network import SCALAR_BITS, energy_cost, transmit_energy
from d2dfl.rl import inter_cluster_load
from d2dfl.scenario import generate_scenario

FAST = with_overrides(
    ScenarioConfig(),
    n_devices=5,
    n_classes=4,
    classes_per_device=2,
    samples_per_device=60,
    class_threshold=10,
    diversity_min=3,
    episodes=40,
    tau_a=10,
    total_steps=30,
    cluster_budget=40.0,
    seed=2,
)

# A briefly trained graph with allow_no_link on: some receivers keep no link.
MIXED = with_overrides(FAST, allow_no_link=True, episodes=5, seed=0)


def assert_links_json(links_obj, links):
    """A JSON "links" object maps each receiver to its transmitter, or to
    null when the link array holds -1."""
    assert links_obj == {
        str(rx): None if tx == -1 else int(tx) for rx, tx in enumerate(links)
    }
    assert None in links_obj.values()
    assert any(tx is not None for tx in links_obj.values())


def sample_records():
    return [
        MetricsRecord(
            run_id="x",
            phase="rl",
            step=0,
            mean_reward=1.25,
            mean_link_success=0.875,
            cluster_load=(3.0, 0.5),
            budget_slack=(37.0, 39.5),
            test_accuracy=None,
            d2d_energy_j=1.5e-4,
            d2s_energy_j=0.0,
            stragglers=None,
        ),
        MetricsRecord(
            run_id="x",
            phase="fl",
            step=0,
            mean_reward=None,
            mean_link_success=0.9,
            cluster_load=(0.0,),
            budget_slack=(40.0,),
            test_accuracy=0.8125,
            d2d_energy_j=2.5e-4,
            d2s_energy_j=3.25e-3,
            stragglers=1,
        ),
    ]


class TestMetricsIo:
    def test_zero_records_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics([], path, "csv")
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        records = sample_records()
        emit_metrics(records, path, "csv")
        assert read_metrics(path, "csv") == records

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = sample_records()
        emit_metrics(records, path, "jsonl")
        assert read_metrics(path, "jsonl") == records

    def test_formats_agree(self, tmp_path):
        records = sample_records()
        p1, p2 = tmp_path / "m.csv", tmp_path / "m.jsonl"
        emit_metrics(records, p1, "csv")
        emit_metrics(records, p2, "jsonl")
        assert read_metrics(p1, "csv") == read_metrics(p2, "jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_metrics([], "xml")

    def test_header_is_stable(self):
        assert CSV_HEADER[0] == "run_id"
        assert render_metrics([], "csv").splitlines()[0] == ",".join(CSV_HEADER)


class TestRunExperiment:
    def test_none_baseline_zero_d2d_energy(self):
        cfg = with_overrides(FAST, baseline="none")
        res = run_experiment(cfg)
        assert res.summary["d2d_energy_j"] == 0.0
        assert res.summary["points_delivered"] == 0.0
        assert res.links.tolist() == [-1] * cfg.n_devices
        assert all(rec.phase == "fl" for rec in res.records)

    def test_summary_links_null_for_no_link(self):
        res = run_experiment(MIXED)
        assert_links_json(json.loads(json.dumps(res.summary))["links"], res.links)

    def test_deterministic_metric_bytes(self):
        r1 = run_experiment(FAST)
        r2 = run_experiment(FAST)
        assert render_metrics(r1.records, "csv") == render_metrics(r2.records, "csv")
        assert render_metrics(r1.records, "jsonl") == render_metrics(r2.records, "jsonl")
        assert r1.summary == r2.summary

    def test_budget_trace_recomputation(self):
        # Q-tilde logged per episode must match an independent exchange
        # recomputation from the logged links.
        res = run_experiment(FAST)
        scenario = generate_scenario(FAST)
        trace = res.rl_result
        for ep_links, ep_load in zip(trace.links[:10], trace.cluster_load[:10]):
            probe = run_exchange(
                ep_links,
                scenario.counts,
                scenario.thresholds,
                scenario.trust,
                scenario.drop,
            )
            load = inter_cluster_load(
                probe.receivers,
                probe.transmitters,
                probe.requested,
                scenario.partition.assignment,
                scenario.partition.k,
            )
            assert np.allclose(load, ep_load)

    def test_energy_additivity(self):
        # Total energy must equal the sum of per-event energies, recomputed
        # independently: signaling per episode plus per-link transfer costs.
        res = run_experiment(FAST)
        cfg = res.config
        n = cfg.n_devices
        probe = generate_scenario(cfg)
        signaling = cfg.episodes * n * (n - 1) * transmit_energy(
            SCALAR_BITS, probe.mean_distance, probe.energy
        )
        from d2dfl.scenario import materialize_exchange, named_rng

        result = materialize_exchange(
            probe, res.links, cfg.delivery, named_rng(cfg.seed, "exchange")
        )
        transfer = sum(
            energy_cost(
                int(p.buffered.sum()),
                float(probe.distances[p.receiver, p.transmitter]),
                probe.energy,
            )
            for p in result.plans
        )
        assert res.summary["d2d_energy_j"] == pytest.approx(signaling + transfer, rel=1e-9)

    def test_d2s_energy_counts_participants(self):
        cfg = with_overrides(FAST, baseline="none", straggler_fraction=0.4)
        res = run_experiment(cfg)
        n_stragglers = int(round(0.4 * cfg.n_devices))
        from d2dfl.fl import ModelSpec

        spec = ModelSpec("linear", cfg.feature_dim, cfg.n_classes, cfg.hidden_units)
        per_round = (
            (cfg.n_devices - n_stragglers)
            * 2.0
            * transmit_energy(
                spec.n_params * SCALAR_BITS,
                cfg.d2s_distance_factor * res.scenario.mean_distance,
                res.scenario.energy,
            )
        )
        rounds = cfg.total_steps // cfg.tau_a
        assert res.summary["d2s_energy_j"] == pytest.approx(rounds * per_round, rel=1e-9)
        assert all(rec.stragglers == n_stragglers for rec in res.records)

    def test_record_streams_cover_phases(self):
        res = run_experiment(FAST)
        phases = [rec.phase for rec in res.records]
        assert phases.count("rl") == FAST.episodes
        assert phases.count("fl") == FAST.total_steps // FAST.tau_a
        steps_rl = [rec.step for rec in res.records if rec.phase == "rl"]
        assert steps_rl == list(range(FAST.episodes))


class TestSweep:
    def test_sweep_tau_a(self):
        records, summaries = sweep_experiment(
            with_overrides(FAST, baseline="none"), "tau_a", ["5", "10"]
        )
        assert [s["sweep_value"] for s in summaries] == [5, 10]
        run_ids = {rec.run_id for rec in records}
        assert run_ids == {"none-s2-tau_a=5", "none-s2-tau_a=10"}

    def test_sweep_unknown_key(self):
        from d2dfl.config import ConfigError

        with pytest.raises(ConfigError):
            sweep_experiment(FAST, "warp", ["1"])

    def test_sweep_bool_values_follow_config_parser(self):
        # The INI parser's spellings: 1 / yes / on are true, 0 / no / off false.
        base = with_overrides(FAST, baseline="none", total_steps=10)
        _, summaries = sweep_experiment(
            base, "allow_no_link", ["1", "yes", "on", "True", "0", "no", "off", "false"]
        )
        assert [s["sweep_value"] for s in summaries] == [True] * 4 + [False] * 4

    def test_sweep_bad_value_names_key(self):
        from d2dfl.config import ConfigError

        with pytest.raises(ConfigError, match="episodes"):
            sweep_experiment(FAST, "episodes", ["abc"])

    def test_sweep_bad_last_value_fails_before_any_run(self, monkeypatch):
        calls = []
        original = experiment.generate_scenario
        monkeypatch.setattr(
            experiment, "generate_scenario", lambda cfg: calls.append(cfg) or original(cfg)
        )
        with pytest.raises(ConfigError, match="'episodes'"):
            sweep_experiment(FAST, "episodes", ["40", "20", "0"])
        assert calls == []

    @pytest.mark.parametrize(
        "key, values",
        [
            ("seed", [2, 3, 4]),
            ("n_devices", [5, 6, 5, 6]),
            ("alpha1", [0.5, 1.0, 2.5]),
            ("n_classes", [4, 5]),
        ],
    )
    def test_sweep_bytes_equal_runs_one_by_one(self, key, values):
        records, summaries = sweep_experiment(FAST, key, [str(v) for v in values])
        alone = []
        for value in values:
            cfg = with_overrides(FAST, **{key: value})
            alone.append(run_experiment(cfg, run_id=f"rl-s{cfg.seed}-{key}={value}"))
        expect = [rec for res in alone for rec in res.records]
        assert render_metrics(records, "csv") == render_metrics(expect, "csv")
        assert render_metrics(records, "jsonl") == render_metrics(expect, "jsonl")
        for summary, res in zip(summaries, alone):
            assert {k: v for k, v in summary.items() if not k.startswith("sweep_")} == res.summary

    def test_batches_group_by_shape_and_cap(self, monkeypatch):
        cfgs = [
            with_overrides(FAST, n_devices=n, seed=s)
            for n, s in [(5, 0), (6, 0), (5, 1), (5, 2), (6, 1)]
        ] + [with_overrides(FAST, baseline="none"), with_overrides(FAST, episodes=7)]
        assert rl_batches(cfgs) == [[0, 2, 3], [1, 4], [6]]
        monkeypatch.setattr(rl, "BATCH_CELLS", 2 * 6 * 6)
        assert rl_batches(cfgs) == [[0, 2], [1, 4], [3], [6]]
        capped = list(run_experiments(cfgs))
        for cfg, res in zip(cfgs, capped):
            assert render_metrics(res.records) == render_metrics(run_experiment(cfg).records)
            assert res.summary == run_experiment(cfg).summary

    def test_sweep_deterministic(self):
        a = sweep_experiment(with_overrides(FAST, baseline="none"), "tau_a", ["5"])
        b = sweep_experiment(with_overrides(FAST, baseline="none"), "tau_a", ["5"])
        assert render_metrics(a[0], "csv") == render_metrics(b[0], "csv")


class TestCli:
    def _write_cfg(self, tmp_path, cfg):
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        return path

    def test_run_writes_metrics(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, FAST)
        out = tmp_path / "metrics.csv"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert out.exists()
        parsed = read_metrics(out, "csv")
        assert parsed and parsed[0].run_id == "rl-s2"
        assert "final_accuracy" in capsys.readouterr().out

    def test_run_byte_identical(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, FAST)
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(o1)]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[channel]\nalpha_d = 1.5\n")
        code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert "alpha_d" in capsys.readouterr().err

    def test_train_subcommand(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, FAST)
        out = tmp_path / "trace.jsonl"
        code = cli.main(
            ["train", "--config", str(cfg_path), "--out", str(out), "--format", "jsonl"]
        )
        assert code == 0
        parsed = read_metrics(out, "jsonl")
        assert len(parsed) == FAST.episodes
        assert "links" in capsys.readouterr().out

    def test_train_links_null_for_no_link(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, MIXED)
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")])
        assert code == 0
        links, _ = discover_links(MIXED, generate_scenario(MIXED))
        assert_links_json(json.loads(capsys.readouterr().out)["links"], links)

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, with_overrides(FAST, baseline="none"))
        out = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--key",
                "tau_a",
                "--values",
                "5,10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len({rec.run_id for rec in read_metrics(out, "csv")}) == 2

    def test_seed_override(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path, FAST)
        out = tmp_path / "m.csv"
        assert cli.main(["run", "--config", str(cfg_path), "--seed", "9", "--out", str(out)]) == 0
        assert read_metrics(out, "csv")[0].run_id == "rl-s9"

    def test_sweep_bad_value_exit_code(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", "--key", "episodes", "--values", "abc", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "episodes" in err and "abc" in err
        assert not out.exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert cli.main(["run", "--seed", "-1", "--out", str(out)]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_no_values_names_key(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--key", "tau_a", "--values", ",", "--out", str(out)])
        assert code == 1
        assert "key 'tau_a'" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_exit_code(self, tmp_path):
        # Unwritable output path surfaces as exit 2 after a valid config.
        cfg_path = self._write_cfg(tmp_path, with_overrides(FAST, baseline="none"))
        code = cli.main(
            ["run", "--config", str(cfg_path), "--out", "/nonexistent_dir/m.csv"]
        )
        assert code == 2
