import hashlib
import json
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import peak_units

from d2dfl import cli, experiment, fl, rl
from d2dfl.config import ConfigError, ScenarioConfig, save_config, with_overrides
from d2dfl.exchange import run_exchange
from d2dfl.experiment import (
    CSV_HEADER,
    MetricsRecord,
    emit_metrics,
    fl_batches,
    read_metrics,
    render_metrics,
    rl_batches,
    run_experiment,
    run_experiments,
    sweep_experiment,
)
from d2dfl.network import SCALAR_BITS, energy_cost, pairwise_distances, transmit_energy
from d2dfl.rl import inter_cluster_load
from d2dfl.scenario import draw_points, generate_scenario

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
        cfg = res.scenario.config
        n = cfg.n_devices
        probe = generate_scenario(cfg)
        draw_points(probe)
        signaling = cfg.episodes * n * (n - 1) * transmit_energy(
            SCALAR_BITS, probe.mean_distance, cfg
        )
        from d2dfl.scenario import materialize_exchange, named_rng

        result = materialize_exchange(probe, res.links, named_rng(cfg.seed, "exchange"))
        distances = pairwise_distances(probe.positions)
        transfer = sum(
            energy_cost(
                int(p.buffered.sum()),
                float(distances[p.receiver, p.transmitter]),
                cfg,
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
                cfg,
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

    @pytest.mark.parametrize(
        "keys",
        [
            {"baseline": "rl"},
            {"baseline": "uniform"},
            {"baseline": "none"},
            {"baseline": "rl", "straggler_fraction": 0.4},
        ],
    )
    def test_summary_equals_last_fl_record(self, keys):
        res = run_experiment(with_overrides(FAST, **keys))
        summary = res.summary
        fl_records = [rec for rec in res.records if rec.phase == "fl"]
        last = fl_records[-1]
        assert summary["d2d_energy_j"] == last.d2d_energy_j
        assert summary["d2s_energy_j"] == last.d2s_energy_j
        assert summary["mean_link_success"] == last.mean_link_success
        assert tuple(summary["cluster_load"]) == last.cluster_load
        assert len(summary["stragglers"]) == last.stragglers
        assert summary["final_accuracy"] == last.test_accuracy
        assert summary["rounds"] == len(fl_records) == last.step + 1


    def test_policy_tables_die_before_points_are_drawn(self, monkeypatch):
        # Only the graph readout reads the tables: they are gone when the
        # exchange stage draws the points, and the result keeps RL's trace.
        tables, alive_at_draw = [], []
        train_runs, draw = rl.train_runs, experiment.draw_points

        def tracked(*args):
            results = train_runs(*args)
            tables.extend(weakref.ref(r.policies.totals.base) for r in results)
            return results

        def draw_points(scenario):
            alive_at_draw.append(any(ref() is not None for ref in tables))
            draw(scenario)

        monkeypatch.setattr(rl, "train_runs", tracked)
        monkeypatch.setattr(experiment, "draw_points", draw_points)
        res = run_experiment(FAST)
        assert tables and alive_at_draw == [False]
        assert type(res.rl_result) is rl.RlTrace

    def test_peak_memory_at_n200(self):
        # Units of one (200, 200) float64 array. An rl run peaks in FL at
        # 16.5; keeping its two policy tables until then peaked at 18.5.
        cfg = with_overrides(ScenarioConfig(), n_devices=200, episodes=10)
        cfg = with_overrides(cfg, total_steps=cfg.tau_a)
        assert peak_units(lambda: run_experiment(cfg), 200) < 17.5


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

    def test_batches_split_on_every_batch_key(self):
        # Each config differs from FAST in one rl.BATCH_KEY key, so each
        # trains alone: train_runs refuses a batch that mixes them.
        changed = {"n_devices": 6, "n_classes": 5, "episodes": 7, "allow_no_link": True}
        assert tuple(changed) == rl.BATCH_KEY
        cfgs = [FAST] + [with_overrides(FAST, **{k: v}) for k, v in changed.items()]
        assert rl_batches(cfgs + [FAST]) == [[0, 5], [1], [2], [3], [4]]

    def test_fl_batches_split_on_every_batch_key(self):
        # Each config differs from FAST in one fl.BATCH_KEY key, so each
        # runs its FL alone: run_fl_runs refuses a batch that mixes them.
        changed = {
            "model": "mlp", "feature_dim": 5, "n_classes": 5, "hidden_units": 3,
            "scheme": "fedprox", "tau_a": 5, "total_steps": 20, "learning_rate": 0.5,
            "prox_mu": 0.2, "batch_size": 4,
        }
        assert tuple(changed) == fl.BATCH_KEY
        cfgs = [FAST] + [with_overrides(FAST, **{k: v}) for k, v in changed.items()]
        assert fl_batches(cfgs + [FAST]) == [[0, 11]] + [[i] for i in range(1, 11)]
        scenario = generate_scenario(FAST)
        for key, cfg in zip(changed, cfgs[1:]):
            with pytest.raises(ValueError, match=f"share {key!r}"):
                fl.run_fl_runs(
                    [scenario, replace(scenario, config=cfg)],
                    [np.random.default_rng(0), np.random.default_rng(1)], [frozenset()] * 2,
                )

    def test_fl_batches_cap_mixed_sizes(self, monkeypatch):
        # Runs of 5 and 6 devices and every baseline share an FL batch up
        # to a cap on their summed N**2 cells, here exactly 5*5 + 5*5 + 6*6;
        # rl batch [0, 4] trains across FL batches [0, 1, 2] and [3, 4, 5].
        cfgs = [
            with_overrides(FAST, n_devices=n, baseline=b, seed=s)
            for n, b, s in [
                (5, "rl", 0), (5, "uniform", 1), (6, "none", 2), (6, "rl", 3),
                (5, "rl", 4), (5, "uniform", 5),
            ]
        ]
        assert fl_batches(cfgs) == [[0, 1, 2, 3, 4, 5]]
        monkeypatch.setattr(rl, "BATCH_CELLS", 2 * 5 * 5 + 6 * 6)
        assert fl_batches(cfgs) == [[0, 1, 2], [3, 4, 5]]
        assert rl_batches(cfgs) == [[0, 4], [3]]
        for cfg, res in zip(cfgs, run_experiments(cfgs), strict=True):
            alone = run_experiment(cfg)
            assert render_metrics(res.records) == render_metrics(alone.records)
            assert res.summary == alone.summary

    def test_mixed_list_bytes_equal_runs_one_by_one(self):
        # rl at two tau_a and with stragglers, one rl batch split into two
        # FL batches; the uniform and none runs in between join the first.
        cfgs = [
            FAST,
            with_overrides(FAST, baseline="uniform", seed=3),
            with_overrides(FAST, tau_a=5, seed=4),
            with_overrides(FAST, straggler_fraction=0.4, seed=5),
            with_overrides(FAST, baseline="none", seed=6),
            with_overrides(FAST, tau_a=5, seed=7),
        ]
        assert fl_batches(cfgs) == [[0, 1, 3, 4], [2, 5]]
        results = list(run_experiments(cfgs))
        for cfg, res in zip(cfgs, results, strict=True):
            alone = run_experiment(cfg)
            assert render_metrics(res.records, "csv") == render_metrics(alone.records, "csv")
            assert render_metrics(res.records, "jsonl") == render_metrics(alone.records, "jsonl")
            assert res.summary == alone.summary
        assert results[3].summary["stragglers"]

    def test_exchanges_materialize_in_config_order(self, monkeypatch):
        # The benchmark's capture_exchanges pairs the exchanges it captures
        # with the configs in this order.
        seen = []
        original = experiment.materialize_exchange

        def materialize(scenario, *args):
            seen.append(scenario.config)
            return original(scenario, *args)

        monkeypatch.setattr(experiment, "materialize_exchange", materialize)
        cfgs = [
            FAST,
            with_overrides(FAST, baseline="uniform"),
            with_overrides(FAST, seed=3),
            with_overrides(FAST, baseline="none"),
            with_overrides(FAST, seed=4, tau_a=5),
        ]
        assert rl_batches(cfgs) == [[0, 2, 4]]
        assert len(list(run_experiments(cfgs))) == len(cfgs)
        assert seen == cfgs

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

    @pytest.mark.parametrize(
        "text, named",
        [
            (b"[DEFAULT]\nseed = 5\n", "'seed'"),
            (b"[fl]\nscheme = fed%avg\n", "'scheme'"),
            (b"[run]\nseed = \xff\n", "bad.ini"),
        ],
        ids=["default-section", "percent", "not-utf8"],
    )
    def test_config_file_error_exit_code(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(text)
        code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_config_directory_exit_code(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert str(tmp_path) in capsys.readouterr().err

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

    def test_train_draws_no_points(self, tmp_path, monkeypatch):
        def no_points(*args):
            raise AssertionError("train drew data points")

        monkeypatch.setattr(fl, "dataset_from_counts", no_points)
        cfg_path = self._write_cfg(tmp_path, FAST)
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 0

    def test_train_links_null_for_no_link(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, MIXED)
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")])
        assert code == 0
        links = run_experiment(MIXED).links
        assert_links_json(json.loads(capsys.readouterr().out)["links"], links)

    @pytest.mark.parametrize("cfg", [FAST, MIXED], ids=["fast", "mixed"])
    def test_train_rows_equal_run_rl_rows(self, tmp_path, cfg):
        # One record builder serves both commands: the same episodes, budget
        # slack and reward-signaling energy, under a different run id.
        cfg_path = self._write_cfg(tmp_path, cfg)
        train_out, run_out = tmp_path / "train.csv", tmp_path / "run.csv"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(train_out)]) == 0
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(run_out)]) == 0
        trained = read_metrics(train_out)
        ran = [rec for rec in read_metrics(run_out) if rec.phase == "rl"]
        assert {rec.run_id for rec in trained} == {f"train-s{cfg.seed}"}
        assert len(trained) == cfg.episodes
        assert [replace(rec, run_id="") for rec in trained] == [
            replace(rec, run_id="") for rec in ran
        ]
        assert trained[0].d2d_energy_j > 0

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


def readme_digests() -> tuple[str, dict[str, str]]:
    """The numpy version and the per-baseline metrics digests the README
    lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    version = re.search(r"The current digests \(numpy (\d+\.\d+)\)", text).group(1)
    digests = dict(re.findall(r"^(rl|uniform|none) +([0-9a-f]{64})$", text, re.MULTILINE))
    return version, digests


class TestReadmeDigests:
    """Seeds 0-9 of the default config per baseline, rendered as CSV and
    joined in seed order, hash to the README's digests: the same bytes as
    the README's shell loop over `d2dfl run`."""

    @pytest.mark.parametrize("baseline", ["rl", "uniform", "none"])
    def test_metrics_digest(self, baseline):
        version, digests = readme_digests()
        if not np.__version__.startswith(version + "."):
            pytest.skip(f"digests are pinned for numpy {version}, not {np.__version__}")
        cfgs = [with_overrides(ScenarioConfig(), baseline=baseline, seed=s) for s in range(10)]
        text = "".join(render_metrics(res.records) for res in run_experiments(cfgs))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[baseline]
