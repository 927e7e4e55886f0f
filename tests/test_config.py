import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dfl.config import (
    ConfigError,
    ScenarioConfig,
    dump_config,
    load_config,
    parse_config,
    save_config,
    with_overrides,
)
from d2dfl.experiment import run_experiment
from d2dfl.scenario import generate_scenario


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_config(path) == ScenarioConfig()

    def test_partial_file_overrides_only_named_keys(self):
        cfg = parse_config("[scenario]\nn_devices = 25\n\n[fl]\nscheme = fedprox\n")
        assert cfg.n_devices == 25
        assert cfg.scheme == "fedprox"
        assert cfg.n_classes == ScenarioConfig().n_classes

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'warp_speed'"):
            parse_config("[scenario]\nwarp_speed = 9\n")

    def test_key_in_wrong_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'n_devices' in section 'channel'"):
            parse_config("[channel]\nn_devices = 12\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section 'warp'"):
            parse_config("[warp]\nx = 1\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="'n_devices'"):
            parse_config("[scenario]\nn_devices = many\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_bool_forms(self):
        assert parse_config("[rl]\nallow_no_link = false\n").allow_no_link is False
        assert parse_config("[rl]\nallow_no_link = Yes\n").allow_no_link is True


class TestValidation:
    def test_alpha_d_range_names_key(self):
        with pytest.raises(ConfigError, match="'alpha_d'"):
            parse_config("[channel]\nalpha_d = 1.5\n")

    def test_classes_per_device_bound(self):
        with pytest.raises(ConfigError, match="'classes_per_device'"):
            parse_config("[scenario]\nn_classes = 4\nclasses_per_device = 6\n")

    def test_scheme_choices(self):
        with pytest.raises(ConfigError, match="'scheme'"):
            parse_config("[fl]\nscheme = fancysgd\n")

    def test_tau_a_vs_total_steps(self):
        with pytest.raises(ConfigError, match="'total_steps'"):
            parse_config("[fl]\ntau_a = 50\ntotal_steps = 10\n")

    def test_overrides_validate(self):
        with pytest.raises(ConfigError, match="'trust_density'"):
            with_overrides(ScenarioConfig(), trust_density=1.5)
        with pytest.raises(ConfigError, match="unknown key"):
            with_overrides(ScenarioConfig(), warp=1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_names_key(self, value):
        with pytest.raises(ConfigError, match="'area_size': must be finite"):
            with_overrides(ScenarioConfig(), area_size=value)

    @pytest.mark.parametrize(
        "overrides",
        [dict(samples_per_device=1, classes_per_device=1), dict(samples_per_device=5)],
    )
    def test_empty_test_split_names_key(self, overrides):
        with pytest.raises(ConfigError, match="'test_fraction': holds out no test point"):
            with_overrides(ScenarioConfig(), **overrides)

    @pytest.mark.parametrize(
        "key, bad, kind",
        [
            ("allow_no_link", "false", "bool"),
            ("allow_no_link", 1, "bool"),
            ("n_devices", 6.0, "int"),
            ("episodes", 5.0, "int"),
            ("tau_a", 2.0, "int"),
            ("seed", True, "int"),
            ("area_size", np.True_, "float"),
            ("learning_rate", "0.1", "float"),
            ("scheme", 1, "str"),
        ],
    )
    def test_wrong_type_names_key(self, key, bad, kind):
        with pytest.raises(ConfigError, match=f"key '{key}': must be {kind} "):
            with_overrides(ScenarioConfig(), **{key: bad})

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(seed=np.int64(3)),
            dict(n_devices=np.int32(5)),
            dict(area_size=60),
            dict(learning_rate=np.float64(0.2)),
            dict(allow_no_link=np.True_),
        ],
    )
    def test_integer_and_numpy_values_accepted(self, overrides):
        cfg = with_overrides(ScenarioConfig(), **overrides)
        assert all(getattr(cfg, key) == value for key, value in overrides.items())

    def test_negative_seed_names_key(self):
        with pytest.raises(ConfigError, match="'seed': must be >= 0"):
            with_overrides(ScenarioConfig(), seed=-1)
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config("[run]\nseed = -3\n")

    def test_too_few_samples_names_key(self):
        with pytest.raises(ConfigError, match="'samples_per_device'"):
            with_overrides(ScenarioConfig(), samples_per_device=3)

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("noise_sigma2", 0.0),
            ("rate_r", -1.0),
            ("per_point_bits", 0),
            ("elec_energy_per_bit", -1.0),
            ("d2s_distance_factor", 0.0),
            ("alpha_d", 1.5),
            ("scheme", "x"),
            ("tau_a", 0),
            ("episodes", 0),
        ],
    )
    def test_scenario_generation_validates(self, key, bad):
        # A directly built config never passes through load_config or
        # with_overrides; generate_scenario is on every pipeline path.
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            generate_scenario(ScenarioConfig(**{key: bad}))


@st.composite
def small_configs(draw):
    """Overrides for tiny runs around the crash-prone corners: few points
    per device, small test fractions, few classes, every scheme, model,
    baseline and delivery mode; half of them also set one float key to a
    non-finite or zero value."""
    n_classes = draw(st.integers(1, 5))
    overrides = {
        "n_devices": draw(st.integers(2, 5)),
        "n_classes": n_classes,
        "classes_per_device": draw(st.integers(1, n_classes)),
        "samples_per_device": draw(st.integers(1, 24)),
        "skew_ratio": draw(st.floats(0.05, 1.0)),
        "trust_density": draw(st.floats(0.0, 1.0)),
        "class_threshold": draw(st.integers(0, 6)),
        "feature_dim": draw(st.integers(1, 3)),
        "area_size": draw(st.floats(1.0, 1e6)),
        "alpha_d": draw(st.floats(0.01, 0.99)),
        "shadowing_sigma": draw(st.floats(0.0, 8.0)),
        "diversity_min": draw(st.integers(0, n_classes)),
        "cluster_budget": draw(st.floats(0.0, 50.0)),
        "episodes": draw(st.integers(1, 3)),
        "allow_no_link": draw(st.booleans()),
        "scheme": draw(st.sampled_from(["fedavg", "fedprox", "fedsgd"])),
        "tau_a": draw(st.integers(1, 2)),
        "total_steps": draw(st.integers(2, 4)),
        "learning_rate": draw(st.floats(0.01, 1.0)),
        "batch_size": draw(st.integers(1, 8)),
        "weighting": draw(st.sampled_from(["data", "uniform"])),
        "straggler_fraction": draw(st.floats(0.0, 1.0)),
        "model": draw(st.sampled_from(["linear", "mlp"])),
        "hidden_units": draw(st.integers(1, 3)),
        "baseline": draw(st.sampled_from(["rl", "uniform", "none"])),
        "delivery": draw(st.sampled_from(["expected", "stochastic"])),
        "test_fraction": draw(st.floats(0.01, 0.99)),
    }
    if draw(st.booleans()):
        floats = sorted(k for k, v in overrides.items() if isinstance(v, float))
        key = draw(st.sampled_from(floats))
        overrides[key] = draw(st.sampled_from([math.inf, -math.inf, math.nan, 0.0]))
    return overrides


class TestValidatedConfigsRun:
    @settings(max_examples=150, deadline=None)
    @given(small_configs(), st.integers(-3, 3))
    def test_validates_and_runs_or_names_key(self, overrides, seed):
        try:
            cfg = with_overrides(ScenarioConfig(), seed=seed, **overrides)
        except ConfigError as exc:
            assert any(f"key {key!r}" in str(exc) for key in [*overrides, "seed"]), str(exc)
            return
        with warnings.catch_warnings():
            # A round whose devices are all stragglers or empty warns.
            warnings.simplefilter("ignore", UserWarning)
            result = run_experiment(cfg)
        assert len(result.fl_trace.accuracy) == cfg.total_steps // cfg.tau_a


class TestRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        cfg = ScenarioConfig()
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_modified_round_trip(self, tmp_path):
        cfg = with_overrides(
            ScenarioConfig(),
            n_devices=14,
            noise_sigma2=3.2e-5,
            trust_density=0.625,
            scheme="fedsgd",
            allow_no_link=True,
            seed=991,
        )
        path = tmp_path / "cfg.ini"
        save_config(cfg, path)
        again = load_config(path)
        assert again == cfg
        save_config(again, path)
        assert load_config(path) == cfg

    def test_dump_format_pinned(self):
        # Section names, key order and value spelling of the default file;
        # a key moved to another section changes the digest.
        text = dump_config(ScenarioConfig())
        assert len(text.splitlines()) == 57
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b9e1f920941120d1d90f5dadb798ff3aee4ca340fd8515e25e8e770d12d3f4b7"
        )

    def test_dump_is_parseable_text(self):
        text = dump_config(ScenarioConfig())
        assert "[scenario]" in text and "[run]" in text
        assert parse_config(text) == ScenarioConfig()
