"""Scenario configuration: a flat dataclass backed by a sectioned key/value
(INI) file.

Every key has a documented default; an empty file is a valid config. Unknown
sections or keys are rejected, and validation errors always name the
offending key. Configs round-trip exactly through save_config/load_config.
"""
from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Raised for unparsable files, unknown keys, or mistyped or out-of-range
    values."""


@dataclass
class ScenarioConfig:
    # [scenario] devices, data skew and trust
    n_devices: int = 10
    n_classes: int = 8
    classes_per_device: int = 4
    samples_per_device: int = 200
    skew_ratio: float = 0.4
    trust_density: float = 0.8
    class_threshold: int = 15
    feature_dim: int = 8
    feature_spread: float = 3.0
    feature_noise: float = 1.0
    area_size: float = 60.0

    # [channel]
    alpha_d: float = 0.35
    rate_r: float = 1.0
    noise_sigma2: float = 1e-4
    pathloss_exponent: float = 2.5
    ref_power: float = 1.0
    shadowing_sigma: float = 0.0

    # [energy]
    per_point_bits: int = 512
    elec_energy_per_bit: float = 50e-9
    amp_energy_per_bit_per_dist2: float = 100e-12
    d2s_distance_factor: float = 3.0

    # [rewards]
    alpha1: float = 1.0
    alpha2: float = 2.0
    alpha3: float = 0.01
    gamma: float = 0.5
    diversity_min: int = 5
    cluster_budget: float = 120.0

    # [rl]
    episodes: int = 1500
    allow_no_link: bool = False

    # [fl]
    scheme: str = "fedavg"
    tau_a: int = 10
    total_steps: int = 300
    learning_rate: float = 0.1
    prox_mu: float = 0.1
    batch_size: int = 32
    weighting: str = "data"
    straggler_fraction: float = 0.0
    model: str = "linear"
    hidden_units: int = 16

    # [run]
    baseline: str = "rl"
    delivery: str = "stochastic"
    test_fraction: float = 0.2
    seed: int = 0


# Each section's first key. A section holds the fields from its first key up
# to the next section's, in ScenarioConfig's order, and is written in that
# order: a key's section follows from its place in the dataclass.
_SECTION_STARTS = {
    "scenario": "n_devices",
    "channel": "alpha_d",
    "energy": "per_point_bits",
    "rewards": "alpha1",
    "rl": "episodes",
    "fl": "scheme",
    "run": "baseline",
}


def _sections() -> dict[str, tuple[str, ...]]:
    names = [f.name for f in fields(ScenarioConfig)]
    bounds = [names.index(key) for key in _SECTION_STARTS.values()] + [len(names)]
    return {sec: tuple(names[a:b]) for sec, a, b in zip(_SECTION_STARTS, bounds, bounds[1:])}


_SECTIONS = _sections()
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
# The value types each field type takes. A bool (Python's or numpy's) fills
# only bool fields, although Python counts it as an int.
_KIND_TYPES = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "bool": (bool, np.bool_),
    "str": str,
}

_CHOICES = {
    "scheme": ("fedavg", "fedprox", "fedsgd"),
    "weighting": ("data", "uniform"),
    "model": ("linear", "mlp"),
    "baseline": ("rl", "uniform", "none"),
    "delivery": ("expected", "stochastic"),
}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc


def class_allocation(cfg: ScenarioConfig) -> np.ndarray:
    """Points a device holds in each of its drawn classes, largest first.

    Successive chosen classes get skew_ratio times the previous class's
    share (1.0 = even split), so local distributions are skewed within the
    subset as well as across it. Shares are rounded with largest remainders
    so each budget is spent exactly, and every drawn class keeps at least
    one point (taken from the largest share), so extreme skew ratios still
    touch classes_per_device classes; the first entry is below 1 when
    samples_per_device cannot cover that.
    """
    shares = cfg.skew_ratio ** np.arange(cfg.classes_per_device)
    shares = shares / shares.sum() * cfg.samples_per_device
    floors = np.floor(shares).astype(np.int64)
    remainder_order = np.argsort(-(shares - floors), kind="stable")
    leftover = cfg.samples_per_device - floors.sum()
    alloc = floors.copy()
    alloc[remainder_order[:leftover]] += 1
    short = alloc == 0
    alloc[short] = 1
    alloc[0] -= short.sum()
    return alloc


def held_out(n_points: int | np.ndarray, test_fraction: float) -> np.int64 | np.ndarray:
    """Points of one class a device gives to the pooled test split, per entry of an array."""
    return np.rint(np.multiply(n_points, test_fraction)).astype(np.int64)


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every value's type and every invariant; raise ConfigError
    naming the first bad key."""

    def need(cond: bool, key: str, rule: str):
        if not cond:
            raise ConfigError(f"key {key!r}: {rule} (got {getattr(cfg, key)!r})")

    for key, kind in _FIELD_TYPES.items():
        value = getattr(cfg, key)
        is_bool = isinstance(value, _KIND_TYPES["bool"])
        typed = is_bool == (kind == "bool") and isinstance(value, _KIND_TYPES[kind])
        need(typed, key, f"must be {kind}")
        if kind == "float":
            need(math.isfinite(value), key, "must be finite")
    need(cfg.n_devices >= 2, "n_devices", "must be >= 2")
    need(cfg.n_classes >= 1, "n_classes", "must be >= 1")
    need(
        1 <= cfg.classes_per_device <= cfg.n_classes,
        "classes_per_device",
        "must lie in [1, n_classes]",
    )
    need(cfg.samples_per_device >= 1, "samples_per_device", "must be >= 1")
    need(0.0 < cfg.skew_ratio <= 1.0, "skew_ratio", "must lie in (0, 1]")
    need(0.0 <= cfg.trust_density <= 1.0, "trust_density", "must lie in [0, 1]")
    need(cfg.class_threshold >= 0, "class_threshold", "must be >= 0")
    need(cfg.feature_dim >= 1, "feature_dim", "must be >= 1")
    need(cfg.feature_spread > 0, "feature_spread", "must be > 0")
    need(cfg.feature_noise > 0, "feature_noise", "must be > 0")
    need(cfg.area_size > 0, "area_size", "must be > 0")
    need(0.0 < cfg.alpha_d < 1.0, "alpha_d", "must lie in (0, 1)")
    need(cfg.rate_r >= 0, "rate_r", "must be >= 0")
    need(cfg.noise_sigma2 > 0, "noise_sigma2", "must be > 0")
    need(cfg.ref_power > 0, "ref_power", "must be > 0")
    need(cfg.shadowing_sigma >= 0, "shadowing_sigma", "must be >= 0")
    need(cfg.per_point_bits >= 1, "per_point_bits", "must be >= 1")
    need(cfg.elec_energy_per_bit >= 0, "elec_energy_per_bit", "must be >= 0")
    need(
        cfg.amp_energy_per_bit_per_dist2 >= 0,
        "amp_energy_per_bit_per_dist2",
        "must be >= 0",
    )
    need(cfg.d2s_distance_factor > 0, "d2s_distance_factor", "must be > 0")
    for key in ("alpha1", "alpha2", "alpha3", "gamma"):
        need(getattr(cfg, key) >= 0, key, "must be >= 0")
    need(
        0 <= cfg.diversity_min <= cfg.n_classes,
        "diversity_min",
        "must lie in [0, n_classes]",
    )
    need(cfg.cluster_budget >= 0, "cluster_budget", "must be >= 0")
    need(cfg.episodes >= 1, "episodes", "must be >= 1")
    need(cfg.tau_a >= 1, "tau_a", "must be >= 1")
    need(cfg.total_steps >= cfg.tau_a, "total_steps", "must be >= tau_a")
    need(cfg.learning_rate > 0, "learning_rate", "must be > 0")
    need(cfg.prox_mu >= 0, "prox_mu", "must be >= 0")
    need(cfg.batch_size >= 1, "batch_size", "must be >= 1")
    need(0.0 <= cfg.straggler_fraction <= 1.0, "straggler_fraction", "must lie in [0, 1]")
    need(cfg.hidden_units >= 1, "hidden_units", "must be >= 1")
    need(0.0 < cfg.test_fraction < 1.0, "test_fraction", "must lie in (0, 1)")
    need(cfg.seed >= 0, "seed", "must be >= 0")
    for key, choices in _CHOICES.items():
        need(getattr(cfg, key) in choices, key, f"must be one of {choices}")
    alloc = class_allocation(cfg)
    need(alloc[0] >= 1, "samples_per_device", "too small for classes_per_device at this skew_ratio")
    need(
        any(held_out(int(a), cfg.test_fraction) for a in alloc),
        "test_fraction",
        f"holds out no test point from {cfg.samples_per_device} samples_per_device",
    )
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a UTF-8 config file; missing keys take defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate config text. Values are read literally (no %
    interpolation), and a [DEFAULT] section is rejected: configparser would
    copy its keys into every other section."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    first = next(iter(parser.defaults()), None)
    if first is not None:
        raise ConfigError(f"section {parser.default_section!r} is not allowed (key {first!r})")
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            values[key] = _parse_value(key, raw)
    return validate_config(ScenarioConfig(**values))


def dump_config(cfg: ScenarioConfig) -> str:
    """Serialize every key (floats via repr, so values round-trip exactly)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser[section] = {key: repr(getattr(cfg, key)).strip("'") for key in keys}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(dump_config(cfg))


def batch_key(cfg: ScenarioConfig, keys: tuple[str, ...]) -> tuple:
    """cfg's values of keys: runs whose configs give equal tuples may train
    together."""
    return tuple(getattr(cfg, key) for key in keys)


def check_batch(cfgs: list[ScenarioConfig], keys: tuple[str, ...]) -> None:
    """Reject configs of runs trained together that differ on one of keys,
    naming the first such key."""
    for key in keys:
        if len({getattr(cfg, key) for cfg in cfgs}) > 1:
            raise ValueError(f"runs trained together must share {key!r}")


def with_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Copy with named fields replaced, revalidated."""
    for key in overrides:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
    return validate_config(replace(cfg, **overrides))
