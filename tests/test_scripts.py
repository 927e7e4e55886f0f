"""Smoke tests for the scripts under scripts/, each run as a subprocess, and
for the hooks the benchmark under perfbench/ patches into the package."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import d2dfl
from d2dfl import experiment, fl, rl, scenario  # noqa: F401  (attributes of d2dfl)
from d2dfl.exchange import ExchangeResult

ROOT = Path(__file__).resolve().parent.parent
HEADER = ["seed", "baseline", "accuracy", "success", "points", "d2d_J", "d2s_J"]


def src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_compare_baselines(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_baselines.py"), *args],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )


def test_compare_baselines_tiny_config(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[scenario]\nn_devices = 4\n\n[rl]\nepisodes = 5\n\n[fl]\ntotal_steps = 20\n")
    done = run_compare_baselines("--config", str(cfg), "--seeds", "2", "--seed-start", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == HEADER
    rows = [line.split() for line in lines[1:7]]
    assert [row[:2] for row in rows] == [
        [seed, b] for seed in ("3", "4") for b in ("rl", "uniform", "none")
    ]
    means = [line.split() for line in lines if line.startswith("mean")]
    assert [m[:2] for m in means] == [["mean", "rl"], ["mean", "uniform"], ["mean", "none"]]
    for mean in means:
        # accuracy, success, points and both energies, each the mean of the
        # baseline's rows as printed (rounded)
        per_seed = [row[2:] for row in rows if row[1] == mean[1]]
        assert len(mean) == len(HEADER)
        for col, value in enumerate(mean[2:]):
            expected = sum(float(r[col]) for r in per_seed) / len(per_seed)
            assert float(value) == pytest.approx(expected, rel=2e-3, abs=1.0 if col == 2 else 1e-3)


def test_compare_baselines_rejects_no_seeds():
    done = run_compare_baselines("--seeds", "0")
    assert done.returncode == 2
    assert "--seeds must be at least 1" in done.stderr
    assert done.stdout == ""


def test_compare_baselines_config_error(tmp_path):
    done = run_compare_baselines("--config", str(tmp_path / "missing.ini"))
    assert done.returncode == 1
    assert done.stderr.startswith("config error: config file not found")
    assert "Traceback" not in done.stderr
    done = run_compare_baselines("--seed-start", "-1", "--seeds", "1")
    assert done.returncode == 1
    assert done.stderr.startswith("config error: key 'seed'")


def test_benchmark_hooks_resolve():
    """Every (module, attribute) the benchmark's spans wrap exists on the
    package, and exchange results still list their per-link plans, which the
    benchmark's checks read."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(getattr(d2dfl, module, None), attr, None))
    ]
    assert not missing, f"benchmark spans wrap missing functions: {missing}"
    assert hasattr(ExchangeResult, "plans")


def smoke_run(workload: str) -> None:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "999983", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, env=src_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_benchmark_smoke_run():
    """One traced benchmark call on the smallest workload runs every check
    the benchmark makes (captured exchanges, per-run checks, traced counts)
    and reports no failed run. Its output goes to the ignored .perfbench_out/,
    under a seed far from those benchmark sweeps start at, so that it
    overwrites no benchmark result of another seed."""
    smoke_run("paper_n10")


def test_benchmark_smoke_run_fl_workload():
    """The same on stragglers_n100, whose FL phase trains minibatch blocks
    of more than ten devices over 30 rounds under the benchmark's checks."""
    smoke_run("stragglers_n100")
