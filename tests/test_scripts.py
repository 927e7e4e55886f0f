"""Smoke tests for the scripts under scripts/, each run as a subprocess, and
for the hooks the benchmark under perfbench/ patches into the package."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import d2dfl
from d2dfl import experiment, fl, rl, scenario  # noqa: F401  (attributes of d2dfl)
from d2dfl.exchange import ExchangeResult

ROOT = Path(__file__).resolve().parent.parent
HEADER = ["seed", "baseline", "accuracy", "success", "points", "d2d_J", "d2s_J"]


def src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_compare_baselines_tiny_config(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[scenario]\nn_devices = 4\n\n[rl]\nepisodes = 5\n\n[fl]\ntotal_steps = 20\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_baselines.py"),
         "--config", str(cfg), "--seeds", "2"],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == HEADER
    means = [line.split()[:2] for line in lines if line.startswith("mean")]
    assert means == [["mean", "rl"], ["mean", "uniform"], ["mean", "none"]]


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


def test_benchmark_smoke_run():
    """One traced benchmark call on the smallest workload runs every check
    the benchmark makes (captured exchanges, per-run checks, traced counts)
    and reports no failed run. Its output goes to the ignored .perfbench_out/,
    under a seed far from those benchmark sweeps start at, so that it
    overwrites no benchmark result of another seed."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "paper_n10",
         "--seed", "999983", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, env=src_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
