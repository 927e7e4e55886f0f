"""Smoke tests for the scripts under scripts/, each run as a subprocess."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = ["seed", "baseline", "accuracy", "success", "points", "d2d_J", "d2s_J"]


def test_compare_baselines_tiny_config(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[scenario]\nn_devices = 4\n\n[rl]\nepisodes = 5\n\n[fl]\ntotal_steps = 20\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_baselines.py"),
         "--config", str(cfg), "--seeds", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == HEADER
    means = [line.split()[:2] for line in lines if line.startswith("mean")]
    assert means == [["mean", "rl"], ["mean", "uniform"], ["mean", "none"]]
