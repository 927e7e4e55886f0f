"""Benchmark for the d2dfl simulator: host time and memory of seed sweeps.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_n10 --seed 0 --seconds 30 --trace 0

Each workload makes `experiment.sweep_experiment(base_cfg, "seed", seeds)`
calls over `seeds_per_call` consecutive seeds starting at --seed, the path
`d2dfl sweep` takes. The same call is repeated until --seconds are spent
(at least twice), in this one process, with no worker threads or processes.
Every call's output is checked run by run (see checks.py) and must be
byte-identical to the first call's.

--trace 0 prints the end-to-end metrics: setup_s (median over this process
and fresh-interpreter set-ups), wall_s (median seconds per call) and
peak_rss_mb. --trace 1 alternates untraced calls with calls whose module
functions are wrapped (see spans.py) and prints the per-layer metrics,
counts per call and median seconds per call. The last stdout line is the
JSON result; the line before it holds the run manifest and the sha256 of
the rendered metrics bytes. Details and spans go to .perfbench_out/.
Why the workloads and metrics are what they are: perfbench/README.md.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import capture_exchanges, check_call  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "paper_n10": {"overrides": {}, "seeds_per_call": 3},
    "stragglers_n100": {
        "overrides": {"n_devices": 100, "baseline": "uniform", "straggler_fraction": 0.3},
        "seeds_per_call": 2,
    },
    "scale_n300": {"overrides": {"n_devices": 300, "episodes": 100}, "seeds_per_call": 1},
}
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
MIN_CALLS = 2  # the repeat check needs a second call
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up seconds and exit (used for the set-up samples)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import numpy and d2dfl from this checkout's src/; exit if absent."""
    if not (SRC / "d2dfl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no d2dfl sources at {SRC / 'd2dfl'}")
    sys.path.insert(0, str(SRC))
    import numpy

    import d2dfl
    from d2dfl import experiment, fl, rl, scenario  # noqa: F401  (patched by spans.py)

    if not Path(d2dfl.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported d2dfl from {d2dfl.__file__}, not {SRC}")
    return numpy, d2dfl


def prepare(d2dfl, workload: str, seed: int):
    """Build the sweep's configs and warm up on a 4-device run."""
    from d2dfl.config import ScenarioConfig, with_overrides

    spec = WORKLOADS[workload]
    base = with_overrides(ScenarioConfig(), seed=seed, **spec["overrides"])
    seeds = [str(seed + k) for k in range(spec["seeds_per_call"])]
    cfgs = [with_overrides(base, seed=int(s)) for s in seeds]
    warm = with_overrides(
        base, n_devices=4, episodes=min(base.episodes, 5), total_steps=base.tau_a
    )
    d2dfl.run_experiment(warm, run_id="warm-up")
    return base, seeds, cfgs


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def manifest(numpy) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "d2dfl").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        blas = f"unavailable: {exc!r}"
    return {
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def run_call(d2dfl, base, seeds, cfgs, scratch: Path, tracer: Tracer | None) -> dict:
    """Time one sweep call and check its output."""
    experiment = d2dfl.experiment
    first_span = len(tracer.spans) if tracer else 0
    first_fl = len(tracer.returns["fl.run_fl"]) if tracer else 0
    patch = tracer.patched(d2dfl, keep_returns=("fl.run_fl",)) if tracer else nullcontext()
    error = None
    with capture_exchanges(experiment) as exchanges, patch:
        start = time.perf_counter()
        try:
            records, summaries = experiment.sweep_experiment(base, "seed", seeds)
        except Exception:
            error = traceback.format_exc(limit=5)
        wall = time.perf_counter() - start
    call = {"wall_s": wall, "traced": bool(tracer), "sha256": None}
    if tracer:
        call["layers"] = layer_metrics(tracer, first_span, first_fl, cfgs, exchanges)
    call["run_ids"] = [f"{c.baseline}-s{c.seed}-seed={s}" for c, s in zip(cfgs, seeds)]
    if error is None:
        try:
            call["failures"] = check_call(experiment, cfgs, records, summaries, exchanges, scratch)
        except Exception:
            error = traceback.format_exc(limit=5)
        call["sha256"] = hashlib.sha256(experiment.render_metrics(records).encode()).hexdigest()
    if error is not None:
        call["failures"] = {run_id: [error] for run_id in call["run_ids"]}
    return call


def layer_metrics(tracer: Tracer, first_span: int, first_fl: int, cfgs, exchanges) -> dict:
    """Per-layer metrics of one traced sweep call."""
    totals = tracer.totals(first_span)
    out: dict[str, float] = {}
    for name, row in totals.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    episodes = sum(c.episodes for c in cfgs if c.baseline == "rl")
    rl_s = totals["rl.train"]["total_s"]
    out["rl.episodes_per_s"] = episodes / rl_s if rl_s > 0 else 0.0
    steps = sum(c.n_devices * (c.total_steps // c.tau_a) * c.tau_a for c in cfgs)
    fl_s = totals["fl.run_fl"]["total_s"]
    out["fl.device_steps_per_s"] = steps / fl_s if fl_s > 0 else 0.0
    aggregated = sum(sum(t.participants) for t in tracer.returns["fl.run_fl"][first_fl:])
    trained = totals["fl.local_train"]["calls"]
    out["fl.participation"] = aggregated / trained if trained else 0.0
    plans = [p for ex in exchanges for p in ex.plans]
    out["exchange.links"] = len(plans)
    out["exchange.points_requested"] = int(sum(p.requested.sum() for p in plans))
    out["exchange.points_sent"] = int(sum(p.buffered.sum() for p in plans))
    out["exchange.points_delivered"] = int(sum(p.delivered.sum() for p in plans))
    sent = out["exchange.points_sent"]
    out["exchange.delivered_per_sent"] = out["exchange.points_delivered"] / sent if sent else 0.0
    return out


def per_layer_result(calls: list[dict], metric_names: list[str]) -> tuple[dict, list[str]]:
    """Counts from the first traced call (they must repeat), times and rates
    as medians over traced calls, and the tracing overhead."""
    traced = [c for c in calls if c["traced"]]
    untraced = [c for c in calls if not c["traced"]]
    problems = []
    first = traced[0]["layers"]
    for call in traced[1:]:
        for name, value in call["layers"].items():
            if isinstance(value, int) and value != first[name]:
                problems.append(f"{name} was {value} in a later traced call, {first[name]} in the first")
    values = {}
    for name, value in first.items():
        if isinstance(value, int):
            values[name] = value
        else:
            values[name] = statistics.median(c["layers"][name] for c in traced)
    values["bench.tracing_overhead"] = (
        statistics.median(c["wall_s"] for c in traced)
        / statistics.median(c["wall_s"] for c in untraced)
        - 1.0
    )
    return {name: values[name] for name in metric_names}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    numpy, d2dfl = import_program()
    base, seeds, cfgs = prepare(d2dfl, args.workload, args.seed)
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(own_setup))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    setups = [own_setup] if args.trace else setup_samples(args, own_setup)

    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()[0]
    tracer = Tracer() if args.trace else None
    calls: list[dict] = []
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        begin = time.perf_counter()
        # --trace 1 alternates untraced and traced calls so that both see
        # the same machine speed; the overhead is their ratio.
        per_round = 2 if tracer else 1
        while True:
            for k in range(per_round):
                calls.append(run_call(d2dfl, base, seeds, cfgs, Path(scratch),
                                      tracer if k == 1 else None))
            round_s = statistics.median(
                sum(c["wall_s"] for c in calls[i:i + per_round])
                for i in range(0, len(calls), per_round)
            )
            elapsed = time.perf_counter() - begin
            if len(calls) >= MIN_CALLS and elapsed + round_s > args.seconds:
                break
    load_end = os.getloadavg()[0]

    reference = next((c["sha256"] for c in calls if c["sha256"] is not None), None)
    failed_runs: dict[str, list[str]] = {}
    for index, call in enumerate(calls):
        failures = dict(call["failures"])
        if call["sha256"] is not None and call["sha256"] != reference:
            for run_id in call["run_ids"]:
                failures.setdefault(run_id, []).append(
                    "metrics bytes differ from the first call's")
        for run_id, msgs in failures.items():
            failed_runs[f"call{index}:{run_id}"] = msgs
    attempted, failed = len(calls) * len(cfgs), len(failed_runs)

    if tracer:
        metrics, problems = per_layer_result(calls, [m["name"] for m in bench["per_layer"]])
        if problems:
            failed_runs["traced counts"] = problems
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(c["wall_s"] for c in calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    correct = not failed_runs and reference is not None

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seeds": seeds,
        "metrics_sha256": reference,
        "loadavg_1m": {"start": load_start, "end": load_end},
        "manifest": manifest(numpy),
    }
    details = dict(info)
    details.update(
        setup_samples_s=setups,
        calls=[{"wall_s": c["wall_s"], "traced": c["traced"]} for c in calls],
        failures=failed_runs,
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer:
        tracer.dump(OUT / f"{stem}-spans.json")
    for key, msgs in failed_runs.items():
        print(f"FAILED {key}: {msgs[0].strip()}", file=sys.stderr)

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
