"""In-memory spans around calls into the simulator's modules.

Each public function is replaced, for the duration of a `Tracer.patched()`
block, at the module attribute its caller looks up, so `rl.run_exchange` and
`scenario.run_exchange` are told apart although they are the same function.
A span is (name, start, end, parent index). Self time is a span's duration
minus the durations of its direct child spans. Spans stay in memory until
`dump` writes them out when the benchmark ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute looked up by the caller, span name). The span name's
# first part is the module that owns the function: the layer.
TARGETS = (
    ("experiment", "run_experiment", "experiment.run_experiment"),
    ("experiment", "generate_scenario", "scenario.generate_scenario"),
    ("experiment", "materialize_exchange", "scenario.materialize_exchange"),
    ("experiment", "uniform_baseline_links", "scenario.uniform_baseline_links"),
    ("scenario", "generate_rss", "network.generate_rss"),
    ("scenario", "drop_matrix", "network.drop_matrix"),
    ("scenario", "partition_clusters", "network.partition_clusters"),
    ("scenario", "pairwise_distances", "network.pairwise_distances"),
    ("scenario", "run_exchange", "exchange.run_exchange.materialize"),
    ("rl", "train", "rl.train"),
    ("rl", "sample_links", "rl.sample_links"),
    ("rl", "run_episode", "rl.run_episode"),
    ("rl", "run_exchange", "exchange.run_exchange.rl"),
    ("rl", "extract_graph", "rl.extract_graph"),
    # rl.update_policy is left unwrapped: it runs N times per episode and a
    # wrapper would cost more than the function.
    ("fl", "run_fl", "fl.run_fl"),
    ("fl", "local_train", "fl.local_train"),
    ("fl", "aggregate", "fl.aggregate"),
    ("fl", "evaluate", "fl.evaluate"),
)


class Tracer:
    """Collects spans and the return values of selected calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.returns: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, keep_return: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        returns = self.returns[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if keep_return:
                returns.append(result)
            return result

        return traced

    @contextmanager
    def patched(self, package, keep_returns=()):
        """Wrap every target in `package` (the imported d2dfl package) for
        the duration of the block; the original functions come back after."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, name in keep_returns))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, start: int = 0) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds, over the
        spans from index `start` on (a top-level call's first span)."""
        window = self.spans[start:]
        child = defaultdict(float)
        for name, t0, t1, parent in window:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for _, _, name in TARGETS
        }
        for offset, (name, t0, t1, _) in enumerate(window):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[start + offset]
        return out

    def dump(self, path: Path) -> None:
        """Write every span as [name, start_s, end_s, parent]."""
        path.write_text(json.dumps({"spans": self.spans}))
