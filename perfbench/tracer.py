"""Run the monotrack CLI with the benchmarked public functions wrapped.

    python3 perfbench/tracer.py STATS.json -- <monotrack arguments>

Run from the repository root with ``src`` on ``PYTHONPATH``.  Every
function in ``LAYERS`` is replaced by a timing wrapper under each name it
is bound to in any ``monotrack`` module, because a call site looks a
function up in its own module: ``monotrack.cli.run_track`` and
``monotrack.pipeline.run_track`` are separate bindings of one function.
A listed function that no longer exists stops the run with exit code 3,
so a refactor that renames it breaks the trace visibly.

On exit the script writes STATS.json with, per function, the number of
calls and the self time: the span's duration minus the time covered by
the wrapped calls it made.  Spans are aggregated per function as they
close instead of stored, because a workload makes tens of thousands of
them.  It also writes the counters below, taken from the arguments and
results of the wrapped calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# Layer -> (module, [(metric name, attribute)]).  Metric names are
# "<layer>.<name>"; the attribute is where the function is defined.
LAYERS: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "cli": ("monotrack.cli", [("cmd_run", "cmd_run"), ("cmd_evaluate", "cmd_evaluate")]),
    "dataio": (
        "monotrack.dataio",
        [
            (name, name)
            for name in ("parse_mot_file", "build_tracks", "attach_detections", "semi_annotate_3d")
        ],
    ),
    "sim": ("monotrack.sim", [("simulate_detections", "simulate_detections")]),
    "filters": (
        "monotrack.filters",
        [
            (name, name)
            for name in (
                "init_2d",
                "bot_init",
                "init_3d",
                "kf_predict",
                "kf_update",
                "bot_predict",
                "bot_update",
                "ukf_predict",
                "ukf_update",
                "unscented_transform",
                "sqrt_psd",
                "project_estimate",
                "linear_box_estimate",
            )
        ]
        + [("GaussianEstimate.validate", "GaussianEstimate.__post_init__")],
    ),
    "models": ("monotrack.models", [("project_state", "project_state")]),
    "metrics": (
        "monotrack.metrics",
        [(name, name) for name in ("evaluate_track", "rmse", "anees")],
    ),
    "pipeline": (
        "monotrack.pipeline",
        [
            (name, name)
            for name in (
                "run_track",
                "run_filter",
                "evaluate_runs",
                "write_estimates_csv",
                "write_metrics_csv",
                "write_summary_csv",
            )
        ],
    ),
}

FUNCTIONS = [f"{layer}.{name}" for layer, (_, entries) in LAYERS.items() for name, _ in entries]


def _count_attach(counters, bound, result):
    tracks = bound.arguments["tracks"]
    counters["dataio.matched"] += sum(
        d is not None for track in tracks.values() for d in track.detections
    )
    counters["dataio.detections"] += len(bound.arguments["det_rows"])


def _count_draws(counters, bound, result):
    counters["sim.draws"] += sum(z is not None for trial in result for z in trial)


def _count_scored(counters, bound, result):
    counters["metrics.scored"] += len(result[0].frames)
    counters["metrics.frames"] += len(bound.arguments["truths"])


def _count_failed(counters, bound, result):
    counters["pipeline.failed_runs"] += result.failure is not None


# Counters at layer boundaries, computed from a wrapped call's arguments
# and result.
COUNTERS = {
    "dataio.attach_detections": _count_attach,
    "sim.simulate_detections": _count_draws,
    "metrics.evaluate_track": _count_scored,
    "pipeline.run_filter": _count_failed,
}
COUNTER_NAMES = (
    "dataio.matched",
    "dataio.detections",
    "sim.draws",
    "metrics.scored",
    "metrics.frames",
    "pipeline.failed_runs",
)


class Tracer:
    """Per-function call counts and self time of nested wrapped calls."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        # Time covered by wrapped children, one entry per open span.
        self._child_s: list[float] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        child_s = self._child_s
        calls, self_s, counters = self.calls, self.self_s, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child_s.pop()
                calls[name] += 1
                if child_s:
                    child_s[-1] += elapsed
            if count:
                count(counters, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function under every name it is bound to."""
        importlib.import_module("monotrack.cli")
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "monotrack" or key.startswith("monotrack.")
        ]
        for layer, (module_name, entries) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name, attribute in entries:
                metric = f"{layer}.{name}"
                owner_name, _, leaf = attribute.rpartition(".")
                owner = vars(module).get(owner_name) if owner_name else module
                if owner is None or leaf not in vars(owner):
                    raise LookupError(f"{module_name}.{attribute} does not exist")
                original = vars(owner)[leaf]
                wrapped = self.wrap(metric, original)
                if owner_name:
                    setattr(owner, leaf, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def stats(self) -> dict:
        return {
            "functions": {name: [self.calls[name], self.self_s[name]] for name in FUNCTIONS},
            "counters": self.counters,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS.json -- <monotrack arguments>", file=sys.stderr)
        return 3
    stats_path = Path(argv[0])
    tracer = Tracer()
    try:
        tracer.install()
    except LookupError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 3
    cli = importlib.import_module("monotrack.cli")
    try:
        return cli.main(argv[2:])
    finally:
        stats_path.write_text(json.dumps(tracer.stats()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
