"""The monotrack benchmark: the real CLI on three workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; nothing needs installing, the CLI runs from
``src``.  Workloads (see ``perfbench/README.md`` for why each exists):

* ``mc-trials``   - ``monotrack run --trials`` on one 600-frame track.
* ``real-tracks`` - ``monotrack run`` on real detections of many tracks.
* ``mc-evaluate`` - ``monotrack evaluate`` on each estimates CSV of an
  ``mc-trials``-shaped run.

Each run first sets the workload up from the seed, several times
(generate the sequence, plus the producing run for ``mc-evaluate``), then
invokes the CLI as a child process, one invocation at a time (a closed
loop with one client), in rounds that cover every input of the workload,
until ``--seconds`` have passed.  With ``--trace 1`` the rounds alternate
between plain and traced invocations (``perfbench/tracer.py``) and the
result holds the per-layer metrics and the tracing overhead instead of
the end-to-end metrics.

Every invocation's outputs are checked: repeated and traced invocations
must write byte-identical files, every (filter, space) summary row must
cover the whole track, and ``evaluate`` must reproduce the producing
run's metric columns exactly.  An invocation that fails a check counts
its operations as failed.

The last line of standard output is the result as one JSON object; the
line before it is a record of the inputs, seeds, environment and raw
samples.  Exit codes: 0 with a result, 2 when the repository's sources
are missing or set-up fails, 3 when a function the workload must call
recorded no traced call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import COUNTER_NAMES, FUNCTIONS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
REQUIRED = (ROOT / "src" / "monotrack" / "cli.py", ROOT / "tests" / "conftest.py")
# Set-up repeats until both minimums are met; setup_s is their median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
INVOCATION_TIMEOUT_S = 120.0
FILTERS = ("kf2d", "bot", "ukf3d")
SUMMARY_ROWS = {("kf2d", "bb"), ("bot", "bb"), ("ukf3d", "bb"), ("ukf3d", "3d")}
LIMITS = (
    "per-process rusage of each CLI child only (os.wait4); "
    "no machine-wide profiling; no page-cache dropping; "
    "other tenants of the machine are not controlled"
)


@dataclass(frozen=True)
class Workload:
    tracks: int
    frames: int
    trials: int  # 0 runs on the sequence's own detections
    evaluate: bool = False
    # Traced functions that must record a call; the rest may stay at 0.
    expected: frozenset[str] = frozenset()


_NOT_EVALUATE = frozenset(FUNCTIONS) - {"cli.cmd_evaluate"}

WORKLOADS = {
    "mc-trials": Workload(tracks=1, frames=600, trials=2, expected=_NOT_EVALUATE),
    "real-tracks": Workload(
        tracks=6,
        frames=300,
        trials=0,
        expected=_NOT_EVALUATE - {"sim.simulate_detections"},
    ),
    "mc-evaluate": Workload(
        tracks=1,
        frames=600,
        trials=4,
        evaluate=True,
        expected=frozenset(
            {
                "cli.cmd_evaluate",
                "dataio.parse_mot_file",
                "dataio.build_tracks",
                "dataio.semi_annotate_3d",
                "metrics.evaluate_track",
                "metrics.rmse",
                "metrics.anees",
                "pipeline.write_metrics_csv",
            }
        ),
    ),
}


class SetupError(Exception):
    """Inputs could not be made; exit code 2."""


class TraceError(Exception):
    """The trace lost a function the workload must call; exit code 3."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str
    output_bytes: int = 0
    stats: dict | None = None


@dataclass
class Call:
    """One CLI invocation of a round: its arguments, work and output check."""

    label: str
    args: list[str]
    work: int
    ops: int
    # (output dir, sample) -> (failed operations, problems found)
    check: Callable[[Path, Sample], tuple[int, list[str]]]
    samples: dict[bool, list[Sample]] = field(default_factory=lambda: {False: [], True: []})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MONOTRACK_OUT", None)
    # Cache bytecode as an installed package does, whatever the caller's
    # setting: the first set-up compiles, later invocations reuse it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log_dir: Path) -> Sample:
    """Run one child to completion; wall time includes interpreter start."""
    err_path = log_dir / "stderr.txt"
    with open(log_dir / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(args: list[str], stats_path: Path | None) -> list[str]:
    if stats_path is None:
        return [sys.executable, "-m", "monotrack.cli", *args]
    return [sys.executable, str(BENCH / "tracer.py"), str(stats_path), "--", *args]


def tree_digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_args(seed: int, seq_dir: Path, out: str, trials: int) -> list[str]:
    args = ["run", "--seq", str(seq_dir), "--out", out]
    if trials:
        args += ["--trials", str(trials), "--seed", str(seed), "--dropout", "real"]
    return args


def set_up(w: Workload, seed: int, dest: Path) -> float:
    """Generate the inputs into ``dest``; returns the seconds it took."""
    dest.mkdir(parents=True)
    start = time.perf_counter()
    gen = [
        sys.executable, str(BENCH / "gen.py"), "--seed", str(seed),
        "--tracks", str(w.tracks), "--frames", str(w.frames), "--out", str(dest / "seq"),
    ]
    check_setup_step(gen, dest)
    if w.evaluate:
        seq_dir = dest / "seq" / read_manifest(dest)["sequence"]
        produce = run_args(seed, seq_dir, str(dest / "produced"), w.trials)
        check_setup_step(cli_argv(produce, None), dest)
    return time.perf_counter() - start


def check_setup_step(argv: list[str], dest: Path) -> None:
    sample = spawn(argv, dest.parent)
    if sample.returncode != 0:
        raise SetupError(f"set-up step {argv[1:3]} exited {sample.returncode}: {sample.stderr[-2000:]}")


def read_manifest(setup_dir: Path) -> dict:
    return json.loads((setup_dir / "seq" / "manifest.json").read_text(encoding="utf-8"))


def read_csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines() if line]


def summary_problems(out: Path, manifest: dict, trials: int) -> list[str]:
    problems = []
    for track in manifest["tracks"]:
        path = out / f"{manifest['sequence']}_id{track['id']}_summary.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        header, *rows = read_csv_rows(path)
        col = {name: i for i, name in enumerate(header)}
        seen = set()
        for row in rows:
            try:
                key = (row[col["filter"]], row[col["space"]])
                complete = (
                    int(row[col["frames_evaluated"]]) == track["frames"]
                    and int(row[col["frames_skipped"]]) == 0
                    and int(row[col["n_trials"]]) == max(trials, 1)
                )
            except (KeyError, IndexError, ValueError):
                problems.append(f"{path.name}: malformed row {row}")
                continue
            seen.add(key)
            if not complete:
                problems.append(f"{path.name} {key}: incomplete row {row}")
        if seen != SUMMARY_ROWS:
            problems.append(f"{path.name}: rows {sorted(seen)}, expected {sorted(SUMMARY_ROWS)}")
    return problems


_STOPPED = re.compile(r"(\d+) filter run\(s\) stopped early")


def run_calls(w: Workload, seed: int, setup_dir: Path, manifest: dict) -> list[Call]:
    n_ops = len(FILTERS) * w.tracks * max(w.trials, 1)
    reference: dict[str, str] = {}

    def check(out: Path, sample: Sample) -> tuple[int, list[str]]:
        if sample.returncode not in (0, 2):
            return n_ops, [f"run exited {sample.returncode}: {sample.stderr[-2000:]}"]
        stopped = _STOPPED.search(sample.stderr)
        failed = int(stopped.group(1)) if stopped else 0
        if sample.returncode == 2 and not failed:
            failed = n_ops
        digest = tree_digest(out)
        if not reference:
            reference.update(digest)
            return failed, summary_problems(out, manifest, w.trials)
        if digest != reference:
            return n_ops, ["run outputs differ from the first invocation"]
        return failed, []

    seq_dir = setup_dir / "seq" / manifest["sequence"]
    return [
        Call(
            label="run",
            args=run_args(seed, seq_dir, "{out}", w.trials),
            work=n_ops * w.frames,
            ops=n_ops,
            check=check,
        )
    ]


def evaluate_calls(setup_dir: Path, manifest: dict) -> list[Call]:
    seq_dir = setup_dir / "seq" / manifest["sequence"]
    produced = setup_dir / "produced"
    calls = []
    for estimates in sorted(produced.glob("*_estimates_*.csv")):
        prefix, space = estimates.stem.rsplit("_estimates_", 1)
        expected = produced / f"{prefix}_metrics_{'3d' if space == '3d' else 'bb'}.csv"
        want = [row[:4] for row in read_csv_rows(expected)]

        def check(out: Path, sample: Sample, stem=estimates.stem, want=want) -> tuple[int, list[str]]:
            if sample.returncode != 0:
                return 1, [f"evaluate {stem} exited {sample.returncode}: {sample.stderr[-2000:]}"]
            got_path = out / f"{stem}_metrics.csv"
            if not got_path.is_file():
                return 1, [f"evaluate {stem} wrote no metrics file"]
            if [row[:4] for row in read_csv_rows(got_path)] != want:
                return 1, [f"evaluate {stem}: frame,rmse,anees,n_trials differ from the run's"]
            return 0, []

        with open(estimates, encoding="utf-8") as handle:
            n_rows = sum(1 for line in handle if line.strip()) - 1
        calls.append(
            Call(
                label=estimates.stem,
                args=[
                    "evaluate", "--seq", str(seq_dir), "--track-id", "1",
                    "--estimates", str(estimates), "--out", "{out}",
                ],
                work=n_rows,
                ops=1,
                check=check,
            )
        )
    if len(calls) != 6:
        raise SetupError(f"producing run wrote {len(calls)} estimates files, expected 6")
    return calls


def measure(calls: list[Call], seconds: float, traced: bool, work_dir: Path) -> tuple[int, int, list[str]]:
    """Invoke every call per round until ``seconds`` pass; returns
    attempted and failed operations and the problems found."""
    modes = (False, True) if traced else (False,)
    attempted = failed = 0
    problems: list[str] = []
    out = work_dir / "out"
    stats_path = work_dir / "stats.json"
    deadline = time.perf_counter() + seconds
    while True:
        # Alternate which of a plain and a traced round goes first.
        modes = modes[::-1]
        for mode in modes:
            for call in calls:
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
                stats_path.unlink(missing_ok=True)
                args = [a.replace("{out}", str(out)) for a in call.args]
                sample = spawn(cli_argv(args, stats_path if mode else None), work_dir)
                sample.output_bytes = tree_bytes(out)
                if mode:
                    if not stats_path.is_file():
                        raise TraceError(f"traced {call.label} wrote no stats: {sample.stderr[-2000:]}")
                    sample.stats = json.loads(stats_path.read_text(encoding="utf-8"))
                n_failed, found = call.check(out, sample)
                attempted += call.ops
                failed += n_failed
                problems += [f"{'traced ' if mode else ''}{p}" for p in found]
                call.samples[mode].append(sample)
        if time.perf_counter() >= deadline:
            return attempted, failed, problems


def per_call_median(calls: list[Call], mode: bool, key: Callable[[Sample], float]) -> list[float]:
    return [statistics.median(key(s) for s in call.samples[mode]) for call in calls]


def end_to_end(calls: list[Call], setup_s: list[float], attempted: int, failed: int) -> dict:
    walls = per_call_median(calls, False, lambda s: s.wall_s)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "throughput_per_s": (sum(c.work for c in calls) / sum(walls), "1/s"),
        "cpu_s": (statistics.fmean(per_call_median(calls, False, lambda s: s.cpu_s)), "s"),
        "peak_rss_mb": (max(per_call_median(calls, False, lambda s: s.rss_mb)), "MB"),
        "output_mb": (sum(c.samples[False][0].output_bytes for c in calls) / 1e6, "MB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }


def per_layer(calls: list[Call], expected: frozenset[str]) -> tuple[dict, list[str]]:
    n_rounds = len(calls[0].samples[True])
    rounds = [[call.samples[True][r].stats for call in calls] for r in range(n_rounds)]
    calls_per_round = {
        name: sum(stats["functions"][name][0] for stats in rounds[0]) for name in FUNCTIONS
    }
    counters = {
        name: sum(stats["counters"][name] for stats in rounds[0]) for name in COUNTER_NAMES
    }
    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        n = calls_per_round[name]
        self_s = statistics.median(
            sum(stats["functions"][name][1] for stats in round_stats) for round_stats in rounds
        )
        metrics[f"{name}.calls"] = (n, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.us_per_call"] = (self_s / n * 1e6 if n else 0.0, "us")
    metrics["dataio.matched_frac"] = (
        counters["dataio.matched"] / counters["dataio.detections"]
        if counters["dataio.detections"] else 0.0,
        "fraction",
    )
    metrics["sim.draws"] = (counters["sim.draws"], "count")
    metrics["metrics.scored_frac"] = (
        counters["metrics.scored"] / counters["metrics.frames"] if counters["metrics.frames"] else 0.0,
        "fraction",
    )
    metrics["pipeline.failed_runs"] = (counters["pipeline.failed_runs"], "count")
    # Each traced round runs right after a plain one; the median of their
    # ratios cancels the machine's slower drifts in speed.
    ratios = [
        sum(call.samples[True][r].wall_s for call in calls)
        / sum(call.samples[False][r].wall_s for call in calls)
        for r in range(n_rounds)
    ]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "fraction")
    missing = sorted(name for name in expected if calls_per_round[name] == 0)
    return metrics, missing


def main() -> int:
    parser = argparse.ArgumentParser(description="monotrack benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"benchmark: repository sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup_dirs: list[Path] = []
        setup_s: list[float] = []
        while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
            setup_dirs.append(work_dir / f"setup{len(setup_dirs)}")
            setup_s.append(set_up(w, args.seed, setup_dirs[-1]))
        problems = []
        digests = [tree_digest(d) for d in setup_dirs]
        if any(d != digests[0] for d in digests[1:]):
            problems.append("set-up outputs differ between repeats with one seed")
        setup_dir = setup_dirs[0]
        manifest = read_manifest(setup_dir)
        if w.evaluate:
            calls = evaluate_calls(setup_dir, manifest)
        else:
            calls = run_calls(w, args.seed, setup_dir, manifest)
        attempted, failed, found = measure(calls, args.seconds, bool(args.trace), work_dir)
        problems += found
        if args.trace:
            metrics, missing_calls = per_layer(calls, w.expected)
            if missing_calls:
                raise TraceError(
                    f"traced functions expected on {args.workload} recorded no call: "
                    + ", ".join(missing_calls)
                )
        else:
            metrics = end_to_end(calls, setup_s, attempted, failed)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in problems:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "track_seeds": [t["seed"] for t in manifest["tracks"]],
        "track_redraws": [t["redraws"] for t in manifest["tracks"]],
        "environment": manifest["environment"],
        "limits": LIMITS,
        "setup_s": setup_s,
        "wall_s": {
            ("traced " if mode else "") + call.label: [s.wall_s for s in call.samples[mode]]
            for call in calls
            for mode in ((False, True) if args.trace else (False,))
        },
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
