"""Orchestration: run filters over tracks, score them, write CSV files.

A run pairs one track with one detection source (the real detection file
or simulated trials), pushes every selected filter along it, and scores
the results against the annotations in bounding-box space and, for the
3D filter, against semi-annotations in camera space.

Estimates begin at the first frame with a detection; frames with no
detection advance by prediction only.  The M trials of a filter step
together: each frame is one call of each filter step on the (M, n)
stack of the trials' estimates, and real detections are the M = 1 case
of the same loop.  A filter that leaves its domain (for example, a
sigma point falling behind the camera) stops only the trial it belongs
to, which keeps its estimates up to the frame before; the other trials
go on.  Frames that some trial did not reach are excluded from the
metrics and counted as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .camera import CameraIntrinsics
from .dataio import TrackSequence, format_float, format_floats, semi_annotate_3d
from .exceptions import (
    ConfigError,
    DecompositionFailure,
    DimensionMismatch,
    FunctionDomainError,
    InvalidEstimate,
    SingularInnovation,
)
from .filters import (
    GaussianEstimate,
    InitConstants,
    bot_init,
    bot_predict,
    bot_update,
    init_2d,
    init_3d,
    kf_predict,
    kf_update,
    linear_box_estimate,
    project_estimate,
    ukf_predict,
    ukf_update,
)
from .metrics import EvalSeries, TrialStack, evaluate_track, stack_trials
from .models import (
    MEASURED_ROWS,
    BoTParams,
    ModelSet2D,
    ModelSet3D,
    PedestrianParams,
    build_model_2d,
    build_model_3d,
)
from .sim import SimConfig, simulate_detections

# Filter errors that end a track instead of crashing the run.
_TRACK_STOPPERS = (
    FunctionDomainError,
    DecompositionFailure,
    SingularInnovation,
    InvalidEstimate,
)


class SpaceSpec(NamedTuple):
    """An estimate space's state names, the space it is scored in (``bb``
    or ``3d``) and the state rows compared with that space's truth."""

    names: tuple[str, ...]
    scored_in: str
    rows: tuple[int, ...]


SPACES = {
    "2d": SpaceSpec(
        ("x", "vx", "y", "vy", "w", "vw", "h", "vh"), "bb", MEASURED_ROWS
    ),
    "bot": SpaceSpec(
        ("x", "Tvx", "y", "Tvy", "w", "Tvw", "h", "Tvh"), "bb", MEASURED_ROWS
    ),
    "3d": SpaceSpec(
        ("x", "vx", "y", "vy", "z", "vz", "w", "h"), "3d", (0, 2, 4, 6, 7)
    ),
    "bb": SpaceSpec(("x", "y", "w", "h"), "bb", (0, 1, 2, 3)),
}


@dataclass(frozen=True)
class ModelBundle:
    """Every model and constant one run needs, assembled once."""

    cam: CameraIntrinsics
    model2d: ModelSet2D
    model3d: ModelSet3D
    bot_params: BoTParams
    init: InitConstants


def build_bundle(
    image_size: tuple[int, int],
    frame_rate: float,
    cam: CameraIntrinsics | None = None,
    gamma: float | None = None,
    params: PedestrianParams | None = None,
    bot_params: BoTParams | None = None,
    init: InitConstants | None = None,
) -> ModelBundle:
    """Assemble models for one sequence; gamma defaults to min(W, H)."""
    if not frame_rate > 0:
        raise ConfigError(f"frame rate must be positive, got {frame_rate}")
    cam = cam or CameraIntrinsics.for_image(image_size)
    gamma = gamma if gamma is not None else float(min(image_size))
    params = params or PedestrianParams()
    dt = 1.0 / frame_rate
    return ModelBundle(
        cam=cam,
        model2d=build_model_2d(dt, gamma, params),
        model3d=build_model_3d(dt, cam, gamma, params),
        bot_params=bot_params or BoTParams(),
        init=init or InitConstants(),
    )


class FilterSpec(NamedTuple):
    """What sets one filter apart: its native space and its four steps.

    The steps look the filter functions up in this module when called,
    so a rebound module name (a tracer's wrapper) is the one that runs.
    """

    space: str
    init: Callable[[np.ndarray, ModelBundle], GaussianEstimate]
    predict: Callable[[GaussianEstimate, ModelBundle], GaussianEstimate]
    update: Callable[[GaussianEstimate, np.ndarray, ModelBundle], GaussianEstimate]
    box: Callable[[GaussianEstimate, ModelBundle], GaussianEstimate]


FILTERS: dict[str, FilterSpec] = {
    "kf2d": FilterSpec(
        space="2d",
        init=lambda z0, b: init_2d(z0, b.model2d.R, b.init),
        predict=lambda est, b: kf_predict(est, b.model2d.F, b.model2d.Q),
        update=lambda est, z, b: kf_update(est, z, b.model2d.H, b.model2d.R),
        box=lambda est, b: linear_box_estimate(est),
    ),
    "bot": FilterSpec(
        space="bot",
        init=lambda z0, b: bot_init(z0, b.bot_params),
        predict=lambda est, b: bot_predict(est, b.bot_params),
        update=lambda est, z, b: bot_update(est, z, b.bot_params),
        box=lambda est, b: linear_box_estimate(est),
    ),
    "ukf3d": FilterSpec(
        space="3d",
        init=lambda z0, b: init_3d(z0, b.model3d, b.init),
        predict=lambda est, b: ukf_predict(est, b.model3d),
        update=lambda est, z, b: ukf_update(est, z, b.model3d),
        box=lambda est, b: project_estimate(est, b.model3d),
    ),
}
FILTER_NAMES = tuple(FILTERS)


@dataclass
class FilterRun:
    """One filter's pass over one track with M trials' detections.

    ``native`` and ``boxes`` hold the estimates in the filter's own space
    and in box space; they share their frames and per-trial ends.
    ``failures[t]`` says why trial t stopped early, or is None.
    """

    filter_name: str
    native: TrialStack
    boxes: TrialStack
    failures: list[str | None]

    @property
    def frames(self) -> list[int]:
        return self.native.frames

    @property
    def ends(self) -> np.ndarray:
        return self.native.ends

    @property
    def failure(self) -> str | None:
        """The first stopped trial's failure, or None if none stopped."""
        return next((f for f in self.failures if f is not None), None)

    def estimates(self, space: str) -> TrialStack:
        """The ``bb`` estimates or those of the native space."""
        return self.boxes if space == "bb" else self.native

    def stop(self, trial: int, row: int, exc: Exception) -> None:
        """End a trial before ``row`` with the error that stopped it."""
        self.failures[trial] = f"{type(exc).__name__}: {exc}"
        self.ends[trial] = row


def _empty_run(filter_name: str, frames: list[int], trials: int) -> FilterRun:
    """A run of zeroed stacks in which every trial reaches the last frame."""
    n = len(SPACES[FILTERS[filter_name].space].names)
    k = len(frames)
    ends = np.full(trials, k)
    return FilterRun(
        filter_name,
        TrialStack(frames, np.zeros((trials, k, n)), np.zeros((trials, k, n, n)), ends),
        TrialStack(frames, np.zeros((trials, k, 4)), np.zeros((trials, k, 4, 4)), ends),
        [None] * trials,
    )


_Step = Callable[[GaussianEstimate | None, np.ndarray | None], GaussianEstimate]


def _advance(
    step: _Step,
    est: GaussianEstimate | None,
    z: np.ndarray | None,
    active: np.ndarray,
    run: FilterRun,
    row: int,
) -> tuple[GaussianEstimate | None, np.ndarray]:
    """One step of every active trial at once: the stacked result and the
    trials still active after it.

    ``est`` stacks the active trials and ``z`` holds every trial's
    detection.  If the stacked step stops, each active trial takes the
    step alone: one that stops ends before ``row`` with its failure, and
    the rest go on with the rows they got alone, which equal their rows
    of a stacked step.  A lone trial has no stack axis and is already
    alone.
    """
    alone = len(run.failures) == 1
    z_active = z if z is None or alone or len(z) == active.size else z[active]
    try:
        return step(est, z_active), active
    except _TRACK_STOPPERS as exc:
        if alone:
            run.stop(0, row, exc)
            return None, active[:0]
    kept: list[int] = []
    results: list[GaussianEstimate] = []
    for i, trial in enumerate(active.tolist()):
        one = None if est is None else GaussianEstimate(est.mean[i], est.cov[i])
        try:
            results.append(step(one, None if z_active is None else z_active[i]))
        except _TRACK_STOPPERS as exc:
            run.stop(trial, row, exc)
        else:
            kept.append(i)
    if not results:
        return None, active[:0]
    stacked = GaussianEstimate(
        np.stack([r.mean for r in results]), np.stack([r.cov for r in results])
    )
    return stacked, active[kept]


def _stack_detections(
    trials: Sequence[Sequence[np.ndarray | None]],
) -> list[np.ndarray | None]:
    """Per-frame (M, 4) stacks of M trials' detections, None where the
    trials have none; they must miss the same frames.  A lone trial keeps
    its 4-vectors, so it takes each step exactly as a trial re-run alone
    does."""
    if len(trials) == 1:
        return [None if z is None else np.asarray(z, dtype=float) for z in trials[0]]
    stacks: list[np.ndarray | None] = []
    for frame in zip(*trials):
        missing = [z is None for z in frame]
        if not any(missing):
            stacks.append(np.array(frame, dtype=float))
        elif all(missing):
            stacks.append(None)
        else:
            raise DimensionMismatch("trials must miss the same frames")
    return stacks


def run_filter(
    track: TrackSequence,
    trials: Sequence[Sequence[np.ndarray | None]],
    bundle: ModelBundle,
    filter_name: str,
) -> FilterRun:
    """Push one filter along a track, every trial in the same steps.

    ``trials`` holds M detection series, each aligned with
    ``track.frames`` with None where the detector missed; the trials
    miss the same frames.  The filter initializes at the first
    detection, predicts across every frame step (including annotation
    gaps, which may span several sampling periods), and updates where a
    detection exists.  A trial that leaves the filter's domain stops at
    that frame, alone; its rows up to the frame before stay.
    """
    spec = FILTERS.get(filter_name)
    if spec is None:
        raise ConfigError(f"unknown filter {filter_name!r}")
    m = len(trials)
    stacks = _stack_detections(trials)
    start = next((i for i, z in enumerate(stacks) if z is not None), None)
    if start is None:
        run = _empty_run(filter_name, [], m)
        run.failures[:] = ["no detections to initialize from"] * m
        return run
    frames = list(track.frames)
    run = _empty_run(filter_name, frames[start:], m)
    init: _Step = lambda _, z: spec.init(z, bundle)  # noqa: E731
    predict: _Step = lambda est, _: spec.predict(est, bundle)  # noqa: E731
    update: _Step = lambda est, z: spec.update(est, z, bundle)  # noqa: E731
    box_of: _Step = lambda est, _: spec.box(est, bundle)  # noqa: E731
    active = np.arange(m)
    est: GaussianEstimate | None = None
    for row, i in enumerate(range(start, len(frames))):
        if row == 0:
            steps = [(init, stacks[i])]
        else:
            steps = [(predict, None)] * (frames[i] - frames[i - 1])
            if stacks[i] is not None:
                steps.append((update, stacks[i]))
        for step, z in steps:
            est, active = _advance(step, est, z, active, run, row)
            if not active.size:
                return run
        # Box before storing, so a trial that stops here stores neither.
        box, boxed = _advance(box_of, est, None, active, run, row)
        if not boxed.size:
            return run
        if boxed.size < active.size:
            keep = np.isin(active, boxed)
            est, active = GaussianEstimate(est.mean[keep], est.cov[keep]), boxed
        stored = slice(None) if active.size == m else active
        run.native.means[stored, row] = est.mean
        run.native.covs[stored, row] = est.cov
        run.boxes.means[stored, row] = box.mean
        run.boxes.covs[stored, row] = box.cov
    return run


def real_detection_vectors(track: TrackSequence) -> list[np.ndarray | None]:
    """The track's associated detections as measurement vectors."""
    return [box.as_vector() if box is not None else None for box in track.detections]


def real_dropout_mask(track: TrackSequence) -> tuple[bool, ...]:
    """Detection availability of the real sequence, for the simulator."""
    return tuple(box is not None for box in track.detections)


@dataclass
class TrackResult:
    """All runs and metrics of one track."""

    track: TrackSequence
    runs: dict[str, FilterRun]
    metrics: dict[tuple[str, str], tuple[EvalSeries, EvalSeries]]
    n_failures: int


def score_trials(
    track: TrackSequence,
    space: str,
    stack: TrialStack,
    cam: CameraIntrinsics,
    guessed_height_m: float,
) -> tuple[EvalSeries, EvalSeries]:
    """RMSE and ANEES series of a stack of trials of one estimate space.

    The space's rows are scored against the annotated boxes or, in
    ``3d``, their semi-annotations.  A trial with no rows (one that
    stopped at initialization, and so wrote no estimates rows) is left
    out; a frame counts only when every remaining trial covers it.
    """
    spec = SPACES[space]
    rows = list(spec.rows)
    stack = replace(
        stack, means=stack.means[..., rows], covs=stack.covs[..., rows, :][..., rows]
    )
    if spec.scored_in == "3d":
        truth = semi_annotate_3d(track.annotations, cam, guessed_height_m)
    else:
        truth = np.stack([box.as_vector() for box in track.annotations])
    kept, means, covs = stack_trials(track.frames, stack)
    return evaluate_track(truth, kept, means, covs, track.frames, spec.scored_in)


def evaluate_runs(
    track: TrackSequence,
    run: FilterRun,
    bundle: ModelBundle,
    guessed_height_m: float,
) -> dict[str, tuple[EvalSeries, EvalSeries]]:
    """Score one filter's trials in box space and, if its native space is
    scored in camera space, there too."""
    out: dict[str, tuple[EvalSeries, EvalSeries]] = {}
    for space in ("bb", FILTERS[run.filter_name].space):
        scored_in = SPACES[space].scored_in
        if scored_in not in out:
            out[scored_in] = score_trials(
                track, space, run.estimates(space), bundle.cam, guessed_height_m
            )
    return out


def run_track(
    track: TrackSequence,
    bundle: ModelBundle,
    filter_names: tuple[str, ...],
    guessed_height_m: float,
    sim_cfg: SimConfig | None = None,
) -> TrackResult:
    """Run the selected filters over one track, real or simulated.

    With ``sim_cfg`` the detections are Monte Carlo trials around the
    annotations; otherwise the single trial is the track's associated
    real detections.
    """
    if sim_cfg is not None:
        trials = simulate_detections(track, sim_cfg)
    else:
        trials = [real_detection_vectors(track)]
    runs: dict[str, FilterRun] = {}
    metrics: dict[tuple[str, str], tuple[EvalSeries, EvalSeries]] = {}
    n_failures = 0
    for name in filter_names:
        run = run_filter(track, trials, bundle, name)
        n_failures += sum(f is not None for f in run.failures)
        runs[name] = run
        for space, series_pair in evaluate_runs(
            track, run, bundle, guessed_height_m
        ).items():
            metrics[(name, space)] = series_pair
    return TrackResult(track, runs, metrics, n_failures)


def write_estimates_csv(
    path: Path, track: TrackSequence, stack: TrialStack, space: str
) -> None:
    """Per-trial, per-frame means and row-major upper-triangle covariances.

    Rows are formatted and written one trial at a time, so the text in
    memory stays bounded by the longest trial.
    """
    names = SPACES[space].names
    n = len(names)
    upper = np.triu_indices(n)
    header = (
        ["trial", "k", "frame", "space"]
        + [f"mean_{name}" for name in names]
        + [f"cov_{i}_{j}" for i in range(n) for j in range(i, n)]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for trial, end in enumerate(stack.ends.tolist()):
            if not end:
                continue
            covs = stack.covs[trial, :end]
            values = np.concatenate(
                [stack.means[trial, :end], covs[:, upper[0], upper[1]]], axis=1
            )
            handle.writelines(
                f"{trial},{frame},{track.first_frame + frame},{space},"
                f"{format_floats(row)}\n"
                for frame, row in zip(stack.frames, values.tolist())
            )


def write_metrics_csv(
    path: Path, rmse_series: EvalSeries, anees_series: EvalSeries
) -> None:
    """Per-frame metric rows: frame, rmse, anees, n_trials, space."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("frame,rmse,anees,n_trials,space\n")
        for frame, r, a in zip(
            rmse_series.frames, rmse_series.values, anees_series.values
        ):
            handle.write(
                f"{frame},{format_float(r)},{format_float(a)},"
                f"{rmse_series.n_trials},{rmse_series.space}\n"
            )


def write_summary_csv(path: Path, result: TrackResult) -> None:
    """Median metrics per (filter, space) for one track."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(
            "filter,space,median_rmse,median_anees,"
            "frames_evaluated,frames_skipped,n_trials\n"
        )
        for (name, space), (rmse_series, anees_series) in sorted(result.metrics.items()):
            handle.write(
                f"{name},{space},{format_float(rmse_series.median)},"
                f"{format_float(anees_series.median)},{len(rmse_series.frames)},"
                f"{rmse_series.n_skipped},{rmse_series.n_trials}\n"
            )


def write_track_outputs(
    out_dir: Path, seq_name: str, result: TrackResult
) -> list[Path]:
    """Write every CSV of one track's result; returns the created paths.

    Estimate files hold every trial; metric files aggregate them.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{seq_name}_id{result.track.object_id}"
    written: list[Path] = []
    for name, run in result.runs.items():
        for space in (FILTERS[name].space, "bb"):
            path = out_dir / f"{stem}_{name}_estimates_{space}.csv"
            write_estimates_csv(path, result.track, run.estimates(space), space)
            written.append(path)
    for (name, space), (rmse_series, anees_series) in sorted(result.metrics.items()):
        path = out_dir / f"{stem}_{name}_metrics_{space}.csv"
        write_metrics_csv(path, rmse_series, anees_series)
        written.append(path)
    path = out_dir / f"{stem}_summary.csv"
    write_summary_csv(path, result)
    written.append(path)
    return written
