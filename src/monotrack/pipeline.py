"""Orchestration: run filters over tracks, score them, write CSV files.

A run pairs one track with one detection source (the real detection file
or simulated trials), pushes every selected filter along it, and scores
the results against the annotations in bounding-box space and, for the
3D filter, against semi-annotations in camera space.

Estimates begin at the first frame with a detection; frames with no
detection advance by prediction only.  A filter that leaves its domain
(for example, a sigma point falling behind the camera) stops for that
track and trial; such frames are excluded from the metrics and counted
as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .camera import CameraIntrinsics
from .dataio import TrackSequence, format_float, format_floats, semi_annotate_3d
from .exceptions import (
    ConfigError,
    DecompositionFailure,
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
from .metrics import EvalSeries, evaluate_track, stack_trials
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
    """One filter's pass over one track with one detection series."""

    filter_name: str
    frames: list[int] = field(default_factory=list)
    native: list[GaussianEstimate] = field(default_factory=list)
    boxes: list[GaussianEstimate] = field(default_factory=list)
    failure: str | None = None


def run_filter(
    track: TrackSequence,
    detections: list[np.ndarray | None],
    bundle: ModelBundle,
    filter_name: str,
) -> FilterRun:
    """Push one filter along a track.

    ``detections`` aligns with ``track.frames``.  The filter initializes
    at the first detection, predicts across every frame step (including
    annotation gaps, which may span several sampling periods), and
    updates where a detection exists.
    """
    spec = FILTERS.get(filter_name)
    if spec is None:
        raise ConfigError(f"unknown filter {filter_name!r}")
    run = FilterRun(filter_name)
    start = next((i for i, z in enumerate(detections) if z is not None), None)
    if start is None:
        run.failure = "no detections to initialize from"
        return run
    try:
        for i in range(start, len(track.frames)):
            if i == start:
                est = spec.init(detections[i], bundle)
            else:
                for _ in range(track.frames[i] - track.frames[i - 1]):
                    est = spec.predict(est, bundle)
                if detections[i] is not None:
                    est = spec.update(est, detections[i], bundle)
            # Project before appending so a failure cannot leave the lists
            # at different lengths.
            box = spec.box(est, bundle)
            run.frames.append(track.frames[i])
            run.native.append(est)
            run.boxes.append(box)
    except _TRACK_STOPPERS as exc:
        run.failure = f"{type(exc).__name__}: {exc}"
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
    runs: dict[str, list[FilterRun]]
    metrics: dict[tuple[str, str], tuple[EvalSeries, EvalSeries]]
    n_failures: int


def _trial_arrays(
    run: FilterRun, space: str
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """One trial's frames with its stacked ``bb`` or native estimates."""
    estimates = run.boxes if space == "bb" else run.native
    means = np.array([est.mean for est in estimates])
    covs = np.array([est.cov for est in estimates])
    return run.frames, means, covs


def score_trials(
    track: TrackSequence,
    space: str,
    trials: Sequence[tuple[Sequence[int], np.ndarray, np.ndarray]],
    cam: CameraIntrinsics,
    guessed_height_m: float,
) -> tuple[EvalSeries, EvalSeries]:
    """RMSE and ANEES series of trials of one estimate space.

    Each trial gives its frames with (L, n) means and (L, n, n)
    covariances.  The space's rows are scored against the annotated
    boxes or, in ``3d``, their semi-annotations.  A trial with no frames
    (one that stopped at initialization, and so wrote no estimates rows)
    is left out; a frame counts only when every remaining trial covers it.
    """
    spec = SPACES[space]
    rows = list(spec.rows)
    trials = [
        (frames, means[:, rows], covs[:, rows][:, :, rows])
        for frames, means, covs in trials
        if len(frames)
    ]
    if spec.scored_in == "3d":
        truth = semi_annotate_3d(track.annotations, cam, guessed_height_m)
    else:
        truth = np.stack([box.as_vector() for box in track.annotations])
    kept, means, covs = stack_trials(track.frames, trials)
    return evaluate_track(truth, kept, means, covs, track.frames, spec.scored_in)


def evaluate_runs(
    track: TrackSequence,
    runs: list[FilterRun],
    bundle: ModelBundle,
    guessed_height_m: float,
) -> dict[str, tuple[EvalSeries, EvalSeries]]:
    """Score one filter's trials in box space and, if its native space is
    scored in camera space, there too."""
    out: dict[str, tuple[EvalSeries, EvalSeries]] = {}
    for space in ("bb", FILTERS[runs[0].filter_name].space):
        scored_in = SPACES[space].scored_in
        if scored_in not in out:
            trials = [_trial_arrays(run, space) for run in runs]
            out[scored_in] = score_trials(
                track, space, trials, bundle.cam, guessed_height_m
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
    runs: dict[str, list[FilterRun]] = {}
    metrics: dict[tuple[str, str], tuple[EvalSeries, EvalSeries]] = {}
    n_failures = 0
    for name in filter_names:
        filter_runs = [run_filter(track, trial, bundle, name) for trial in trials]
        n_failures += sum(1 for r in filter_runs if r.failure is not None)
        runs[name] = filter_runs
        for space, series_pair in evaluate_runs(
            track, filter_runs, bundle, guessed_height_m
        ).items():
            metrics[(name, space)] = series_pair
    return TrackResult(track, runs, metrics, n_failures)


def write_estimates_csv(
    path: Path, track: TrackSequence, runs: list[FilterRun], space: str
) -> None:
    """Per-trial, per-frame means and row-major upper-triangle covariances.

    Rows are formatted and written one trial at a time, so memory stays
    bounded by the longest trial.
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
        for trial, run in enumerate(runs):
            if not run.frames:
                continue
            frames, means, covs = _trial_arrays(run, space)
            values = np.concatenate([means, covs[:, upper[0], upper[1]]], axis=1)
            handle.writelines(
                f"{trial},{frame},{track.first_frame + frame},{space},"
                f"{format_floats(row)}\n"
                for frame, row in zip(frames, values.tolist())
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
    for name in result.runs:
        for space in (FILTERS[name].space, "bb"):
            path = out_dir / f"{stem}_{name}_estimates_{space}.csv"
            write_estimates_csv(path, result.track, result.runs[name], space)
            written.append(path)
    for (name, space), (rmse_series, anees_series) in sorted(result.metrics.items()):
        path = out_dir / f"{stem}_{name}_metrics_{space}.csv"
        write_metrics_csv(path, rmse_series, anees_series)
        written.append(path)
    path = out_dir / f"{stem}_summary.csv"
    write_summary_csv(path, result)
    written.append(path)
    return written
