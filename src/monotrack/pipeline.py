"""Orchestration: run filters over tracks, score them, write CSV files.

A run pairs tracks with a detection source (the real detection file or
simulated trials), pushes every selected filter along them, and scores
the results against the annotations in bounding-box space and, for the
3D filter, against semi-annotations in camera space.

A lane is one (track, trial) detection series.  Each filter makes one
pass over a set of lanes: every track of a real-detection run, or the
M Monte Carlo trials of one track.  The lanes of a pass step together
on the absolute frame number: each frame is one call of each filter
step on the stack of the lanes that take it, and a pass of one lane is
the same loop without the stack axis.  Tracks may start, end and miss
detections at different frames.  A lane's estimates begin at its
track's first detection; frames with no detection advance by
prediction only.  A filter that leaves its domain (for example, a sigma
point falling behind the camera) stops only the lane it belongs to,
which keeps its estimates up to the frame before; the other lanes go
on.  Frames that some trial of a track did not reach are excluded from
that track's metrics and counted as skipped.

Any other error escapes the pass and ends the run; the files written
before it stay.  A Monte Carlo run writes each track's files before the
next track runs.  A real-detection run writes the estimates files of
each filter's pass, for every track, as the pass ends, and the metrics
and summary files once every pass has run.
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
    """One filter's run over one track's M trials' detections.

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


@dataclass
class FilterPass:
    """One filter's pass over several tracks: one ``FilterRun`` per track,
    in the order the tracks were given."""

    runs: list[FilterRun]

    @property
    def failure(self) -> str | None:
        """The first stopped lane's failure, or None if none stopped."""
        return next((run.failure for run in self.runs if run.failure is not None), None)


# One track's M detection series, each aligned with its frames.
Trials = Sequence[Sequence[np.ndarray | None]]
_Step = Callable[[GaussianEstimate | None, np.ndarray | None], GaussianEstimate]
_Stop = Callable[[int, Exception], None]


def _advance(
    step: _Step,
    est: GaussianEstimate | None,
    z: np.ndarray | None,
    lanes: np.ndarray,
    stop: _Stop,
) -> tuple[GaussianEstimate | None, np.ndarray]:
    """One step of some lanes at once: the stacked result and the lanes
    still live after it.

    ``est`` stacks the lanes' estimates and ``z`` their detections.  If
    the stacked step stops, each lane takes the step alone: one that
    stops goes to ``stop`` with its error, and the rest go on with the
    rows they got alone, which equal their rows of a stacked step.  The
    lane of a one-lane pass has no stack axis and is already alone.
    """
    try:
        return step(est, z), lanes
    except _TRACK_STOPPERS as exc:
        if (z if est is None else est.mean).ndim == 1:
            stop(int(lanes[0]), exc)
            return None, lanes[:0]
    kept: list[int] = []
    results: list[GaussianEstimate] = []
    for i, lane in enumerate(lanes.tolist()):
        one = None if est is None else GaussianEstimate(est.mean[i], est.cov[i])
        try:
            results.append(step(one, None if z is None else z[i]))
        except _TRACK_STOPPERS as exc:
            stop(lane, exc)
        else:
            kept.append(i)
    if not results:
        return None, lanes[:0]
    stacked = GaussianEstimate(
        np.stack([r.mean for r in results]), np.stack([r.cov for r in results])
    )
    return stacked, lanes[kept]


def _keep(
    mean: np.ndarray, cov: np.ndarray, lanes: np.ndarray, keep: np.ndarray
) -> tuple[GaussianEstimate | None, np.ndarray]:
    """The lanes where ``keep`` holds and their stacked estimates, or
    None if there are none."""
    if not keep.any():
        return None, lanes[:0]
    return GaussianEstimate(mean[keep], cov[keep]), lanes[keep]


def _advance_where(
    step: _Step,
    est: GaussianEstimate,
    z: np.ndarray,
    lanes: np.ndarray,
    mask: np.ndarray,
    stop: _Stop,
) -> tuple[GaussianEstimate | None, np.ndarray]:
    """``_advance`` on the lanes where ``mask`` holds, gathered into one
    sub-stack; the other lanes keep their estimates."""
    stepped, kept = _advance(
        step, GaussianEstimate(est.mean[mask], est.cov[mask]), z, lanes[mask], stop
    )
    done = mask.copy()
    done[mask] = np.isin(lanes[mask], kept)
    mean, cov = est.mean.copy(), est.cov.copy()
    if kept.size:
        mean[done], cov[done] = stepped.mean, stepped.cov
    return _keep(mean, cov, lanes, ~mask | done)


def _stack_detections(trials: Trials) -> tuple[list[int], np.ndarray]:
    """The indices of the frames with detections and the (D, M, 4) stack
    of the M trials' detections there; the trials must miss the same
    frames."""
    frames = list(zip(*trials))
    detected = [i for i, frame in enumerate(frames) if frame[0] is not None]
    if any((z is None) != (frame[0] is None) for frame in frames for z in frame):
        raise DimensionMismatch("trials must miss the same frames")
    return detected, np.array([frames[i] for i in detected], dtype=float)


def _run_pass(
    tracks: Sequence[TrackSequence],
    trials: Sequence[Trials],
    bundle: ModelBundle,
    filter_name: str,
) -> FilterPass:
    """Push one filter along every lane of several tracks; see
    ``run_filter``."""
    spec = FILTERS.get(filter_name)
    if spec is None:
        raise ConfigError(f"unknown filter {filter_name!r}")
    n = len(SPACES[spec.space].names)
    detections = [_stack_detections(series) for series in trials]
    starts = [detected[0] if detected else None for detected, _ in detections]
    sizes = [len(series) for series in trials]
    counts = [0 if s is None else len(t.frames) - s for t, s in zip(tracks, starts)]
    # Lanes join in the order of their track's first detection.
    joined = sorted(
        (g for g, start in enumerate(starts) if start is not None),
        key=lambda g: tracks[g].first_frame + tracks[g].frames[starts[g]],
    )
    # Every lane's rows, one block of M lanes per track, in lane order;
    # each run's stacks are views of its block.
    blocks = [sizes[g] * counts[g] for g in joined]
    offsets = dict(zip(joined, np.cumsum([0] + blocks).tolist()))
    store = [np.zeros((sum(blocks),) + shape) for shape in ((n,), (n, n), (4,), (4, 4))]
    runs: list[FilterRun] = []
    for g, (track, m, k) in enumerate(zip(tracks, sizes, counts)):
        start = offsets.get(g, 0)
        mean, cov, box_mean, box_cov = (
            a[start : start + m * k].reshape((m, k) + a.shape[1:]) for a in store
        )
        frames = list(track.frames[starts[g] :]) if k else []
        ends = np.full(m, k)
        runs.append(
            FilterRun(
                filter_name,
                TrialStack(frames, mean, cov, ends),
                TrialStack(frames, box_mean, box_cov, ends),
                [None if k else "no detections to initialize from"] * m,
            )
        )
    if not joined:
        return FilterPass(runs)

    # Per lane: its run and trial, its first row's position in the store,
    # and the pass frames of its first and last rows.  Per pass frame and
    # lane: the detection, whether there is one, and whether the lane's
    # track has a row (an annotation) there.
    f0 = min(tracks[g].first_frame + tracks[g].frames[starts[g]] for g in joined)
    span = max(tracks[g].first_frame + tracks[g].frames[-1] for g in joined) - f0 + 1
    lanes_total = sum(sizes[g] for g in joined)
    z_all = np.zeros((span, lanes_total, 4))
    has_z = np.zeros((span, lanes_total), dtype=bool)
    has_row = np.zeros((span, lanes_total), dtype=bool)
    owner: list[tuple[FilterRun, int]] = []
    base: list[int] = []
    first: list[int] = []
    last: list[int] = []
    for g in joined:
        m, k = sizes[g], counts[g]
        at = np.asarray(tracks[g].frames[starts[g] :]) + (tracks[g].first_frame - f0)
        detected, stacked = detections[g]
        block = slice(len(owner), len(owner) + m)
        has_row[at, block] = True
        rows = [i - starts[g] for i in detected]
        has_z[at[rows], block] = True
        z_all[at[rows], block] = stacked
        for trial in range(m):
            owner.append((runs[g], trial))
            base.append(offsets[g] + trial * k)
            first.append(int(at[0]))
            last.append(int(at[-1]))
    frame = np.arange(span)[:, None]
    within = (np.asarray(first) <= frame) & (frame <= np.asarray(last))
    # Frames where every lane that steps there has a detection (a row):
    # the step takes the whole stack, with no gathering.
    update_all = (has_z | ~(within & (np.asarray(first) < frame))).all(axis=1).tolist()
    box_all = (has_row | ~within).all(axis=1).tolist()
    joins: dict[int, list[int]] = {}
    leaves: dict[int, list[int]] = {}
    for lane, (a, b) in enumerate(zip(first, last)):
        joins.setdefault(a, []).append(lane)
        leaves.setdefault(b, []).append(lane)

    lone = lanes_total == 1
    cursor = np.asarray(base)

    def detections_at(t: int, lanes: np.ndarray) -> np.ndarray:
        if lone:
            return z_all[t, 0]
        return z_all[t] if lanes.size == lanes_total else z_all[t, lanes]

    def stop(lane: int, exc: Exception) -> None:
        run, trial = owner[lane]
        run.stop(trial, int(cursor[lane]) - base[lane], exc)

    init: _Step = lambda _, z: spec.init(z, bundle)  # noqa: E731
    predict: _Step = lambda est, _: spec.predict(est, bundle)  # noqa: E731
    update: _Step = lambda est, z: spec.update(est, z, bundle)  # noqa: E731
    box_of: _Step = lambda est, _: spec.box(est, bundle)  # noqa: E731
    # The live lanes in lane order, and their stacked estimates.
    live = np.arange(0)
    est: GaussianEstimate | None = None
    for t in range(span):
        if live.size:
            est, live = _advance(predict, est, None, live, stop)
        if live.size:
            if update_all[t]:
                est, live = _advance(update, est, detections_at(t, live), live, stop)
            else:
                mask = has_z[t, live]
                if mask.any():
                    z = detections_at(t, live[mask])
                    est, live = _advance_where(update, est, z, live, mask, stop)
        if t in joins:
            lanes = np.asarray(joins[t])
            new, lanes = _advance(init, None, detections_at(t, lanes), lanes, stop)
            if est is None:
                est, live = new, lanes
            elif new is not None:
                est = GaussianEstimate(
                    np.concatenate([est.mean, new.mean]),
                    np.concatenate([est.cov, new.cov]),
                )
                live = np.concatenate([live, lanes])
        if live.size:
            if box_all[t]:
                boxed, stored = est, live
            else:
                boxed, stored = _keep(est.mean, est.cov, live, has_row[t, live])
            if boxed is not None:
                box, kept = _advance(box_of, boxed, None, stored, stop)
                if kept.size < stored.size:
                    # A lane that stops at its box stores neither estimate.
                    stopped = np.setdiff1d(stored, kept)
                    est, live = _keep(est.mean, est.cov, live, ~np.isin(live, stopped))
                    boxed, _ = _keep(boxed.mean, boxed.cov, stored, np.isin(stored, kept))
                if kept.size:
                    slots = cursor[kept]
                    for a, value in zip(store, (boxed.mean, boxed.cov, box.mean, box.cov)):
                        a[slots] = value
                    cursor[kept] += 1
        if t in leaves and live.size:
            gone = np.isin(live, leaves[t])
            if gone.any():
                est, live = _keep(est.mean, est.cov, live, ~gone)
    return FilterPass(runs)


def run_filter(
    track: TrackSequence | Sequence[TrackSequence],
    trials: Trials | Sequence[Trials],
    bundle: ModelBundle,
    filter_name: str,
) -> FilterRun | FilterPass:
    """Push one filter along a track's trials, or along several tracks'
    trials in one pass.

    Given one track, ``trials`` holds its M detection series, each
    aligned with ``track.frames`` with None where the detector missed;
    the trials miss the same frames.  The result is that track's run.
    Given a sequence of tracks, ``trials`` holds each track's series and
    the result is a ``FilterPass`` with one run per track.

    Each (track, trial) series is a lane, and all lanes step together on
    the absolute frame number ``first_frame + k``: at each frame, one
    call of each filter step covers the lanes that take it.  A lane
    initializes at its track's first detection, predicts across every
    frame step (including annotation gaps, which may span several
    sampling periods), updates where its track has a detection, and
    stores a row at each of its track's frames.  It leaves after its
    track's last frame.  So tracks may start, end and miss detections at
    different frames.  A lane that leaves the filter's domain stops at
    that frame, alone; its rows up to the frame before stay.  Each lane's
    rows are bit for bit those of a run of that lane alone.  Any other
    error escapes the pass with no run returned.

    ``run_track`` passes every track of a real-detection run together,
    and the M trials of one track in a Monte Carlo run.
    """
    if isinstance(track, TrackSequence):
        return _run_pass([track], [trials], bundle, filter_name).runs[0]
    return _run_pass(track, trials, bundle, filter_name)


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
    track: TrackSequence | Sequence[TrackSequence],
    bundle: ModelBundle,
    filter_names: tuple[str, ...],
    guessed_height_m: float,
    sim_cfg: SimConfig | None = None,
) -> TrackResult | list[TrackResult]:
    """Run the selected filters over one track, real or simulated, or over
    the real detections of several tracks.

    With ``sim_cfg`` the detections are Monte Carlo trials around the
    one track's annotations; otherwise each track's single trial is its
    associated real detections.  Each filter makes one pass over every
    lane.  Several tracks give one result per track, in their order.
    """
    tracks = [track] if isinstance(track, TrackSequence) else list(track)
    if sim_cfg is None:
        trials = [[real_detection_vectors(one)] for one in tracks]
    elif len(tracks) == 1:
        trials = [simulate_detections(tracks[0], sim_cfg)]
    else:
        raise ConfigError("simulated trials run one track at a time")
    results = [TrackResult(one, {}, {}, 0) for one in tracks]
    for name in filter_names:
        for result, run in zip(results, run_filter(tracks, trials, bundle, name).runs):
            result.runs[name] = run
            result.n_failures += sum(f is not None for f in run.failures)
            for space, series_pair in evaluate_runs(
                result.track, run, bundle, guessed_height_m
            ).items():
                result.metrics[(name, space)] = series_pair
    return results[0] if isinstance(track, TrackSequence) else results


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


def write_run_estimates(
    out_dir: Path, seq_name: str, track: TrackSequence, run: FilterRun
) -> list[Path]:
    """Write one filter run's estimates files, in its native space and in
    box space; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for space in (FILTERS[run.filter_name].space, "bb"):
        path = (
            out_dir
            / f"{seq_name}_id{track.object_id}_{run.filter_name}_estimates_{space}.csv"
        )
        write_estimates_csv(path, track, run.estimates(space), space)
        written.append(path)
    return written


def write_track_outputs(
    out_dir: Path, seq_name: str, result: TrackResult
) -> list[Path]:
    """Write every CSV of one track's result; returns the created paths.

    Estimate files hold every trial of each run the result holds; metric
    files aggregate them.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{seq_name}_id{result.track.object_id}"
    written: list[Path] = []
    for run in result.runs.values():
        written += write_run_estimates(out_dir, seq_name, result.track, run)
    for (name, space), (rmse_series, anees_series) in sorted(result.metrics.items()):
        path = out_dir / f"{stem}_{name}_metrics_{space}.csv"
        write_metrics_csv(path, rmse_series, anees_series)
        written.append(path)
    path = out_dir / f"{stem}_summary.csv"
    write_summary_csv(path, result)
    written.append(path)
    return written
