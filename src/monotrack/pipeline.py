"""Orchestration: run filters over tracks, score them, write CSV files.

A run pairs tracks with a detection source (the real detection file or
simulated trials), pushes every selected filter along them, and scores
the results against the annotations in bounding-box space and, for the
3D filter, against semi-annotations in camera space.

A lane is one (track, trial) detection series.  Each filter makes one
pass over a group of tracks: every track of a real-detection run, or
one track with its M Monte Carlo trials.  Either way a track's
detections come as the indices of its frames that have a detection and
an (M, D, 4) array of its trials' detections there, with M = 1 for real
detections.  The lanes of a pass step together on the absolute frame
number, so tracks may start, end and miss detections at different
frames.  A lane initializes at its track's first detection, predicts
across every frame step after it (an annotation gap takes one per
frame), updates where it has a detection and stores a row at each of
its track's frames.  Each lane keeps its current estimate in a fixed
slot, one row of the pass's stacked mean and covariance arrays, and a
schedule built once per pass says which lanes predict, update,
initialize and store at each frame.  Each step of a frame is one call
of the filter on the stack of its lanes' slots, taken as one slice
while every lane runs and takes the step; then the store packs each
storing lane's slot into its next row.  A stored row is packed as the
estimates file's numeric columns are laid out: the mean, then the
covariance's row-major upper triangle (``metrics.packed_layout``).
Every covariance a step emits is exactly symmetric, so a row unpacks to
its estimate bit for bit.

A lane ends in one way: it has an end row, and it runs while its next
row is below it.  When a stacked step leaves the filter's domain (for
example, a sigma point falling behind the camera), each of its lanes
retakes the step alone; one that fails again ends at its next row,
keeping its estimates up to the frame before, and the other lanes go
on.  A copy cannot leave the domain.  No step reads a box, so after the
frame loop each lane's stored rows are unpacked, mapped to box space
and packed again, lane after lane, in blocks of at most max(64, L) rows
for a pass of L lanes, under the same rule: a row that fails alone
ends its lane at that row, and the lane's later rows are not boxed.
That lane's native steps after the row have run, so an error other
than a domain error in one of them still ends the run.  Each lane's
rows are bit for bit those of a run of that lane alone.  Frames that
some trial of a track did not reach are excluded from that track's
metrics and counted as skipped; ``metrics.evaluate_track`` applies this
rule to a pass's stack of trials or to one read back from its file.

Any other error escapes the pass and ends the run; the files written
before it stay.  ``run_track`` runs a group: it scores each filter's
pass and writes its estimates files as the pass ends, and the metrics
and summary files once every pass of the group has run.  The estimates
format is defined here once, for ``write_estimates_csv`` and
``read_estimates_csv`` alike: its numeric columns are a stack's packed
rows, so the writer formats each row straight from the stack and the
reader fills a stack with the rows it parses.

A run's memory is bounded by one pass: its stored rows, n + n (n + 1) / 2
native and 14 box doubles each (58 for an 8-state filter), and its
per-frame detections and schedule.  Scoring gathers a bounded block of
rows at a time, and the writer holds one row's text.  ``evaluate`` holds
one packed copy of a file's numbers: the reader parses them into the
buffer that becomes the stack when the file's trials come in order and
all ran to the end (about 75 MB for the ``3d`` file of the 200-trial
headline run, which itself peaks at about 102 MB).  Any other file is
copied once more, into a padded stack.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .camera import CameraIntrinsics
from .dataio import TrackSequence, format_float, format_floats, semi_annotate_3d, text_lines
from .exceptions import (
    ConfigError,
    DecompositionFailure,
    DimensionMismatch,
    FunctionDomainError,
    InvalidEstimate,
    ParseError,
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
from .metrics import EvalSeries, TrialStack, evaluate_track, pack, packed_layout, unpack
from .models import (
    MEASURED_ROWS,
    BoTParams,
    ModelSet2D,
    ModelSet3D,
    PedestrianParams,
    build_model_2d,
    build_model_3d,
)

# Filter errors that end a track instead of crashing the run.
_TRACK_STOPPERS = (
    FunctionDomainError,
    DecompositionFailure,
    SingularInnovation,
    InvalidEstimate,
)

# Most stored rows one box call maps, unless a pass has more lanes.  Set
# by measurement: larger blocks raise the peak memory of a pass.
_BOX_BLOCK = 64


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
    """What sets one filter apart: its native space, its three frame
    steps (init, predict, update) and its box map to box space.

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

    ``native`` and ``boxes`` hold the packed estimates in the filter's own
    space and in box space; they share their frames and per-trial ends.
    ``failures[t]`` says why trial t stopped early, or is None.
    """

    filter_name: str
    native: TrialStack
    boxes: TrialStack
    failures: list[str | None]

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
    """One filter's pass over a group of tracks: one ``FilterRun`` per
    track, in the order the tracks were given."""

    runs: list[FilterRun]

    @property
    def failure(self) -> str | None:
        """The first stopped lane's failure, or None if none stopped."""
        return next((run.failure for run in self.runs if run.failure is not None), None)


# One track's detections: the indices of its frames that have one, and
# the (M, D, 4) array of its M trials' detections at those D frames.
Detections = tuple[Sequence[int], np.ndarray]


def run_filter(
    tracks: Sequence[TrackSequence],
    detections: Sequence[Detections],
    bundle: ModelBundle,
    filter_name: str,
) -> FilterPass:
    """Push one filter along every lane of a group of tracks in one pass.

    ``detections`` holds each track's detections: the indices into
    ``track.frames`` of the frames with a detection, and the (M, D, 4)
    array of its M trials' detections there.  The result holds one run
    per track, in their order; each lane's rows are bit for bit those of
    a run of that lane alone.

    A lane whose step or box leaves the filter's domain (an error in
    ``_TRACK_STOPPERS``) alone stops at that row, as the module docstring
    describes; the other lanes go on.  Any other error escapes the pass
    with no run returned, including one in a native step after a row
    whose box later fails.
    """
    spec = FILTERS.get(filter_name)
    if spec is None:
        raise ConfigError(f"unknown filter {filter_name!r}")
    if len(detections) != len(tracks) or any(
        z.ndim != 3 or z.shape[1:] != (len(detected), 4) for detected, z in detections
    ):
        raise DimensionMismatch("each track needs (M, D, 4) detections at D frames")
    n = len(SPACES[spec.space].names)
    starts = [detected[0] if len(detected) else None for detected, _ in detections]
    sizes = [len(z) for _, z in detections]
    counts = [0 if s is None else len(t.frames) - s for t, s in zip(tracks, starts)]
    # Every lane's packed rows, native and boxed, one block of M lanes per
    # track, in track order; each run's stacks are views of its block.
    offsets = np.cumsum([0] + [m * k for m, k in zip(sizes, counts)]).tolist()
    store = [np.zeros((offsets[-1], d + packed_layout(d)[0][0].size)) for d in (n, 4)]
    runs: list[FilterRun] = []
    for g, (track, m, k) in enumerate(zip(tracks, sizes, counts)):
        views = [a[offsets[g] : offsets[g + 1]].reshape(m, k, a.shape[1]) for a in store]
        frames, ends = (list(track.frames[starts[g] :]) if k else []), np.full(m, k)
        native, boxes = (TrialStack(frames, view, ends) for view in views)
        failures = [None if k else "no detections to initialize from"] * m
        runs.append(FilterRun(filter_name, native, boxes, failures))
    joined = [g for g, k in enumerate(counts) if k]
    if not joined:
        return FilterPass(runs)

    # Per lane: its run and trial, the pass frames of its first and last
    # rows and its first store row.  Per pass frame and lane: the detection,
    # whether there is one and whether the lane's track has a row there.
    f0 = min(tracks[g].first_frame + tracks[g].frames[starts[g]] for g in joined)
    span = max(tracks[g].first_frame + tracks[g].frames[-1] for g in joined) - f0 + 1
    lanes_total = sum(sizes[g] for g in joined)
    z_all = np.zeros((span, lanes_total, 4))
    has_z = np.zeros((span, lanes_total), dtype=bool)
    has_row = np.zeros((span, lanes_total), dtype=bool)
    owner: list[tuple[FilterRun, int]] = []
    first, last, base = (np.zeros(lanes_total, dtype=int) for _ in range(3))
    for g in joined:
        m, k = sizes[g], counts[g]
        at = np.asarray(tracks[g].frames[starts[g] :]) + (tracks[g].first_frame - f0)
        detected, z = detections[g]
        block = slice(len(owner), len(owner) + m)
        has_row[at, block] = True
        rows = [i - starts[g] for i in detected]
        has_z[at[rows], block] = True
        z_all[at[rows], block] = z.swapaxes(0, 1)
        first[block], last[block] = at[0], at[-1]
        base[block] = offsets[g] + k * np.arange(m)
        owner += zip([runs[g]] * m, range(m))

    init = lambda _, z: spec.init(z, bundle)  # noqa: E731
    predict = lambda est, _: spec.predict(est, bundle)  # noqa: E731
    update = lambda est, z: spec.update(est, z, bundle)  # noqa: E731
    box = lambda est, _: spec.box(est, bundle)  # noqa: E731
    # The schedule: per step, in the order they run at a frame, which
    # lanes take it at each pass frame and how many do; then the store's.
    frame = np.arange(span)[:, None]
    schedule = [
        (step, due, due.sum(axis=1).tolist())
        for step, due in (
            (predict, (first < frame) & (frame <= last)),
            (update, has_z & (first < frame)),
            (init, first == frame),
        )
    ]
    stores = has_row.sum(axis=1).tolist()
    # Each lane's slot, next row and end row, which starts at the next
    # lane's first row; and the lane of each store row.
    slots = mean, cov = np.zeros((lanes_total, n)), np.zeros((lanes_total, n, n))
    lane_ids = np.arange(lanes_total)
    cursor = base.copy()
    end_row = np.append(base[1:], offsets[-1])
    row_lane = np.repeat(lane_ids, end_row - base)
    ended: list[int] = []

    def end(lane: int, row: int, exc: Exception) -> None:
        """End ``lane`` before store row ``row`` with the error ``exc``."""
        end_row[lane] = row
        ended.append(lane)
        run, trial = owner[lane]
        run.stop(trial, row - base[lane], exc)

    def running(due: np.ndarray, count: list[int], t: int) -> slice | np.ndarray | None:
        """The running lanes of ``due`` at pass frame ``t``, or None: one
        slice while every lane is due and none has ended."""
        if not count[t]:
            return None
        if count[t] == lanes_total and not ended:
            return slice(None)
        rows = (due[t] & (cursor < end_row) if ended else due[t]).nonzero()[0]
        return rows if rows.size else None

    def attempt(step, src, dst, at, z, lanes, rows) -> None:
        """Put ``step`` of the stack ``at`` of ``src`` into ``dst``.  If it
        leaves the filter's domain, each member retakes it alone, in order:
        one whose lane (``lanes[at]``) has ended by its row (``rows[at]``)
        is skipped, and one that fails again ends its lane at that row."""
        try:
            step(GaussianEstimate.take(*src, at), z).put(*dst, at)
            return
        except _TRACK_STOPPERS:
            pass
        members = zip(np.arange(len(src[0]))[at].tolist(), lanes[at].tolist(), rows[at].tolist())
        for k, (i, lane, row) in enumerate(members):
            if row >= end_row[lane]:
                continue
            try:
                out = step(GaussianEstimate.take(*src, i), z if z is None else z[k])
            except _TRACK_STOPPERS as exc:
                end(lane, row, exc)
            else:
                out.put(*dst, i)

    for t in range(span):
        for step, due, count in schedule:
            if (at := running(due, count, t)) is not None:
                attempt(step, slots, slots, at, z_all[t, at], lane_ids, cursor)
        # The store packs a copy, which cannot leave the filter's domain.
        if (at := running(has_row, stores, t)) is not None:
            store[0][cursor[at]] = pack(mean[at], cov[at])
            cursor[at] += 1

    # Box every lane's stored rows, lane after lane, in blocks: unpack a
    # block, box it and pack the boxes.  Rows at or past their lane's end,
    # after a box that failed, are skipped and left zero.
    row_ids = np.arange(row_lane.size)
    rows = row_ids[row_ids < end_row[row_lane]]
    size = max(_BOX_BLOCK, lanes_total)
    for lo in range(0, rows.size, size):
        at = rows[lo : lo + size]
        at = at[at < end_row[row_lane[at]]]
        if at.size:
            boxed = np.zeros((at.size, 4)), np.zeros((at.size, 4, 4))
            attempt(box, unpack(store[0][at]), boxed, slice(None), None, row_lane[at], at)
            store[1][at] = pack(*boxed)
    return FilterPass(runs)


def real_detections(track: TrackSequence) -> Detections:
    """The track's associated detections as one trial (M = 1)."""
    detected = [i for i, box in enumerate(track.detections) if box is not None]
    z = np.array([[track.detections[i] for i in detected]], dtype=float)
    return detected, z.reshape(1, len(detected), 4)


@dataclass
class TrackResult:
    """The metrics of one track, per (filter, space), and its count of
    stopped lanes."""

    track: TrackSequence
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

    The space's rows are scored by ``evaluate_track`` against the
    annotated boxes or, in ``3d``, their semi-annotations.  A trial with
    no rows (one that stopped at initialization, and so wrote no
    estimates rows) is left out; a frame counts only when every
    remaining trial covers it.
    """
    spec = SPACES[space]
    if spec.scored_in == "3d":
        truth = semi_annotate_3d(track.annotations, cam, guessed_height_m)
    else:
        truth = np.stack([box.as_vector() for box in track.annotations])
    return evaluate_track(truth, track.frames, stack, spec.rows, spec.scored_in)


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
    tracks: Sequence[TrackSequence],
    detections: Sequence[Detections],
    bundle: ModelBundle,
    filter_names: tuple[str, ...],
    guessed_height_m: float,
    out_dir: Path,
    seq_name: str,
) -> list[TrackResult]:
    """Run the selected filters over a group of tracks, score them and
    write their files to ``out_dir``.

    ``detections`` holds each track's detections, real or simulated, as
    ``run_filter`` takes them.  Each filter makes one pass over every
    lane; its runs are scored, then their estimates files written, and
    the pass is dropped before the next one runs, so the group holds one
    filter's estimates at a time.  The metrics and summary files of each
    track follow the last pass.  The result holds one ``TrackResult`` per
    track, in their order.
    """
    results = [TrackResult(track, {}, 0) for track in tracks]
    stems = [f"{seq_name}_id{track.object_id}" for track in tracks]
    for name in filter_names:
        passed = run_filter(tracks, detections, bundle, name)
        for result, run in zip(results, passed.runs):
            result.n_failures += sum(f is not None for f in run.failures)
            for space, series_pair in evaluate_runs(
                result.track, run, bundle, guessed_height_m
            ).items():
                result.metrics[(name, space)] = series_pair
        out_dir.mkdir(parents=True, exist_ok=True)
        for stem, result, run in zip(stems, results, passed.runs):
            for space in (FILTERS[name].space, "bb"):
                path = out_dir / f"{stem}_{name}_estimates_{space}.csv"
                write_estimates_csv(path, result.track, run.estimates(space), space)
        # Drop the pass before the next one runs.
        passed = run = None
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, result in zip(stems, results):
        for (name, space), series_pair in sorted(result.metrics.items()):
            write_metrics_csv(out_dir / f"{stem}_{name}_metrics_{space}.csv", *series_pair)
        write_summary_csv(out_dir / f"{stem}_summary.csv", result)
    return results


def _estimates_header(space: str) -> str:
    """The header line of an estimates file of ``space``: trial, k, frame
    and space, then the columns of a packed row, the mean and the
    row-major upper-triangle covariance."""
    names = SPACES[space].names
    upper, _ = packed_layout(len(names))
    return ",".join(
        ["trial", "k", "frame", "space"]
        + [f"mean_{name}" for name in names]
        + [f"cov_{i}_{j}" for i, j in zip(*upper)]
    )


def write_estimates_csv(
    path: Path, track: TrackSequence, stack: TrialStack, space: str
) -> None:
    """Per-trial, per-frame means and row-major upper-triangle covariances.

    A stack's packed rows are the file's numeric columns, so each row is
    formatted and written alone, straight from the stack, and the text
    and numbers in memory stay bounded by one row.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_estimates_header(space) + "\n")
        for trial, end in enumerate(stack.ends.tolist()):
            handle.writelines(
                f"{trial},{frame},{track.first_frame + frame},{space},"
                f"{format_floats(row)}\n"
                for frame, row in zip(
                    stack.frames, map(np.ndarray.tolist, stack.values[trial, :end])
                )
            )


def read_estimates_csv(path: Path) -> tuple[str, TrialStack]:
    """Read back an estimates CSV: its space and its trials' stack.

    The header must be the one ``write_estimates_csv`` writes for some
    space, and every row must be tagged with that space.  The trials with
    rows are stacked in trial order; a file with no rows gives a stack of
    no trials.  Each trial's frames must begin the frames of the longest,
    as a run writes them.  Every value must be finite and every row's
    covariance valid for a ``GaussianEstimate``, as a run writes them.
    Blank lines are skipped, and an error names its physical line.

    The parsed numbers are held once.  When the trials come in ascending
    order, one trial's rows after another's, and every trial is as long
    as the longest, as ``run`` writes a file whose trials all ran to the
    end, the parse buffer itself becomes the stack's values.  Any other
    order, or a trial that stopped early, costs one padded copy, made
    from the buffer.  At its peak the reader holds the parsed numbers
    (or them and their padded copy), three integers per row and one
    trial's unpacked covariances.
    """
    # Per row: its trial's and frame's index in order of first appearance
    # (the dicts map any int read to its index) and its physical line.
    trials, frames, line_numbers = array("q"), array("q"), array("q")
    trial_index: dict[int, int] = {}
    frame_index: dict[int, int] = {}
    values = array("d")
    with open(path, "r", encoding="utf-8") as handle:
        numbered = enumerate(map(str.strip, text_lines(handle, path)), start=1)
        lines = ((lineno, text) for lineno, text in numbered if text)
        lineno, first = next(lines, (1, ""))
        if not first:
            raise ParseError(1, "empty estimates file", path)
        space = next((s for s in SPACES if _estimates_header(s) == first), None)
        if space is None:
            raise ParseError(lineno, f"unrecognized estimates header: {first}", path)
        width = len(first.split(","))
        for lineno, line in lines:
            fields = line.split(",")
            if len(fields) != width:
                raise ParseError(lineno, f"expected {width} fields, got {len(fields)}", path)
            if fields[3] != space:
                raise ParseError(lineno, f"space {fields[3]!r} in a {space} file", path)
            try:
                trial = int(fields[0])
                k = int(fields[1])
                values.extend(map(float, fields[4:]))
            except ValueError as exc:
                raise ParseError(lineno, str(exc), path) from exc
            trials.append(trial_index.setdefault(trial, len(trial_index)))
            frames.append(frame_index.setdefault(k, len(frame_index)))
            line_numbers.append(lineno)
    rows, width = len(trials), width - 4
    table = np.frombuffer(values, dtype=float).reshape(rows, width)
    # A finite sum has finite terms; only a sum that is not (an overflow
    # or a non-finite value) needs the full test.
    with np.errstate(over="ignore", invalid="ignore"):
        total = table.sum()
    if not math.isfinite(total) and not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        raise ParseError(
            line_numbers[row], f"not a finite number: {str(table[row, col])!r}", path
        )
    ids = sorted(trial_index)
    m = len(ids)
    k = rows // m if m else 0
    # A file as a run writes it when every trial ran to its end: the
    # trials in ascending order, one after another, each with the first
    # one's frames.  Its buffer is the stack.  (The check compares array
    # slices: on a small file they add less to the peak than the numpy
    # calls of the other case.)
    if m * k == rows and ids == list(trial_index) and all(
        trials[t * k : (t + 1) * k] == array("q", [t]) * k
        and frames[t * k : (t + 1) * k] == frames[:k]
        for t in range(m)
    ):
        stacked, ends, longest = table.reshape(m, k, width), np.full(m, k), frames[:k]
    else:
        # Each row's trial, as its rank among the trial ids; a stable sort
        # groups the rows by trial, each trial's in file order.
        rank = np.empty(m, dtype=np.int64)
        rank[[trial_index[trial] for trial in ids]] = np.arange(m)
        trial_of = rank[np.frombuffer(trials, dtype=np.int64)]
        ends = np.bincount(trial_of, minlength=m)
        groups = np.split(np.argsort(trial_of, kind="stable"), np.cumsum(ends)[:-1])
        frame_of = np.frombuffer(frames, dtype=np.int64)
        longest = frame_of[max(groups, key=len)]
        if any((frame_of[group] != longest[: group.size]).any() for group in groups):
            raise ParseError(None, "a trial's frames do not begin the longest trial's", path)
        stacked = np.zeros((m, longest.size, width))
        for t, group in enumerate(groups):
            stacked[t, : group.size] = table[group]
    # Finite values may overflow the validation's sums too.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (trial, end) in enumerate(zip(ids, ends.tolist())):
            try:
                GaussianEstimate(*unpack(stacked[t, :end]))
            except InvalidEstimate as exc:
                raise ParseError(None, f"trial {trial}: {exc}", path) from exc
    frame_ids = list(frame_index)
    return space, TrialStack([frame_ids[i] for i in longest], stacked, ends)


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
