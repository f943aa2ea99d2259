"""The batched filter core against the per-trial reference.

Every filter step takes one estimate or a stack of M trials' estimates.
A stacked step must give each trial bit for bit what that trial gets
alone, and ``run_filter`` over M trials, or over several tracks, must
store exactly the rows of each lane stepped alone, including a lane
that stops while the others go on, at any of its steps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotrack import pipeline
from monotrack.dataio import BoundingBox, TrackSequence
from monotrack.exceptions import DepthNonPositive, DimensionMismatch
from monotrack.filters import GaussianEstimate
from monotrack.metrics import pack, unpack
from monotrack.models import (
    MEASURED_ROWS,
    bot_measurement_noise,
    bot_process_noise,
    project_state,
)
from monotrack.pipeline import (
    _TRACK_STOPPERS,
    FILTER_NAMES,
    FILTERS,
    build_bundle,
    real_detections,
    run_filter,
    run_track,
)
from monotrack.sim import SimConfig, simulate_detections

from conftest import FRAME_RATE, IMAGE_SIZE

BUNDLE = build_bundle(IMAGE_SIZE, FRAME_RATE)

# Box extents whose square rounds differently through pow (a scalar's
# ** 2) and a multiply (an array's ** 2).
POW_SENSITIVE = (148.8034256117433, 374.7935813057215)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: -0.0 differs from 0.0, as in a CSV."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_spd(rng: np.random.Generator, n: int, scale: np.ndarray) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return np.outer(scale, scale) * (a @ a.T / n + np.eye(n))


def trial_inputs(
    name: str, rng: np.random.Generator, extents: list[tuple[float, float]]
) -> tuple[GaussianEstimate, np.ndarray]:
    """A stack of M native estimates and their M detections."""
    means, covs, boxes = [], [], []
    for width, height in extents:
        if name == "ukf3d":
            state = np.array(
                [
                    rng.normal(0.0, 1.0), rng.normal(0.0, 1.0),
                    rng.uniform(0.5, 1.5), rng.normal(0.0, 0.3),
                    rng.uniform(4.0, 20.0), rng.normal(0.0, 1.0),
                    rng.uniform(0.6, 1.1), rng.uniform(1.4, 1.9),
                ]
            )
            scale = np.array([0.1, 0.3, 0.1, 0.3, 0.2, 0.3, 0.05, 0.05])
            box = project_state(BUNDLE.model3d, state)[list(MEASURED_ROWS)]
        else:
            state = np.array(
                [
                    rng.uniform(0.0, 1920.0), rng.normal(0.0, 20.0),
                    rng.uniform(0.0, 1080.0), rng.normal(0.0, 20.0),
                    width, rng.normal(0.0, 2.0),
                    height, rng.normal(0.0, 2.0),
                ]
            )
            scale = np.array([width, 1.0, height, 1.0, width, 1.0, height, 1.0]) / 10
            box = state[list(MEASURED_ROWS)]
        means.append(state)
        covs.append(random_spd(rng, 8, scale))
        boxes.append(box + rng.normal(0.0, 1.0, 4) * box[[2, 3, 2, 3]] / 50)
    stacked = GaussianEstimate(np.stack(means), np.stack(covs))
    return stacked, np.stack(boxes)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(FILTER_NAMES),
    seed=st.integers(0, 2**32 - 1),
    extents=st.lists(
        st.tuples(st.floats(1.0, 1e4), st.floats(1.0, 1e4)), min_size=1, max_size=6
    ),
)
@example(name="bot", seed=0, extents=[POW_SENSITIVE, POW_SENSITIVE[::-1], (80.0, 160.0)])
def test_batched_steps_match_lone_trials(name, seed, extents):
    spec = FILTERS[name]
    est, boxes = trial_inputs(name, np.random.default_rng(seed), extents)
    alone = [GaussianEstimate(m, c) for m, c in zip(est.mean, est.cov)]
    steps = {
        "init": (spec.init(boxes, BUNDLE), [spec.init(z, BUNDLE) for z in boxes]),
        "predict": (
            spec.predict(est, BUNDLE),
            [spec.predict(one, BUNDLE) for one in alone],
        ),
        "update": (
            spec.update(est, boxes, BUNDLE),
            [spec.update(one, z, BUNDLE) for one, z in zip(alone, boxes)],
        ),
        "box": (spec.box(est, BUNDLE), [spec.box(one, BUNDLE) for one in alone]),
    }
    for step, (stacked, singles) in steps.items():
        for trial, single in enumerate(singles):
            assert same_bits(stacked.mean[trial], single.mean), (step, trial)
            assert same_bits(stacked.cov[trial], single.cov), (step, trial)


def scalar_bot_noise(width: float, height: float, zeta: float) -> np.ndarray:
    """The baseline's extent-proportional noise as the per-trial filter
    first computed it, from numpy scalars."""
    w2, h2 = np.float64(width) ** 2, np.float64(height) ** 2
    return np.diag(np.array([w2, h2, w2, h2]) * zeta**2)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(1e-3, 1e5), st.floats(1e-3, 1e5)), min_size=1, max_size=8
    )
)
@example([POW_SENSITIVE, POW_SENSITIVE[::-1]])
def test_bot_noise_squares_extents_as_scalars_do(extents):
    widths, heights = np.array(extents).T
    params = BUNDLE.bot_params
    stacked_r = bot_measurement_noise(widths, heights, params)
    stacked_q = bot_process_noise(widths, heights, params)
    for trial, (width, height) in enumerate(extents):
        r = scalar_bot_noise(width, height, params.zeta_r)
        assert same_bits(stacked_r[trial], r)
        assert same_bits(np.diag(stacked_q[trial])[0::2], np.diag(r))
        assert same_bits(bot_measurement_noise(width, height, params), r)


def test_pow_sensitive_extents_differ_between_square_forms():
    # Guards the examples above: on these values the two forms of a
    # square disagree, so noise built on an array's ``** 2`` would not
    # match the per-trial filter's.
    for value in POW_SENSITIVE:
        assert np.float64(value) ** 2 != (np.array([value]) ** 2)[0]


def lane_alone(track, detected, z, name):
    """One lane stepped alone with the 1-D step calls: the (native, box)
    estimates it stores, one pair per row, and why it stopped, or None.

    It initializes at the track's first detection, predicts at every
    absolute frame step after it, updates where there is a detection,
    and boxes and stores each of the track's frames from there on.
    """
    if not len(detected):
        return [], "no detections to initialize from"
    spec = FILTERS[name]
    at = {track.frames[i]: one for i, one in zip(detected, z)}
    rows = set(track.frames)
    stored = []
    est = None
    try:
        for k in range(track.frames[detected[0]], track.frames[-1] + 1):
            if est is None:
                est = spec.init(at[k], BUNDLE)
            else:
                est = spec.predict(est, BUNDLE)
                if k in at:
                    est = spec.update(est, at[k], BUNDLE)
            if k in rows:
                stored.append((est, spec.box(est, BUNDLE)))
    except _TRACK_STOPPERS as exc:
        return stored, f"{type(exc).__name__}: {exc}"
    return stored, None


def assert_rows_match(run, trial: int, alone) -> None:
    """Trial ``trial`` of a run stored what its lane stored alone."""
    stored, failure = alone
    end = len(stored)
    assert run.ends[trial] == end
    assert run.failures[trial] == failure
    for space, pick in ((FILTERS[run.filter_name].space, 0), ("bb", 1)):
        means, covs = unpack(run.estimates(space).values[trial])
        for row, pair in enumerate(stored):
            assert same_bits(means[row], pair[pick].mean)
            assert same_bits(covs[row], pair[pick].cov)


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_run_filter_matches_lone_trial_runs(synthetic_sequence, name):
    track = synthetic_sequence.track()
    mask = tuple(box is not None for box in track.detections)
    detected = [i for i, kept in enumerate(mask) if kept]
    z = simulate_detections(track, SimConfig(5, 17, BUNDLE.model2d.R, mask))
    passed = run_filter([track], [(detected, z)], BUNDLE, name)
    assert passed.failure is None
    for trial, lane in enumerate(z):
        assert_rows_match(passed.runs[0], trial, lane_alone(track, detected, lane, name))


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_every_stored_covariance_is_symmetric(monkeypatch, synthetic_sequence, name):
    # Every covariance a pass packs, native or boxed, is exactly symmetric
    # and unpacks to itself bit for bit, so a stored row loses nothing.
    packed: list[int] = []

    def checked_pack(means, covs):
        assert same_bits(covs, covs.swapaxes(-1, -2))
        values = pack(means, covs)
        back_means, back_covs = unpack(values)
        assert same_bits(back_means, means) and same_bits(back_covs, covs)
        packed.append(len(values))
        return values

    monkeypatch.setattr(pipeline, "pack", checked_pack)
    track = synthetic_sequence.track()
    mask = tuple(box is not None for box in track.detections)
    detected = [i for i, kept in enumerate(mask) if kept]
    z = simulate_detections(track, SimConfig(5, 17, BUNDLE.model2d.R, mask))
    passed = run_filter([track], [(detected, z)], BUNDLE, name)
    assert passed.failure is None
    # Each frame's store and each box block: five rows per frame, boxed
    # in blocks of 64 rows.
    assert sum(packed) == 2 * 5 * len(track.frames)


def test_trial_behind_camera_stops_alone():
    # Trial 1's second box is twenty times too tall: its update pulls the
    # depth so close that a sigma point lands behind the camera.  It
    # stops there with the message of its lone run; the others go on.
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 1, 2, 3], [box] * 4)
    z = np.array([[box.as_vector() + 0.5 * t] * 4 for t in range(3)])
    z[1, 1] = [900.0, 600.0, 80.0, 3200.0]
    (run,) = run_filter([track], [([0, 1, 2, 3], z)], BUNDLE, "ukf3d").runs
    assert run.failures[0] is None and run.failures[2] is None
    assert run.failures[1].startswith("DepthNonPositive: ")
    assert run.ends.tolist() == [4, 1, 4]
    for trial, lane in enumerate(z):
        assert_rows_match(run, trial, lane_alone(track, [0, 1, 2, 3], lane, "ukf3d"))


def test_detections_must_fit_their_frames():
    # A track's M trials have their detections at the same D frames: one
    # (M, D, 4) array.  Any other shape, or a count of detection sets
    # that is not the track count, is refused.
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 1], [box] * 2)
    z = np.array([[box.as_vector()]] * 2)
    (run,) = run_filter([track], [([0], z)], BUNDLE, "kf2d").runs
    assert run.failure is None and run.ends.tolist() == [2, 2]
    for bad in (z[0], z[..., :3], np.concatenate([z, z], axis=1)):
        with pytest.raises(DimensionMismatch):
            run_filter([track], [([0], bad)], BUNDLE, "kf2d")
    with pytest.raises(DimensionMismatch):
        run_filter([track, track], [([0], z)], BUNDLE, "kf2d")


# The pipeline names of each filter's predict and update functions.
STEP_FUNCTIONS = {
    "predict": {"kf2d": "kf_predict", "bot": "bot_predict", "ukf3d": "ukf_predict"},
    "update": {"kf2d": "kf_update", "bot": "bot_update", "ukf3d": "ukf_update"},
}
# Where a patched predict refuses a lane: its first state component (image
# x in pixels, or lateral position in metres for ukf3d) past this limit.
PREDICT_X_LIMIT = {"kf2d": 1200.0, "bot": 1200.0, "ukf3d": 2.0}


def walking_tracks() -> list[TrackSequence]:
    """Three ten-frame tracks: track 1 misses its detection at frame 6,
    track 2 starts at frame 2 and walks 50 px a frame to the right, and
    track 3 walks beside track 1."""
    def track(object_id: int, x0: float, dx: float, first: int, dropped: set[int]):
        boxes = [BoundingBox(x0 + dx * k, 600.0 + k, 80.0, 160.0 + k) for k in range(10)]
        seen = [
            None if first + k in dropped else BoundingBox(b.x + 1.5, b.y - 0.5, b.w, b.h)
            for k, b in enumerate(boxes)
        ]
        return TrackSequence(object_id, list(range(10)), boxes, seen, first_frame=first)

    return [
        track(1, 700.0, 3.0, 0, {6}),
        track(2, 1000.0, 50.0, 2, set()),
        track(3, 900.0, 3.0, 0, set()),
    ]


@pytest.mark.parametrize("step", ["predict", "update"])
@pytest.mark.parametrize("name", FILTER_NAMES)
def test_lane_stopping_at_predict_or_update_stops_alone(monkeypatch, name, step):
    # The filter's predict (or update) refuses any stack that holds a lane
    # past x = 1200 px, as a domain error.  Only track 2 of
    # ``walking_tracks`` walks that far, so it stops mid-track, at frame 6
    # for the update, while track 1's two trials, which have no detection
    # at frame 6, and track 3 go on.
    attribute = STEP_FUNCTIONS[step][name]
    original = getattr(pipeline, attribute)

    def refusing(est, *args):
        x = args[0][..., 0] if step == "update" else est.mean[..., 0]
        limit = 1200.0 if step == "update" else PREDICT_X_LIMIT[name]
        if (x > limit).any():
            raise DepthNonPositive("past the x limit")
        return original(est, *args)

    monkeypatch.setattr(pipeline, attribute, refusing)
    tracks = walking_tracks()
    detections = [real_detections(one) for one in tracks]
    detected, z = detections[0]
    detections[0] = (detected, np.concatenate([z, z + 0.25]))
    passed = run_filter(tracks, detections, BUNDLE, name)
    for one, (detected, z), run in zip(tracks, detections, passed.runs):
        for trial, lane in enumerate(z):
            assert_rows_match(run, trial, lane_alone(one, detected, lane, name))
    stopped = passed.runs[1]
    assert stopped.failures == ["DepthNonPositive: past the x limit"]
    assert 0 < stopped.ends[0] < 10
    if step == "update":
        assert stopped.ends.tolist() == [4]
    for run in (passed.runs[0], passed.runs[2]):
        assert run.failure is None and (run.ends == 10).all()


# The pipeline name of each filter's box function, and where a patched
# one refuses a row: its first state component past this limit, which
# only track 2 of ``walking_tracks`` crosses, at its second row.
BOX_FUNCTIONS = {
    "kf2d": "linear_box_estimate", "bot": "linear_box_estimate", "ukf3d": "project_estimate"
}
BOX_X_LIMIT = {"kf2d": 1020.0, "bot": 1020.0, "ukf3d": 0.6}


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_lane_stopping_at_box_stops_alone(monkeypatch, name):
    # The box refuses any stack that holds a row past the x limit.  Track
    # 1 starts a frame late (9 rows) and track 3 carries two trials, so
    # four lanes are boxed four rows at a time, lane after lane.  The
    # third block holds track 1's last row and track 2's first three; it
    # is boxed row by row, and track 2 ends at its second row.  Its third
    # row, the next block (all track 2) and track 2's rows in the block
    # after are never boxed.
    original = getattr(pipeline, BOX_FUNCTIONS[name])
    shapes: list[tuple[int, ...]] = []

    def refusing(est, *args):
        shapes.append(est.mean.shape[:-1])
        if (est.mean[..., 0] > BOX_X_LIMIT[name]).any():
            raise DepthNonPositive("past the x limit")
        return original(est, *args)

    monkeypatch.setattr(pipeline, BOX_FUNCTIONS[name], refusing)
    monkeypatch.setattr(pipeline, "_BOX_BLOCK", 3)
    tracks = walking_tracks()
    detections = [real_detections(one) for one in tracks]
    detected, z = detections[0]
    detections[0] = (detected[1:], z[:, 1:])
    detected, z = detections[2]
    detections[2] = (detected, np.concatenate([z, z + 0.25]))
    passed = run_filter(tracks, detections, BUNDLE, name)
    assert shapes == [(4,)] * 3 + [()] * 3 + [(1,)] + [(4,)] * 4 + [(3,)]
    for one, (detected, z), run in zip(tracks, detections, passed.runs):
        for trial, lane in enumerate(z):
            assert_rows_match(run, trial, lane_alone(one, detected, lane, name))
    stopped = passed.runs[1]
    assert stopped.failures == ["DepthNonPositive: past the x limit"]
    assert stopped.ends.tolist() == [1]
    assert not stopped.boxes.values[0, 1:].any()
    for run in (passed.runs[0], passed.runs[2]):
        assert run.failure is None and (run.ends == len(run.native.frames)).all()


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_update_stop_and_box_stop_in_one_pass(monkeypatch, name):
    # Track 3 of ``walking_tracks`` carries two trials, and trial 1's
    # detection at frame 5 lies far below the image, where the update
    # refuses it: that lane ends at row 5.  The box refuses track 2 at its
    # second row, as above.  In blocks of four rows, that row closes a
    # block that starts with track 1's last two rows.  The update-stopped
    # lane's five rows come after it and are still boxed.
    update, box = STEP_FUNCTIONS["update"][name], BOX_FUNCTIONS[name]
    originals = {attribute: getattr(pipeline, attribute) for attribute in (update, box)}

    def refusing_update(est, z, *args):
        if (z[..., 1] > 5000.0).any():
            raise DepthNonPositive("past the y limit")
        return originals[update](est, z, *args)

    def refusing_box(est, *args):
        if (est.mean[..., 0] > BOX_X_LIMIT[name]).any():
            raise DepthNonPositive("past the x limit")
        return originals[box](est, *args)

    monkeypatch.setattr(pipeline, update, refusing_update)
    monkeypatch.setattr(pipeline, box, refusing_box)
    monkeypatch.setattr(pipeline, "_BOX_BLOCK", 3)
    tracks = walking_tracks()
    detections = [real_detections(one) for one in tracks]
    detected, z = detections[2]
    z = np.concatenate([z, z + 0.25])
    z[1, 5, 1] = 9000.0
    detections[2] = (detected, z)
    passed = run_filter(tracks, detections, BUNDLE, name)
    for one, (detected, z), run in zip(tracks, detections, passed.runs):
        for trial, lane in enumerate(z):
            assert_rows_match(run, trial, lane_alone(one, detected, lane, name))
    assert passed.runs[0].failures == [None]
    assert passed.runs[1].failures == ["DepthNonPositive: past the x limit"]
    assert passed.runs[2].failures == [None, "DepthNonPositive: past the y limit"]
    assert [run.ends.tolist() for run in passed.runs] == [[10], [1], [10, 5]]
    assert unpack(passed.runs[2].boxes.values[1, :5])[1].any(axis=(1, 2)).all()


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_box_block_size_changes_no_row(monkeypatch, name):
    # Two lanes: trial 1 of the behind-camera track (ukf3d stops it at
    # its second frame) and a track with annotation gaps and no detection
    # on its first two frames.  Blocks of 2, 3 and the default rows store
    # the same bits, and every lane its lone run's rows.
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    behind = TrackSequence(1, [0, 1, 2, 3], [box] * 4)
    z = np.array([[box.as_vector() + 0.5] * 4])
    z[0, 1] = [900.0, 600.0, 80.0, 3200.0]
    tracks = [behind, hand_tracks()[1]]
    detections = [([0, 1, 2, 3], z), real_detections(tracks[1])]
    runs = {}
    for size in (1, 3, pipeline._BOX_BLOCK):
        monkeypatch.setattr(pipeline, "_BOX_BLOCK", size)
        runs[size] = run_filter(tracks, detections, BUNDLE, name).runs
    for one, (detected, z), run in zip(tracks, detections, runs[1]):
        assert_rows_match(run, 0, lane_alone(one, detected, z[0], name))
    assert (runs[1][0].failure is not None) == (name == "ukf3d")
    for size, other in runs.items():
        for mine, ref in zip(other, runs[1]):
            assert mine.failures == ref.failures and mine.ends.tolist() == ref.ends.tolist()
            for a, b in ((mine.native, ref.native), (mine.boxes, ref.boxes)):
                assert same_bits(a.values, b.values), size


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_full_stack_steps_give_way_after_a_stop(monkeypatch, name):
    # Every lane takes every step of one track until trial 1's detections
    # jump past x = 1000 px at frame 5, where the update refuses it.  The
    # updates carry all three slots until then, the three lanes alone at
    # frame 5, and the two live slots after it; every lane stores its
    # lone run's rows.
    original = getattr(pipeline, STEP_FUNCTIONS["update"][name])
    sizes: list[int] = []

    def refusing(est, z, *args):
        sizes.append(len(z) if z.ndim == 2 else 1)
        if (z[..., 0] > 1000.0).any():
            raise DepthNonPositive("past the x limit")
        return original(est, z, *args)

    monkeypatch.setattr(pipeline, STEP_FUNCTIONS["update"][name], refusing)
    boxes = [BoundingBox(900.0 + 3.0 * k, 600.0 + k, 80.0, 160.0 + k) for k in range(10)]
    track = TrackSequence(1, list(range(10)), boxes)
    z = np.array([[b.as_vector() + 0.5 * t for b in boxes] for t in range(3)])
    z[1, 5:, 0] += 100.0
    (run,) = run_filter([track], [(list(range(10)), z)], BUNDLE, name).runs
    assert sizes == [3] * 5 + [1] * 3 + [2] * 4
    assert run.ends.tolist() == [10, 5, 10]
    for trial, lane in enumerate(z):
        assert_rows_match(run, trial, lane_alone(track, list(range(10)), lane, name))


def hand_tracks() -> list[TrackSequence]:
    """Tracks that start, end and miss detections at different frames.

    Track 1 drops frames 3-4; track 2 has annotation gaps and no
    detection on its first two frames; track 3's first box is too small
    for ukf3d to initialize; track 4's second box is twenty times too
    tall, which puts a ukf3d sigma point behind the camera.
    """
    def walk(n: int, x0: float) -> list[BoundingBox]:
        return [BoundingBox(x0 + 3.0 * k, 600.0 + k, 80.0, 160.0 + k) for k in range(n)]

    def detect(boxes: list[BoundingBox], dropped: set[int]) -> list[BoundingBox | None]:
        return [
            None if k in dropped else BoundingBox(b.x + 1.5, b.y - 0.5, b.w + 1.0, b.h - 2.0)
            for k, b in enumerate(boxes)
        ]

    boxes = walk(8, 700.0)
    one = TrackSequence(1, list(range(8)), boxes, detect(boxes, {3, 4}), first_frame=5)
    boxes = walk(7, 1100.0)
    two = TrackSequence(2, [0, 1, 2, 5, 6, 9, 10], boxes, detect(boxes, {0, 1, 4}), first_frame=3)
    tiny = [BoundingBox(900.0, 600.0, 6.0, 12.0)] * 6
    three = TrackSequence(3, list(range(6)), tiny, list(tiny), first_frame=8)
    boxes = walk(7, 900.0)
    tall = detect(boxes, {4})
    tall[1] = BoundingBox(900.0, 600.0, 80.0, 3200.0)
    four = TrackSequence(4, list(range(7)), boxes, tall, first_frame=4)
    return [one, two, three, four]


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_multi_track_pass_matches_lone_passes(name):
    tracks = hand_tracks()
    detections = [real_detections(track) for track in tracks]
    # Track 1 carries a second trial, so a track's lanes form a block.
    detected, z = detections[0]
    detections[0] = (detected, np.concatenate([z, z + 0.25]))
    passed = run_filter(tracks, detections, BUNDLE, name)
    assert len(passed.runs) == len(tracks)
    for track, (detected, z), run in zip(tracks, detections, passed.runs):
        assert run.native.frames == track.frames[detected[0] :]
        for trial, lane in enumerate(z):
            assert_rows_match(run, trial, lane_alone(track, detected, lane, name))
    failures = [run.failure for run in passed.runs]
    if name == "ukf3d":
        assert failures[0] is None and failures[1] is None
        assert passed.runs[2].ends.tolist() == [0]
        assert failures[3].startswith("DepthNonPositive: ")
        assert passed.failure == failures[2]
    else:
        assert failures == [None] * 4 and passed.failure is None


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_multi_track_run_track_scores_each_track_alone(tmp_path, name):
    tracks = hand_tracks()
    detections = [real_detections(track) for track in tracks]
    group = tmp_path / "group"
    results = run_track(tracks, detections, BUNDLE, (name,), 1.65, group, "HAND")
    assert [result.track for result in results] == tracks
    for track, one, result in zip(tracks, detections, results):
        alone = tmp_path / f"id{track.object_id}"
        (lone,) = run_track([track], [one], BUNDLE, (name,), 1.65, alone, "HAND")
        assert result.n_failures == lone.n_failures
        assert result.metrics.keys() == lone.metrics.keys()
        for key, series_pair in lone.metrics.items():
            for mine, ref in zip(result.metrics[key], series_pair):
                assert mine.frames == ref.frames
                assert same_bits(mine.values, ref.values)
                assert (mine.space, mine.n_trials, mine.n_skipped) == (
                    ref.space, ref.n_trials, ref.n_skipped
                )
        # The group writes each track's files as its lone run does.
        written = sorted(path.name for path in alone.iterdir())
        assert written == sorted(
            path.name for path in group.glob(f"HAND_id{track.object_id}_*")
        )
        for file_name in written:
            assert (group / file_name).read_bytes() == (alone / file_name).read_bytes()
