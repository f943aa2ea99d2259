"""The batched filter core against the per-trial reference.

Every filter step takes one estimate or a stack of M trials' estimates.
A stacked step must give each trial bit for bit what that trial gets
alone, and ``run_filter`` over M trials, or over several tracks, must
store exactly the rows of single-trial runs, including a trial that
stops while the others go on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotrack.dataio import BoundingBox, TrackSequence
from monotrack.exceptions import ConfigError, DimensionMismatch
from monotrack.filters import GaussianEstimate
from monotrack.models import (
    MEASURED_ROWS,
    bot_measurement_noise,
    bot_process_noise,
    project_state,
)
from monotrack.pipeline import (
    FILTER_NAMES,
    FILTERS,
    build_bundle,
    real_detection_vectors,
    real_dropout_mask,
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


def assert_rows_match(batched, trial: int, alone) -> None:
    """Trial ``trial`` of a batched run stored what its lone run stored."""
    end = alone.ends[0]
    assert batched.ends[trial] == end
    assert batched.failures[trial] == alone.failure
    for space in ("bb", FILTERS[batched.filter_name].space):
        mine, ref = batched.estimates(space), alone.estimates(space)
        assert same_bits(mine.means[trial, :end], ref.means[0, :end])
        assert same_bits(mine.covs[trial, :end], ref.covs[0, :end])


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_run_filter_matches_lone_trial_runs(synthetic_sequence, name):
    track = synthetic_sequence.track()
    cfg = SimConfig(5, 17, BUNDLE.model2d.R, real_dropout_mask(track))
    trials = simulate_detections(track, cfg)
    batched = run_filter(track, trials, BUNDLE, name)
    assert batched.failure is None
    for trial, detections in enumerate(trials):
        assert_rows_match(batched, trial, run_filter(track, [detections], BUNDLE, name))


def test_trial_behind_camera_stops_alone():
    # Trial 1's second box is twenty times too tall: its update pulls the
    # depth so close that a sigma point lands behind the camera.  It
    # stops there with the message of its lone run; the others go on.
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 1, 2, 3], [box] * 4)
    z = box.as_vector()
    trials = [[z + 0.5 * t for _ in range(4)] for t in range(3)]
    trials[1][1] = np.array([900.0, 600.0, 80.0, 3200.0])
    batched = run_filter(track, trials, BUNDLE, "ukf3d")
    assert batched.failures[0] is None and batched.failures[2] is None
    assert batched.failures[1].startswith("DepthNonPositive: ")
    assert batched.ends.tolist() == [4, 1, 4]
    for trial, detections in enumerate(trials):
        alone = run_filter(track, [detections], BUNDLE, "ukf3d")
        assert_rows_match(batched, trial, alone)


def test_trials_must_miss_the_same_frames():
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 1], [box] * 2)
    z = box.as_vector()
    run = run_filter(track, [[z, None], [z, None]], BUNDLE, "kf2d")
    assert run.failure is None and run.ends.tolist() == [2, 2]
    with pytest.raises(DimensionMismatch):
        run_filter(track, [[z, None], [z, z]], BUNDLE, "kf2d")


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
    trials = [[real_detection_vectors(track)] for track in tracks]
    # Track 1 carries a second trial, so a track's lanes form a block.
    trials[0].append([None if z is None else z + 0.25 for z in trials[0][0]])
    passed = run_filter(tracks, trials, BUNDLE, name)
    assert len(passed.runs) == len(tracks)
    for track, series, run in zip(tracks, trials, passed.runs):
        for trial, detections in enumerate(series):
            alone = run_filter(track, [detections], BUNDLE, name)
            assert run.frames == alone.frames
            assert_rows_match(run, trial, alone)
    failures = [run.failure for run in passed.runs]
    if name == "ukf3d":
        assert failures[0] is None and failures[1] is None
        assert passed.runs[2].ends.tolist() == [0]
        assert failures[3].startswith("DepthNonPositive: ")
        assert passed.failure == failures[2]
    else:
        assert failures == [None] * 4 and passed.failure is None


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_multi_track_run_track_scores_each_track_alone(name):
    tracks = hand_tracks()
    results = run_track(tracks, BUNDLE, (name,), 1.65)
    assert [result.track for result in results] == tracks
    with pytest.raises(ConfigError):
        run_track(tracks, BUNDLE, (name,), 1.65, SimConfig(2, 1, BUNDLE.model2d.R, None))
    for track, result in zip(tracks, results):
        lone = run_track(track, BUNDLE, (name,), 1.65)
        assert result.n_failures == lone.n_failures
        assert result.metrics.keys() == lone.metrics.keys()
        for key, series_pair in lone.metrics.items():
            for mine, ref in zip(result.metrics[key], series_pair):
                assert mine.frames == ref.frames
                assert same_bits(mine.values, ref.values)
                assert (mine.space, mine.n_trials, mine.n_skipped) == (
                    ref.space, ref.n_trials, ref.n_skipped
                )
