"""Pipeline tests on the synthetic sequence.

The sequence's truth is drawn from the 3D motion model itself, so the
3D filter's consistency here is a property of the estimator.  Seeded
medians below were checked to be stable across seeds before freezing
(2D-box ANEES: linear filter 1.06-1.13, 3D filter 0.86-0.94, heuristic
0.72-0.77 at M = 40).
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from monotrack import pipeline
from monotrack.dataio import BoundingBox, TrackSequence
from monotrack.exceptions import ConfigError
from monotrack.filters import GaussianEstimate, kf_predict, kf_update, ukf_predict
from monotrack.metrics import TrialStack
from monotrack.models import measurement_noise
from monotrack.pipeline import (
    FILTER_NAMES,
    build_bundle,
    evaluate_runs,
    real_detections,
    run_filter,
    run_track,
    write_estimates_csv,
    write_run_estimates,
    write_track_outputs,
)
from monotrack.sim import SimConfig, simulate_detections

from conftest import (
    DROPPED_FRAMES,
    FRAME_RATE,
    IMAGE_SIZE,
    synthetic_truth,
    truth_boxes,
)


# ------------------------------------------------------------------- bundle


def test_build_bundle_defaults():
    bundle = build_bundle(IMAGE_SIZE, FRAME_RATE)
    assert np.array_equal(bundle.model2d.R, measurement_noise(1080.0))
    assert bundle.model2d.F[0, 1] == pytest.approx(1.0 / 30.0)
    assert bundle.cam.principal_point_px == (960.0, 540.0)
    assert bundle.model2d.R[0, 0] == pytest.approx(26.034048, rel=1e-12)


def test_build_bundle_rejects_bad_frame_rate():
    with pytest.raises(ConfigError):
        build_bundle(IMAGE_SIZE, 0.0)


# --------------------------------------------------------------- run_filter


def simulated(track, trials, seed, bundle, dropout=True):
    """The track's simulated trials as a pass takes them; with
    ``dropout``, only at the frames with a real detection."""
    mask = tuple(box is not None or not dropout for box in track.detections)
    z = simulate_detections(track, SimConfig(trials, seed, bundle.model2d.R, mask))
    return [i for i, kept in enumerate(mask) if kept], z


def real_run(track, bundle, name):
    """The run of one filter over the track's real detections."""
    return run_filter([track], [real_detections(track)], bundle, name).runs[0]


def estimate_at(stack: TrialStack, k: int, trial: int = 0) -> GaussianEstimate:
    """One trial's estimate at row k of a stack."""
    return GaussianEstimate(stack.means[trial, k], stack.covs[trial, k])


def test_run_filter_rejects_unknown_name(synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    with pytest.raises(ConfigError):
        real_run(track, synthetic_bundle, "ekf")


def test_run_filter_without_detections_records_failure(
    synthetic_sequence, synthetic_bundle
):
    track = synthetic_sequence.track(with_detections=False)
    run = real_run(track, synthetic_bundle, "kf2d")
    assert run.failure is not None
    assert not run.frames and run.ends.tolist() == [0]


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_run_filter_covers_every_frame(synthetic_sequence, synthetic_bundle, name):
    track = synthetic_sequence.track()
    run = real_run(track, synthetic_bundle, name)
    assert run.failure is None
    assert run.frames == track.frames
    assert run.ends.tolist() == [len(track.frames)]
    assert run.native.means.shape[:2] == run.boxes.means.shape[:2]
    assert run.native.means.shape[:2] == (1, len(track.frames))


def test_dropped_frames_are_pure_predictions(synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    dropped = sorted(k - 1 for k in DROPPED_FRAMES)
    assert all(track.detections[k] is None for k in dropped)

    run2d = real_run(track, synthetic_bundle, "kf2d")
    run3d = real_run(track, synthetic_bundle, "ukf3d")
    m2, m3 = synthetic_bundle.model2d, synthetic_bundle.model3d
    for k in dropped:
        expected = kf_predict(estimate_at(run2d.native, k - 1), m2.F, m2.Q)
        assert run2d.native.means[0, k] == pytest.approx(expected.mean, rel=1e-15)
        assert run2d.native.covs[0, k] == pytest.approx(expected.cov, rel=1e-15)
        expected = ukf_predict(estimate_at(run3d.native, k - 1), m3)
        assert run3d.native.means[0, k] == pytest.approx(expected.mean, rel=1e-15)
        assert run3d.native.covs[0, k] == pytest.approx(expected.cov, rel=1e-15)


def test_annotation_gaps_advance_by_one_step_per_frame():
    boxes = [BoundingBox(900.0, 600.0, 80.0, 160.0)] * 3
    track = TrackSequence(1, [0, 1, 4], list(boxes))
    bundle = build_bundle(IMAGE_SIZE, FRAME_RATE)
    z = np.array([[box.as_vector() for box in boxes]])
    (run,) = run_filter([track], [([0, 1, 2], z)], bundle, "kf2d").runs
    assert run.frames == [0, 1, 4]
    # Three prediction steps bridge the gap from frame 1 to frame 4.
    m2 = bundle.model2d
    expected = estimate_at(run.native, 1)
    for _ in range(3):
        expected = kf_predict(expected, m2.F, m2.Q)
    expected = kf_update(expected, z[0, 2], m2.H, m2.R)
    assert run.native.means[0, 2] == pytest.approx(expected.mean, rel=1e-15)
    assert run.native.covs[0, 2] == pytest.approx(expected.cov, rel=1e-15)


def test_init_failure_stops_track_and_is_counted(synthetic_bundle):
    # A first box much shorter than the detector-noise spread throws the
    # 3D initialization out of its domain: either a denoised box height
    # or a projected sigma point ends up at a non-positive depth.
    boxes = [BoundingBox(900.0, 600.0, 6.0, 12.0)] * 4
    track = TrackSequence(1, list(range(4)), list(boxes))
    track.detections = list(boxes)
    run = real_run(track, synthetic_bundle, "ukf3d")
    assert run.failure is not None
    assert "DepthNonPositive" in run.failure or "NonPositiveHeight" in run.failure
    assert run.ends.tolist() == [0]

    (result,) = run_track(
        [track], [real_detections(track)], synthetic_bundle, ("kf2d", "ukf3d"), 1.65
    )
    assert result.n_failures == 1
    assert result.runs["kf2d"].failure is None
    # The failed filter contributes an empty series, not a crash.
    rmse_series, anees_series = result.metrics[("ukf3d", "bb")]
    assert rmse_series.frames == () and np.isnan(anees_series.median)


def test_invalid_estimate_stops_only_that_trial(synthetic_bundle):
    # A box so wide that the baseline's extent-scaled noise overflows:
    # the invalid estimate ends the bot run, the other filter carries on.
    box = BoundingBox(900.0, 600.0, 1e200, 160.0)
    track = TrackSequence(1, [0, 1, 2], [box] * 3)
    track.detections = [box] * 3
    with np.errstate(over="ignore"):
        (result,) = run_track(
            [track], [real_detections(track)], synthetic_bundle, ("kf2d", "bot"), 1.65
        )
    assert result.n_failures == 1
    assert result.runs["kf2d"].failure is None
    failure = result.runs["bot"].failure
    assert failure == "InvalidEstimate: estimate has non-finite entries"


# --------------------------------------------------------------- trace seam

# The functions each filter's steps call through ``pipeline``'s names, in
# the order init, predict, update, box.
STEP_FUNCTIONS = {
    "kf2d": ("init_2d", "kf_predict", "kf_update", "linear_box_estimate"),
    "bot": ("bot_init", "bot_predict", "bot_update", "linear_box_estimate"),
    "ukf3d": ("init_3d", "ukf_predict", "ukf_update", "project_estimate"),
}


def test_traced_functions_exist():
    # Loaded as a plain module: Tracer.install would rebind the package
    # for the rest of the session.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, entries in tracer.LAYERS.values():
        module = importlib.import_module(module_name)
        for _, attribute in entries:
            owner_name, _, leaf = attribute.rpartition(".")
            owner = vars(module)[owner_name] if owner_name else module
            assert leaf in vars(owner), f"{module_name}.{attribute}"


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_filter_steps_call_rebound_module_names(monkeypatch, name):
    # A tracer wraps pipeline's bindings; a table holding the function
    # objects themselves would bypass the wrappers.
    calls: Counter[str] = Counter()
    for step in STEP_FUNCTIONS[name]:
        original = getattr(pipeline, step)

        def counting(*args, _original=original, _step=step, **kwargs):
            calls[_step] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, step, counting)
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 1, 3], [box] * 3)
    bundle = build_bundle(IMAGE_SIZE, FRAME_RATE)
    z = np.array([[box.as_vector()] * 3])
    assert run_filter([track], [([0, 1, 2], z)], bundle, name).failure is None
    # One init, three predictions (one into frame 1, two across the
    # gap), two updates and a box for each of the three frames.
    assert [calls[step] for step in STEP_FUNCTIONS[name]] == [1, 3, 2, 3]


# ---------------------------------------------------------------- run_track


def test_run_track_real_detections(synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    (result,) = run_track(
        [track], [real_detections(track)], synthetic_bundle, FILTER_NAMES, 1.65
    )
    assert result.n_failures == 0
    assert set(result.runs) == set(FILTER_NAMES)
    assert all(len(run.failures) == 1 for run in result.runs.values())
    spaces = {space for _, space in result.metrics}
    assert spaces == {"bb", "3d"}
    for (name, space), (rmse_series, anees_series) in result.metrics.items():
        assert rmse_series.n_trials == 1
        assert len(rmse_series.frames) == len(track.frames)
        assert np.isfinite(rmse_series.median)
        assert np.isfinite(anees_series.median)


def test_run_track_simulated_consistency(synthetic_sequence, synthetic_bundle):
    # Model-matched truth, detector-matched noise: the 3D filter must be
    # near-consistent in box space, the linear filter mildly
    # overconfident, the heuristic pessimistic -- and the 3D filter's
    # boxes at least as accurate as the linear filter's.
    track = synthetic_sequence.track()
    detections = simulated(track, 40, 1, synthetic_bundle)
    (result,) = run_track([track], [detections], synthetic_bundle, FILTER_NAMES, 1.65)
    assert result.n_failures == 0
    anees_bb = {
        name: result.metrics[(name, "bb")][1].median for name in FILTER_NAMES
    }
    rmse_bb = {
        name: result.metrics[(name, "bb")][0].median for name in FILTER_NAMES
    }
    assert 0.80 < anees_bb["ukf3d"] < 1.25
    assert anees_bb["kf2d"] > anees_bb["ukf3d"] > anees_bb["bot"]
    assert rmse_bb["ukf3d"] <= rmse_bb["kf2d"]
    # Camera-space consistency against the semi-annotations.
    assert 0.5 < result.metrics[("ukf3d", "3d")][1].median < 1.25
    for run in result.runs.values():
        assert len(run.failures) == 40
    assert result.metrics[("kf2d", "bb")][0].n_trials == 40


def test_synthetic_headline_replay(synthetic_bundle):
    # The headline experiment's shape on model-drawn truth: one 600-frame
    # track, 200 trials, each filter timed alone as criteria 6-7 time it,
    # with the one draw of the trials counted in each filter's time.
    # An extra check beside criteria 6-8, which need MOT-17.  Criterion
    # 7's ordering kf2d > ukf3d > bot is not asserted: on truth drawn
    # from the 3D model the baseline is overconfident, not pessimistic.
    # Time-median box ANEES on this track, which recedes to 70 m:
    # kf2d 0.883, ukf3d 0.932, bot 5.70 (box RMSE 7.05, 4.99, 8.51 px);
    # on the benchmark's seed-101 track bot 1.160 is above kf2d 1.129.
    boxes = [BoundingBox(*box) for box in truth_boxes(synthetic_truth(n_frames=600))]
    track = TrackSequence(1, list(range(600)), boxes)
    t0 = perf_counter()
    detections = simulated(track, 200, 20240815, synthetic_bundle, dropout=False)
    draw_s = perf_counter() - t0
    metrics = {}
    times = {}
    for name in FILTER_NAMES:
        t0 = perf_counter()
        (result,) = run_track([track], [detections], synthetic_bundle, (name,), 1.65)
        times[name] = draw_s + perf_counter() - t0
        assert result.n_failures == 0
        metrics.update(result.metrics)
    anees_bb = {name: metrics[(name, "bb")][1].median for name in FILTER_NAMES}
    rmse_bb = {name: metrics[(name, "bb")][0].median for name in FILTER_NAMES}
    assert 0.80 <= anees_bb["ukf3d"] <= 1.25, anees_bb
    assert rmse_bb["ukf3d"] <= rmse_bb["kf2d"], rmse_bb
    assert times["ukf3d"] < 120.0 and sum(times.values()) < 300.0, times


def test_evaluate_runs_keeps_trial_count_constant(synthetic_bundle):
    # A frame is scored only where every trial has an estimate, so an
    # early-stopping trial removes its tail from the evaluation.
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 1, 2], [box] * 3)
    z = np.array([[box.as_vector()] * 3] * 2)
    (run,) = run_filter([track], [([0, 1, 2], z)], synthetic_bundle, "kf2d").runs
    # Trial 1 stopped after frame 1.
    run.ends[1] = 2
    out = evaluate_runs(track, run, synthetic_bundle, 1.65)
    rmse_series, _ = out["bb"]
    assert rmse_series.frames == (0, 1)
    assert rmse_series.n_skipped == 1
    assert rmse_series.n_trials == 2


# ------------------------------------------------------------------ outputs


def test_write_track_outputs_layout(tmp_path, synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    (result,) = run_track(
        [track], [real_detections(track)], synthetic_bundle, FILTER_NAMES, 1.65
    )
    written = [
        path
        for run in result.runs.values()
        for path in write_run_estimates(tmp_path, "SYN-01", track, run)
    ]
    written += write_track_outputs(tmp_path, "SYN-01", result)
    names = {path.name for path in written}
    assert names == {
        "SYN-01_id1_kf2d_estimates_2d.csv",
        "SYN-01_id1_kf2d_estimates_bb.csv",
        "SYN-01_id1_kf2d_metrics_bb.csv",
        "SYN-01_id1_bot_estimates_bot.csv",
        "SYN-01_id1_bot_estimates_bb.csv",
        "SYN-01_id1_bot_metrics_bb.csv",
        "SYN-01_id1_ukf3d_estimates_3d.csv",
        "SYN-01_id1_ukf3d_estimates_bb.csv",
        "SYN-01_id1_ukf3d_metrics_bb.csv",
        "SYN-01_id1_ukf3d_metrics_3d.csv",
        "SYN-01_id1_summary.csv",
    }
    for path in written:
        assert path.is_file() and path.stat().st_size > 0
    summary = (tmp_path / "SYN-01_id1_summary.csv").read_text().splitlines()
    assert summary[0] == (
        "filter,space,median_rmse,median_anees,"
        "frames_evaluated,frames_skipped,n_trials"
    )
    assert len(summary) == 1 + 4  # three bb rows + one 3d row


def test_estimates_csv_round_trips_exactly(
    tmp_path, synthetic_sequence, synthetic_bundle
):
    from monotrack.cli import _read_estimates_csv

    track = synthetic_sequence.track()
    detections = simulated(track, 3, 5, synthetic_bundle, dropout=False)
    (result,) = run_track([track], [detections], synthetic_bundle, ("ukf3d",), 1.65)
    run = result.runs["ukf3d"]
    write_run_estimates(tmp_path, "SYN-01", track, run)
    space, stack = _read_estimates_csv(
        tmp_path / "SYN-01_id1_ukf3d_estimates_3d.csv"
    )
    assert space == "3d"
    assert stack.frames == run.frames
    assert np.array_equal(stack.ends, run.ends)
    assert np.array_equal(stack.means, run.native.means)
    assert np.array_equal(stack.covs, run.native.covs)


def test_estimates_csv_round_trips_awkward_values(tmp_path):
    # Values whose shortest decimal is an exponent form in repr (tiny,
    # subnormal, >= 1e16), negative zero, and integral values.
    from monotrack.cli import _read_estimates_csv

    means = [
        np.array([-0.0, 1e16, 5e-324, 123.0]),
        np.array([1e-5, -2.5e-300, 0.1, 1.7976931348623157e308]),
    ]
    covs = [
        np.diag([1e16, 5e-324, 1e-5, 2.0]),
        np.array(
            [
                [2.0, 1e-17, 0.0, 0.0],
                [1e-17, 3.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.5],
                [0.0, 0.0, 0.5, 1.0],
            ]
        ),
    ]
    # Trial 0 holds both rows, trial 1 stopped before writing any and
    # trial 2 after its first row (which holds the second row's values).
    stack = TrialStack(
        [0, 3],
        np.stack([means, means, means[::-1]]),
        np.stack([covs, covs, covs[::-1]]),
        np.array([2, 0, 1]),
    )
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 3], [box] * 2, first_frame=7)
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, track, stack, "bb")
    lines = path.read_text().splitlines()
    assert lines[1].startswith("0,0,7,bb,-0,10000000000000000,0.0000")
    assert len(lines) == 1 + 3 and lines[3].startswith("2,0,7,bb,")
    space, read = _read_estimates_csv(path)
    assert space == "bb"
    assert read.frames == [0, 3] and read.ends.tolist() == [2, 1]
    expected = [[0, 1], [1]]
    for trial, indices in enumerate(expected):
        rows = len(indices)
        assert read.means[trial, :rows].tobytes() == np.stack(
            [means[i] for i in indices]
        ).tobytes()
        assert read.covs[trial, :rows].tobytes() == np.stack(
            [covs[i] for i in indices]
        ).tobytes()


def test_outputs_are_deterministic(tmp_path, synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    for sub in ("a", "b"):
        detections = simulated(track, 3, 5, synthetic_bundle)
        (result,) = run_track([track], [detections], synthetic_bundle, FILTER_NAMES, 1.65)
        for run in result.runs.values():
            write_run_estimates(tmp_path / sub, "SYN-01", track, run)
        write_track_outputs(tmp_path / sub, "SYN-01", result)
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for a, b in zip(files_a, files_b):
        assert a.read_bytes() == b.read_bytes()
