"""Pipeline tests on the synthetic sequence.

The sequence's truth is drawn from the 3D motion model itself, so the
3D filter's consistency here is a property of the estimator.  Seeded
medians below were checked to be stable across seeds before freezing
(2D-box ANEES: linear filter 1.06-1.13, 3D filter 0.86-0.94, heuristic
0.72-0.77 at M = 40).
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import json
import re
import tracemalloc
import weakref
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from monotrack import pipeline
from monotrack.cli import main
from monotrack.dataio import BoundingBox, TrackSequence
from monotrack.exceptions import ConfigError, DepthNonPositive, ParseError
from monotrack.filters import GaussianEstimate, kf_predict, kf_update, ukf_predict
from monotrack.metrics import TrialStack, pack, unpack
from monotrack.models import measurement_noise
from monotrack.pipeline import (
    FILTER_NAMES,
    build_bundle,
    evaluate_runs,
    read_estimates_csv,
    real_detections,
    run_filter,
    run_track,
    write_estimates_csv,
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
    return GaussianEstimate(*unpack(stack.values[trial, k]))


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
    assert not run.native.frames and run.ends.tolist() == [0]


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_run_filter_covers_every_frame(synthetic_sequence, synthetic_bundle, name):
    track = synthetic_sequence.track()
    run = real_run(track, synthetic_bundle, name)
    assert run.failure is None
    assert run.native.frames == track.frames
    assert run.ends.tolist() == [len(track.frames)]
    assert run.native.values.shape[:2] == run.boxes.values.shape[:2]
    assert run.native.values.shape[:2] == (1, len(track.frames))


def test_dropped_frames_are_pure_predictions(synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    dropped = sorted(k - 1 for k in DROPPED_FRAMES)
    assert all(track.detections[k] is None for k in dropped)

    run2d = real_run(track, synthetic_bundle, "kf2d")
    run3d = real_run(track, synthetic_bundle, "ukf3d")
    m2, m3 = synthetic_bundle.model2d, synthetic_bundle.model3d
    for k in dropped:
        expected = kf_predict(estimate_at(run2d.native, k - 1), m2.F, m2.Q)
        stored = estimate_at(run2d.native, k)
        assert stored.mean == pytest.approx(expected.mean, rel=1e-15)
        assert stored.cov == pytest.approx(expected.cov, rel=1e-15)
        expected = ukf_predict(estimate_at(run3d.native, k - 1), m3)
        stored = estimate_at(run3d.native, k)
        assert stored.mean == pytest.approx(expected.mean, rel=1e-15)
        assert stored.cov == pytest.approx(expected.cov, rel=1e-15)


def test_annotation_gaps_advance_by_one_step_per_frame():
    boxes = [BoundingBox(900.0, 600.0, 80.0, 160.0)] * 3
    track = TrackSequence(1, [0, 1, 4], list(boxes))
    bundle = build_bundle(IMAGE_SIZE, FRAME_RATE)
    z = np.array([[box.as_vector() for box in boxes]])
    (run,) = run_filter([track], [([0, 1, 2], z)], bundle, "kf2d").runs
    assert run.native.frames == [0, 1, 4]
    # Three prediction steps bridge the gap from frame 1 to frame 4.
    m2 = bundle.model2d
    expected = estimate_at(run.native, 1)
    for _ in range(3):
        expected = kf_predict(expected, m2.F, m2.Q)
    expected = kf_update(expected, z[0, 2], m2.H, m2.R)
    stored = estimate_at(run.native, 2)
    assert stored.mean == pytest.approx(expected.mean, rel=1e-15)
    assert stored.cov == pytest.approx(expected.cov, rel=1e-15)


def test_init_failure_stops_track_and_is_counted(tmp_path, synthetic_bundle):
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
        [track], [real_detections(track)], synthetic_bundle, ("kf2d", "ukf3d"), 1.65,
        tmp_path, "SYN-01",
    )
    assert result.n_failures == 1
    assert len(result.metrics[("kf2d", "bb")][0].frames) == 4
    # The failed filter contributes an empty series, not a crash.
    rmse_series, anees_series = result.metrics[("ukf3d", "bb")]
    assert rmse_series.frames == () and np.isnan(anees_series.median)


def test_invalid_estimate_stops_only_that_trial(tmp_path, synthetic_bundle):
    # A box so wide that the baseline's extent-scaled noise overflows:
    # the invalid estimate ends the bot run, the other filter carries on.
    box = BoundingBox(900.0, 600.0, 1e200, 160.0)
    track = TrackSequence(1, [0, 1, 2], [box] * 3)
    track.detections = [box] * 3
    with np.errstate(over="ignore"):
        (result,) = run_track(
            [track], [real_detections(track)], synthetic_bundle, ("kf2d", "bot"), 1.65,
            tmp_path, "SYN-01",
        )
        failure = real_run(track, synthetic_bundle, "bot").failure
    assert result.n_failures == 1
    assert len(result.metrics[("kf2d", "bb")][0].frames) == 3
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


@pytest.mark.parametrize("workload", ["mc-trials", "real-tracks", "mc-evaluate"])
def test_traced_workloads_call_every_expected_function(
    synthetic_sequence, tmp_path, monkeypatch, workload
):
    # The benchmark's tracer, in a child process as the benchmark runs
    # it, on this suite's sequence: every function the workload must call
    # records a call, so a traced benchmark run does not stop with exit 3.
    # mc-evaluate scores again a 3D estimates file that a run wrote.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    # run.py imports tracer by its plain name; both leave sys.modules after.
    for name, path in (("tracer", "tracer.py"), ("_perfbench_run", "run.py")):
        spec = importlib.util.spec_from_file_location(name, bench / path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    run = sys.modules["_perfbench_run"]
    out = tmp_path / "out"
    seq = ["--seq", str(synthetic_sequence.seq_dir), "--out", str(out)]
    args = ["run", *seq]
    if workload != "real-tracks":
        args += ["--trials", "2", "--seed", "101", "--dropout", "real"]
    if workload == "mc-evaluate":
        assert main(args + ["--filter", "ukf3d"]) == 0
        estimates = out / f"{synthetic_sequence.name}_id1_ukf3d_estimates_3d.csv"
        args = ["evaluate", *seq, "--track-id", "1", "--estimates", str(estimates)]
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    traced = subprocess.run(
        [sys.executable, str(bench / "tracer.py"), str(stats), "--", *args],
        capture_output=True, text=True, env=env,
    )
    assert traced.returncode == 0, traced.stderr
    calls = {name: count for name, (count, _) in json.loads(stats.read_text())["functions"].items()}
    assert sorted(name for name in run.WORKLOADS[workload].expected if not calls[name]) == []


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
    # gap), two updates, and one box call for the block of the three
    # stored rows.
    assert [calls[step] for step in STEP_FUNCTIONS[name]] == [1, 3, 2, 1]


# ---------------------------------------------------------------- run_track


def test_run_track_real_detections(tmp_path, synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    (result,) = run_track(
        [track], [real_detections(track)], synthetic_bundle, FILTER_NAMES, 1.65,
        tmp_path, "SYN-01",
    )
    assert result.n_failures == 0
    assert {name for name, _ in result.metrics} == set(FILTER_NAMES)
    spaces = {space for _, space in result.metrics}
    assert spaces == {"bb", "3d"}
    for (name, space), (rmse_series, anees_series) in result.metrics.items():
        assert rmse_series.n_trials == 1
        assert len(rmse_series.frames) == len(track.frames)
        assert np.isfinite(rmse_series.median)
        assert np.isfinite(anees_series.median)


def test_run_track_drops_each_pass_before_the_next(
    monkeypatch, tmp_path, synthetic_sequence, synthetic_bundle
):
    # A group holds one filter's estimates at a time: when a pass starts,
    # every run of the passes before it has been freed.
    original = pipeline.run_filter
    earlier: list[weakref.ref] = []
    alive_at_start: list[int] = []

    def recording(*args):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in earlier))
        passed = original(*args)
        earlier.extend(weakref.ref(run) for run in passed.runs)
        return passed

    monkeypatch.setattr(pipeline, "run_filter", recording)
    track = synthetic_sequence.track()
    run_track(
        [track], [real_detections(track)], synthetic_bundle, FILTER_NAMES, 1.65,
        tmp_path, "SYN-01",
    )
    assert len(earlier) == len(FILTER_NAMES)
    assert alive_at_start == [0] * len(FILTER_NAMES)


def test_run_track_simulated_consistency(tmp_path, synthetic_sequence, synthetic_bundle):
    # Model-matched truth, detector-matched noise: the 3D filter must be
    # near-consistent in box space, the linear filter mildly
    # overconfident, the heuristic pessimistic -- and the 3D filter's
    # boxes at least as accurate as the linear filter's.
    track = synthetic_sequence.track()
    detections = simulated(track, 40, 1, synthetic_bundle)
    (result,) = run_track(
        [track], [detections], synthetic_bundle, FILTER_NAMES, 1.65, tmp_path, "SYN-01"
    )
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
    assert all(rmse.n_trials == 40 for rmse, _ in result.metrics.values())


def test_synthetic_headline_replay(synthetic_bundle):
    # The headline experiment's shape on model-drawn truth: one 600-frame
    # track, 200 trials, each filter timed alone as criteria 6-7 time it,
    # with the one draw of the trials counted in each filter's time.  The
    # passes are scored without writing their 300 MB of estimates.
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
        (run,) = run_filter([track], [detections], synthetic_bundle, name).runs
        for space, series_pair in evaluate_runs(track, run, synthetic_bundle, 1.65).items():
            metrics[(name, space)] = series_pair
        times[name] = draw_s + perf_counter() - t0
        assert run.failure is None
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
    run_track(
        [track], [real_detections(track)], synthetic_bundle, FILTER_NAMES, 1.65,
        tmp_path, "SYN-01",
    )
    written = sorted(tmp_path.iterdir())
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
    track = synthetic_sequence.track()
    detections = simulated(track, 3, 5, synthetic_bundle, dropout=False)
    run_track(
        [track], [detections], synthetic_bundle, ("ukf3d",), 1.65, tmp_path, "SYN-01"
    )
    (run,) = run_filter([track], [detections], synthetic_bundle, "ukf3d").runs
    space, stack = read_estimates_csv(tmp_path / "SYN-01_id1_ukf3d_estimates_3d.csv")
    assert space == "3d"
    assert stack.frames == run.native.frames
    assert np.array_equal(stack.ends, run.ends)
    assert np.array_equal(stack.values, run.native.values)


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_estimates_files_read_back_as_the_pass_stack(monkeypatch, tmp_path, name):
    # Three trials on a 12-frame track: trial 1's first box has a negative
    # height, so it stops at initialization and writes no row; trial 2's
    # frame-5 detection is refused by the patched update, so it stops
    # there.  Each estimates file reads back as the pass's packed rows,
    # bit for bit, for the trials with rows.
    update = {"kf2d": "kf_update", "bot": "bot_update", "ukf3d": "ukf_update"}[name]
    original = getattr(pipeline, update)

    def refusing(est, z, *args):
        if (z[..., 1] > 5000.0).any():
            raise DepthNonPositive("past the y limit")
        return original(est, z, *args)

    monkeypatch.setattr(pipeline, update, refusing)
    boxes = [BoundingBox(900.0 + 2.0 * k, 600.0 + k, 80.0, 160.0 + k) for k in range(12)]
    track = TrackSequence(1, list(range(12)), boxes)
    z = np.array([[box.as_vector() + 0.5 * t for box in boxes] for t in range(3)])
    z[1, 0, 3] = -5.0
    z[2, 5, 1] = 9000.0
    detections = (list(range(12)), z)
    bundle = build_bundle(IMAGE_SIZE, FRAME_RATE)
    run_track([track], [detections], bundle, (name,), 1.65, tmp_path, "SEQ")
    (run,) = run_filter([track], [detections], bundle, name).runs
    assert run.ends.tolist() == [12, 0, 5]
    for space in {pipeline.FILTERS[name].space, "bb"}:
        read_space, stack = read_estimates_csv(tmp_path / f"SEQ_id1_{name}_estimates_{space}.csv")
        assert read_space == space and stack.frames == run.native.frames
        assert stack.ends.tolist() == [12, 5]
        for row, (trial, end) in enumerate([(0, 12), (2, 5)]):
            want = run.estimates(space).values[trial, :end]
            assert stack.values[row, :end].tobytes() == want.tobytes()


def test_run_track_memory_stays_near_the_packed_store(tmp_path):
    # One group of M = 40 trials on a 600-frame track: the traced peak of
    # running, scoring and writing a pass stays within a measured margin
    # of the pass's packed rows (native 8-state and box rows, 58 doubles
    # per row).  A full-matrix store alone (92 doubles per row) would
    # exceed it.
    m, k = 40, 600
    boxes = truth_boxes(synthetic_truth(n_frames=k))
    track = TrackSequence(1, list(range(k)), [BoundingBox(*box) for box in boxes])
    bundle = build_bundle(IMAGE_SIZE, FRAME_RATE)
    z = simulate_detections(track, SimConfig(m, 5, bundle.model2d.R, (True,) * k))
    store_bytes = m * k * (8 + 36 + 4 + 10) * 8
    tracemalloc.start()
    try:
        (result,) = run_track(
            [track], [(list(range(k)), z)], bundle, ("kf2d",), 1.65, tmp_path, "MEM"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_failures == 0
    assert peak < store_bytes + 3_000_000 < m * k * 92 * 8


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda fields: fields.__setitem__(3, "3d"), "space '3d' in a bb file"),
        (lambda fields: fields.__setitem__(6, "nan"), "not a finite number: 'nan'"),
    ],
)
def test_estimates_reader_names_physical_lines(tmp_path, edit, message):
    # Two blank lines follow the header, so the third data row sits on
    # physical line 6.
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 1, 2], [box] * 3)
    values = pack(np.full((1, 3, 4), 5.0), np.broadcast_to(np.eye(4), (1, 3, 4, 4)))
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, track, TrialStack([0, 1, 2], values, np.array([3])), "bb")
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    fields = rows[2].split(",")
    edit(fields)
    rows[2] = ",".join(fields)
    path.write_text("\n".join([header, "", "  "] + rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 6: {re.escape(message)}"):
        read_estimates_csv(path)


def test_estimates_csv_round_trips_awkward_values(tmp_path):
    # Values whose shortest decimal is an exponent form in repr (tiny,
    # subnormal, >= 1e16), negative zero, and integral values.
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
        pack(np.stack([means, means, means[::-1]]), np.stack([covs, covs, covs[::-1]])),
        np.array([2, 0, 1]),
    )
    box = BoundingBox(900.0, 600.0, 80.0, 160.0)
    track = TrackSequence(1, [0, 3], [box] * 2, first_frame=7)
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, track, stack, "bb")
    lines = path.read_text().splitlines()
    assert lines[1].startswith("0,0,7,bb,-0,10000000000000000,0.0000")
    assert len(lines) == 1 + 3 and lines[3].startswith("2,0,7,bb,")
    space, read = read_estimates_csv(path)
    assert space == "bb"
    assert read.frames == [0, 3] and read.ends.tolist() == [2, 1]
    expected = [[0, 1], [1]]
    for trial, indices in enumerate(expected):
        read_means, read_covs = unpack(read.values[trial, : len(indices)])
        assert read_means.tobytes() == np.stack([means[i] for i in indices]).tobytes()
        assert read_covs.tobytes() == np.stack([covs[i] for i in indices]).tobytes()


def test_outputs_are_deterministic(tmp_path, synthetic_sequence, synthetic_bundle):
    track = synthetic_sequence.track()
    for sub in ("a", "b"):
        detections = simulated(track, 3, 5, synthetic_bundle)
        run_track(
            [track], [detections], synthetic_bundle, FILTER_NAMES, 1.65,
            tmp_path / sub, "SYN-01",
        )
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for a, b in zip(files_a, files_b):
        assert a.read_bytes() == b.read_bytes()
