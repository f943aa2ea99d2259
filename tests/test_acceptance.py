"""Acceptance gate: one test per release criterion.

Each test prints one status line

    [acceptance] criterion NN: PASS|FAIL|SKIPPED - detail

(visible under ``pytest -s`` or in the captured output).  Criteria 6-8
replay the published MOT-17 experiment (sequence MOT17-02, pedestrian
id 2) and need its ground-truth files: point the ``MOT17_ROOT``
environment variable at the dataset root (default ``data/MOT17``).
Without the data they report SKIPPED.  Everything else runs
self-contained.
"""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from scipy import stats

from monotrack.camera import CameraIntrinsics, backproject
from monotrack.cli import main
from monotrack.config import RunConfig, resolve_sequence
from monotrack.dataio import build_tracks, parse_mot_file, semi_annotate_3d
from monotrack.filters import GaussianEstimate, kf_update, unscented_kalman_update, unscented_transform
from monotrack.metrics import anees
from monotrack.models import (
    ar_discretize,
    build_model_3d,
    project_state,
)
from monotrack.pipeline import FILTER_NAMES, build_bundle, run_track
from monotrack.sim import SimConfig, simulate_detections

MOT17_ROOT = Path(os.environ.get("MOT17_ROOT", "data/MOT17"))
MOT17_SKIP = (
    f"MOT-17 ground truth not found under {MOT17_ROOT} "
    "(set MOT17_ROOT to enable)"
)


def _report(num: int, status: str, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d}: {status} - {detail}")


def check(num: int, passed: bool, detail: str) -> None:
    _report(num, "PASS" if passed else "FAIL", detail)
    assert passed, f"criterion {num:02d}: {detail}"


def skip(num: int, reason: str) -> None:
    _report(num, "SKIPPED", reason)
    pytest.skip(f"criterion {num:02d}: {reason}")


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _rel(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(np.abs(expected).max(), 1.0)
    return float(np.abs(actual - expected).max() / scale)


# --------------------------------------------------------------- criteria


def test_criterion_01_unscented_affine_exactness():
    t0 = perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        mean = rng.standard_normal(n)
        cov = _spd(rng, n)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        sigma = unscented_transform(mean, cov, lambda pts: a @ pts + b[:, None])
        worst = max(
            worst,
            _rel(sigma.mean_y, a @ mean + b),
            _rel(sigma.cov_y, a @ cov @ a.T),
        )
    elapsed = perf_counter() - t0
    check(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"affine transform max rel err {worst:.3g} (bound 1e-10) "
        f"over 100 seeded cases in {elapsed:.2f}s (bound 1s)",
    )


def test_criterion_02_unscented_equals_linear_kalman():
    t0 = perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        pred = GaussianEstimate(rng.standard_normal(n), _spd(rng, n))
        h = rng.standard_normal((m, n))
        r = _spd(rng, m)
        z = rng.standard_normal(m)
        linear = kf_update(pred, z, h, r)
        nonlin = unscented_kalman_update(pred, z, lambda pts: h @ pts, r)
        worst = max(
            worst, _rel(nonlin.mean, linear.mean), _rel(nonlin.cov, linear.cov)
        )
    elapsed = perf_counter() - t0
    check(
        2,
        worst <= 1e-8 and elapsed < 1.0,
        f"unscented vs linear update max rel err {worst:.3g} (bound 1e-8) "
        f"over 100 seeded systems in {elapsed:.2f}s (bound 1s)",
    )


def test_criterion_03_camera_round_trips():
    t0 = perf_counter()
    cam = CameraIntrinsics()
    model = build_model_3d(1.0 / 30.0, cam, 1080.0)
    cu, cv = cam.principal_point_px
    rng = np.random.default_rng(303)
    worst_rt = 0.0
    worst_fd = 0.0
    step = 1e-6
    for _ in range(1000):
        point = np.array([*rng.uniform(-5, 5, 2), rng.uniform(0.5, 40.0)])
        height = rng.uniform(0.3, 2.5)
        vel = rng.uniform(-3, 3, 3)
        # Columns: the point, then one step ahead and one behind along
        # its velocity; the metric height fixes the pixel height.
        states = np.zeros((8, 3))
        states[[0, 2, 4]] = (point + np.outer([0.0, step, -step], vel)).T
        states[[1, 3, 5], 0] = vel
        states[7] = height
        image = project_state(model, states)
        back = backproject(cam, image[0, 0] - cu, image[2, 0] - cv, image[6, 0], height)
        worst_rt = max(worst_rt, _rel(np.array(back), point))
        analytic = image[[1, 3], 0]
        numeric = (image[[0, 2], 1] - image[[0, 2], 2]) / (2.0 * step)
        denom = max(np.linalg.norm(analytic), 1e-3)
        worst_fd = max(worst_fd, float(np.linalg.norm(analytic - numeric) / denom))
    elapsed = perf_counter() - t0
    check(
        3,
        worst_rt <= 1e-12 and worst_fd <= 1e-6 and elapsed < 1.0,
        f"round-trip max rel err {worst_rt:.3g} (bound 1e-12), velocity vs "
        f"central differences {worst_fd:.3g} (bound 1e-6), 1000 points "
        f"in {elapsed:.2f}s (bound 1s)",
    )


def test_criterion_04_extent_process_stationarity():
    t0 = perf_counter()
    # Analytic invariance of the stationary mean and variance.
    worst = 0.0
    # (stationary mean, stddev, time constant) of each process.
    cases = [(0.85, 0.15, 0.4), (1.65, 0.1, 4.0)]
    rng = np.random.default_rng(404)
    cases += [
        (rng.uniform(0.2, 2.0), rng.uniform(0.01, 0.5), rng.uniform(0.1, 10.0))
        for _ in range(20)
    ]
    for mean, stddev, tau in cases:
        alpha, additive, noise_var = ar_discretize(mean, stddev, tau, 1.0 / 30.0)
        mean_err = abs(alpha * mean + additive - mean) / mean
        var = stddev**2
        var_err = abs(alpha**2 * var + noise_var - var) / var
        worst = max(worst, mean_err, var_err)

    # A 1e5-sample ensemble started from the stationary law and propagated
    # ten steps keeps the stationary variance within 3%.
    n = 100_000
    worst_sim = 0.0
    for mean, stddev, tau in ((0.85, 0.15, 0.4), (1.65, 0.1, 4.0)):
        alpha, additive, noise_var = ar_discretize(mean, stddev, tau, 1.0 / 30.0)
        x = mean + stddev * rng.standard_normal(n)
        for _ in range(10):
            x = alpha * x + additive + np.sqrt(noise_var) * rng.standard_normal(n)
        worst_sim = max(worst_sim, abs(x.var() / stddev**2 - 1.0))
    elapsed = perf_counter() - t0
    check(
        4,
        worst <= 1e-14 and worst_sim <= 0.03 and elapsed < 5.0,
        f"stationarity identity max rel err {worst:.3g} (bound 1e-14), "
        f"1e5-sample variance off by {worst_sim:.3%} (bound 3%) "
        f"in {elapsed:.2f}s (bound 5s)",
    )


def _sequence_semi_annotation_error(seq_dir: Path) -> tuple[float, int]:
    cfg = RunConfig(seq_dir=seq_dir)
    resolve_sequence(cfg)
    rows = parse_mot_file(cfg.gt_path, "annotation")
    tracks = build_tracks(rows, cfg.image_size)
    cam = cfg.camera()
    model = build_model_3d(1.0 / cfg.frame_rate, cam, float(min(cfg.image_size)))
    worst = 0.0
    count = 0
    for track in tracks.values():
        boxes = np.stack([box.as_vector() for box in track.annotations])
        semis = semi_annotate_3d(track.annotations, cam, 1.65)
        states = np.zeros((8, len(track.annotations)))
        states[[0, 2, 4, 6, 7]] = semis.T
        projected = project_state(model, states)[[0, 2, 4, 6]].T
        worst = max(worst, float(np.abs(projected - boxes).max()))
        count += len(track.annotations)
    return worst, count


def test_criterion_05_semi_annotation_inverse(synthetic_sequence):
    t0 = perf_counter()
    worst, count = _sequence_semi_annotation_error(synthetic_sequence.seq_dir)
    sequences = 1
    seq_dir = _find_mot17_sequence()
    if seq_dir is not None:
        mot_worst, mot_count = _sequence_semi_annotation_error(seq_dir)
        worst = max(worst, mot_worst)
        count += mot_count
        sequences += 1
    elapsed = perf_counter() - t0
    check(
        5,
        worst <= 1e-9 and elapsed < 5.0 * sequences,
        f"box reconstruction max err {worst:.3g} px (bound 1e-9) over "
        f"{count} annotations from {sequences} sequence(s) "
        f"in {elapsed:.2f}s (bound {5 * sequences}s)",
    )


# ----------------------------------------------- MOT-17 replay (6, 7, 8)


def _find_mot17_sequence() -> Path | None:
    """Directory of sequence MOT17-02, preferring the FRCNN variant."""
    if not MOT17_ROOT.is_dir():
        return None
    hits = sorted(MOT17_ROOT.glob("**/MOT17-02*/gt/gt.txt"))
    if not hits:
        return None
    for hit in hits:
        if "FRCNN" in hit.parent.parent.name:
            return hit.parent.parent
    return hits[0].parent.parent


_MOT17_CACHE: dict[str, object] = {}


def _mot17_simulation():
    """Metrics and per-filter wall times of the 200-trial replay, cached."""
    if "metrics" in _MOT17_CACHE:
        return _MOT17_CACHE["metrics"], _MOT17_CACHE["times"]
    seq_dir = _find_mot17_sequence()
    if seq_dir is None:
        return None
    cfg = RunConfig(seq_dir=seq_dir)
    resolve_sequence(cfg)
    rows = parse_mot_file(cfg.gt_path, "annotation")
    tracks = build_tracks(rows, cfg.image_size)
    if 2 not in tracks:
        return None
    track = tracks[2]
    bundle = build_bundle(cfg.image_size, cfg.frame_rate)
    sim = SimConfig(200, 20240815, bundle.model2d.R, None)
    metrics: dict[tuple[str, str], object] = {}
    times: dict[str, float] = {}
    for name in FILTER_NAMES:
        t0 = perf_counter()
        detections = (list(range(len(track.frames))), simulate_detections(track, sim))
        (result,) = run_track([track], [detections], bundle, (name,), 1.65)
        times[name] = perf_counter() - t0
        metrics.update(result.metrics)
    _MOT17_CACHE["metrics"] = metrics
    _MOT17_CACHE["times"] = times
    return metrics, times


def test_criterion_06_consistency_on_mot17():
    replay = _mot17_simulation()
    if replay is None:
        skip(6, MOT17_SKIP)
    metrics, times = replay
    median = metrics[("ukf3d", "bb")][1].median
    elapsed = times["ukf3d"]
    check(
        6,
        0.80 <= median <= 1.25 and elapsed < 120.0,
        f"3D filter time-median box ANEES {median:.4f} over 200 trials "
        f"(bound [0.80, 1.25]) in {elapsed:.1f}s (bound 120s)",
    )


def test_criterion_07_consistency_ordering_on_mot17():
    replay = _mot17_simulation()
    if replay is None:
        skip(7, MOT17_SKIP)
    metrics, times = replay
    medians = {name: metrics[(name, "bb")][1].median for name in FILTER_NAMES}
    elapsed = sum(times.values())
    check(
        7,
        medians["kf2d"] > medians["ukf3d"] > medians["bot"]
        and elapsed < 300.0,
        "time-median box ANEES ordering kf2d > ukf3d > bot: "
        f"{medians['kf2d']:.4f} > {medians['ukf3d']:.4f} > "
        f"{medians['bot']:.4f} in {elapsed:.1f}s (bound 300s)",
    )


def test_criterion_08_rmse_ordering_on_mot17():
    replay = _mot17_simulation()
    if replay is None:
        skip(8, MOT17_SKIP)
    metrics, _ = replay
    rmse_3d = metrics[("ukf3d", "bb")][0].median
    rmse_2d = metrics[("kf2d", "bb")][0].median
    check(
        8,
        rmse_3d <= rmse_2d,
        f"time-median box RMSE ukf3d {rmse_3d:.4f} <= kf2d {rmse_2d:.4f} px",
    )


def test_criterion_09_anees_chi_square_calibration():
    t0 = perf_counter()
    rng = np.random.default_rng(0)
    m, n, resamples = 5, 4, 1000
    cov = _spd(rng, n)
    root = np.linalg.cholesky(cov)
    truth = np.zeros(n)
    covs = np.broadcast_to(cov, (m, n, n))
    samples = np.empty(resamples)
    for i in range(resamples):
        means = (root @ rng.standard_normal((n, m))).T
        samples[i] = m * n * anees(truth, means, covs)
    result = stats.kstest(samples, stats.chi2(m * n).cdf)
    elapsed = perf_counter() - t0
    check(
        9,
        result.pvalue > 0.01 and elapsed < 10.0,
        f"KS test of M n ANEES against chi2({m * n}): p = {result.pvalue:.3f} "
        f"(significance 0.01) over {resamples} resamples "
        f"in {elapsed:.2f}s (bound 10s)",
    )


def test_criterion_10_byte_identical_reruns(synthetic_sequence, tmp_path):
    args = [
        "run", "--seq", str(synthetic_sequence.seq_dir),
        "--trials", "3", "--seed", "11",
    ]
    for out in ("one", "two"):
        assert main(args + ["--out", str(tmp_path / out)]) == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    identical = names == sorted(p.name for p in (tmp_path / "two").iterdir())
    n_bytes = 0
    for name in names:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        identical = identical and a == b
        n_bytes += len(a)
    check(
        10,
        identical,
        f"two identically seeded runs wrote {len(names)} files "
        f"({n_bytes} bytes) byte-identically",
    )
