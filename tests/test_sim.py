"""Detection-simulator tests: determinism, per-(trial, frame) seeding,
dropout handling, and agreement of the sample moments with the requested
noise law.
"""

from __future__ import annotations

import numpy as np
import pytest

from monotrack.dataio import BoundingBox, TrackSequence
from monotrack.exceptions import DimensionMismatch, EmptyTrack
from monotrack.models import measurement_noise
from monotrack.sim import SimConfig, simulate_detections


def make_track(n_frames=5, frames=None):
    frames = list(range(n_frames)) if frames is None else frames
    boxes = [
        BoundingBox(900.0 + 2.0 * k, 600.0 + k, 80.0 + k, 160.0 + 2.0 * k)
        for k in frames
    ]
    return TrackSequence(object_id=1, frames=list(frames), annotations=boxes)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(trials=0, seed=1, noise_cov=np.eye(4))
    with pytest.raises(DimensionMismatch):
        SimConfig(trials=1, seed=1, noise_cov=np.eye(3))


def test_zero_noise_reproduces_annotations():
    track = make_track()
    out = simulate_detections(track, SimConfig(2, 0, np.zeros((4, 4))))
    assert out.shape == (2, 5, 4)
    for row in out:
        assert np.array_equal(row, [box.as_vector() for box in track.annotations])


def test_same_seed_is_bit_identical():
    track = make_track()
    cfg = SimConfig(3, 42, measurement_noise(1080.0))
    assert np.array_equal(simulate_detections(track, cfg), simulate_detections(track, cfg))


def test_different_seeds_differ():
    track = make_track()
    a = simulate_detections(track, SimConfig(1, 1, measurement_noise(1080.0)))
    b = simulate_detections(track, SimConfig(1, 2, measurement_noise(1080.0)))
    assert not np.array_equal(a[0, 0], b[0, 0])


def test_trials_are_prefix_stable():
    # Each (trial, frame) pair owns its stream, so growing the trial
    # count reproduces the earlier trials bit for bit.
    track = make_track()
    small = simulate_detections(track, SimConfig(2, 7, measurement_noise(1080.0)))
    large = simulate_detections(track, SimConfig(5, 7, measurement_noise(1080.0)))
    assert np.array_equal(small, large[:2])


def test_dropout_does_not_shift_other_frames():
    track = make_track()
    cfg_full = SimConfig(2, 9, measurement_noise(1080.0))
    mask = (True, False, True, False, True)
    cfg_masked = SimConfig(2, 9, measurement_noise(1080.0), dropout_mask=mask)
    full = simulate_detections(track, cfg_full)
    masked = simulate_detections(track, cfg_masked)
    # Only the kept frames have detections, the same ones as unmasked.
    assert np.array_equal(masked, full[:, [0, 2, 4]])


def test_dropout_respects_frame_numbers():
    # Seeding keys on the frame number, not the list position.
    frames = [0, 3, 4, 8]
    track = make_track(frames=frames)
    dense = make_track(n_frames=9)
    cfg = SimConfig(1, 13, measurement_noise(1080.0))
    sparse_out = simulate_detections(track, cfg)[0]
    dense_out = simulate_detections(dense, cfg)[0]
    for det, k in zip(sparse_out, frames):
        noise_sparse = det - track.annotations[frames.index(k)].as_vector()
        noise_dense = dense_out[k] - dense.annotations[k].as_vector()
        assert noise_sparse == pytest.approx(noise_dense, rel=1e-15, abs=1e-15)


def test_mask_length_mismatch():
    track = make_track()
    cfg = SimConfig(1, 0, np.eye(4), dropout_mask=(True, False))
    with pytest.raises(DimensionMismatch):
        simulate_detections(track, cfg)


def test_empty_track_rejected():
    track = make_track()
    track.frames = []
    track.annotations = []
    with pytest.raises(EmptyTrack):
        simulate_detections(track, SimConfig(1, 0, np.eye(4)))


def test_sample_moments_match_noise_law():
    # One frame, many trials: the empirical mean and covariance of the
    # draws must reproduce the configured detector noise.  Tolerances sit
    # at five standard errors of the respective sample statistics.
    track = make_track(n_frames=1)
    r = measurement_noise(1080.0)
    n = 20000
    out = simulate_detections(track, SimConfig(n, 123, r))
    draws = out[:, 0] - track.annotations[0].as_vector()
    scale = np.sqrt(np.outer(np.diag(r), np.diag(r)))
    sample_cov = np.cov(draws.T)
    assert np.abs(sample_cov - r).max() / scale.max() < 5.0 * np.sqrt(2.0 / n)
    mean_err = np.abs(draws.mean(axis=0))
    assert np.all(mean_err < 5.0 * np.sqrt(np.diag(r) / n))
