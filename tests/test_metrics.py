"""Metric tests: hand values for RMSE and ANEES, invariances, the
chi-square sampling law of ANEES under a correctly reported Gaussian,
and the scoring of a stack of trials over a track.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from monotrack import metrics
from monotrack.exceptions import (
    DimensionMismatch,
    FrameMisalignment,
    SingularCovariance,
)
from monotrack.metrics import (
    EvalSeries,
    TrialStack,
    anees,
    evaluate_track,
    pack,
    packed_layout,
    rmse,
    unpack,
)


# -------------------------------------------------------------------- rmse


def test_rmse_single_estimate():
    assert rmse(np.zeros(2), np.array([[3.0, 4.0]])) == 5.0


def test_rmse_averages_over_trials():
    means = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert rmse(np.zeros(2), means) == 1.0


def test_rmse_perfect_is_zero():
    assert rmse(np.ones(3), np.ones((5, 3))) == 0.0


def test_rmse_rejects_mismatch():
    with pytest.raises(DimensionMismatch):
        rmse(np.zeros(2), np.zeros((3, 3)))


# ------------------------------------------------------------------- anees


def test_anees_scalar_values():
    truth = np.zeros(1)
    assert anees(truth, np.array([[0.5]]), np.array([[[1.0]]])) == 0.25
    assert anees(truth, np.array([[2.0]]), np.array([[[1.0]]])) == 4.0
    # Dividing the covariance scales the value up in proportion.
    assert anees(truth, np.array([[2.0]]), np.array([[[0.25]]])) == 16.0


def test_anees_normalizes_by_dimension():
    truth = np.zeros(2)
    value = anees(truth, np.array([[1.0, 1.0]]), np.eye(2))
    assert value == 1.0


def test_anees_averages_over_trials():
    truth = np.zeros(1)
    means = np.array([[1.0], [3.0]])
    covs = np.array([[[1.0]], [[1.0]]])
    assert anees(truth, means, covs) == 5.0


def test_anees_accepts_shared_covariance():
    truth = np.zeros(2)
    means = np.array([[1.0, 0.0]])
    assert anees(truth, means, 4.0 * np.eye(2)) == pytest.approx(0.125)


def test_anees_affine_invariance():
    rng = np.random.default_rng(31)
    n, m = 4, 6
    truth = rng.standard_normal(n)
    means = truth + rng.standard_normal((m, n))
    covs = np.empty((m, n, n))
    for i in range(m):
        a = rng.standard_normal((n, n))
        covs[i] = a @ a.T + n * np.eye(n)
    base = anees(truth, means, covs)
    t = rng.standard_normal((n, n)) + n * np.eye(n)
    mapped = anees(
        t @ truth,
        means @ t.T,
        np.einsum("ij,mjk,lk->mil", t, covs, t),
    )
    assert mapped == pytest.approx(base, rel=1e-10)


def test_anees_rejects_singular_covariance():
    with pytest.raises(SingularCovariance):
        anees(np.zeros(2), np.ones((1, 2)), np.zeros((1, 2, 2)))


def test_anees_rejects_mismatch():
    with pytest.raises(DimensionMismatch):
        anees(np.zeros(2), np.ones((1, 3)), np.eye(2))


def test_anees_chi_square_interval():
    # Errors drawn from the reported Gaussian: M n ANEES ~ chi2(M n).
    # With M = 200 trials of dimension 4 the central 95% interval of
    # chi2(800)/800 is [0.9044, 1.0995] (approximately 1 +- 1.96
    # sqrt(2/800) = [0.902, 1.098]).
    rng = np.random.default_rng(1234)
    m, n = 200, 4
    truth = np.zeros(n)
    a = rng.standard_normal((n, n))
    cov = a @ a.T + n * np.eye(n)
    root = np.linalg.cholesky(cov)
    means = (root @ rng.standard_normal((n, m))).T
    covs = np.broadcast_to(cov, (m, n, n))
    value = anees(truth, means, covs)
    low, high = (stats.chi2.ppf(q, m * n) / (m * n) for q in (0.025, 0.975))
    assert low == pytest.approx(1.0 - 1.96 * np.sqrt(2.0 / 800.0), abs=3e-3)
    assert high == pytest.approx(1.0 + 1.96 * np.sqrt(2.0 / 800.0), abs=3e-3)
    assert low < value < high


# ------------------------------------------------------------------ series


def test_eval_series_median_and_empty():
    series = EvalSeries((0, 1, 2), np.array([1.0, 5.0, 2.0]), "bb", 3)
    assert series.median == 2.0
    empty = EvalSeries((), np.array([]), "bb", 0, n_skipped=4)
    assert np.isnan(empty.median)


_METRIC_VALUES = st.lists(
    st.floats(min_value=0.0) | st.just(float("nan")), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(_METRIC_VALUES)
@example([1.7e308, 1.7e308])
@example([0.0, float("inf")])
@example([2.0, float("nan"), 1.0])
@example([float("inf"), float("inf"), float("nan")])
def test_eval_series_median_is_numpy_median(values):
    series = EvalSeries(range(len(values)), np.array(values), "bb", 1)
    with np.errstate(over="ignore"):
        expected = np.median(values) if values else np.nan
    assert np.array([series.median]).tobytes() == np.array([expected]).tobytes()


def test_eval_series_median_leaves_numpy_ma_unloaded():
    # np.median's first call imports numpy.ma, which costs every
    # invocation of the command line tens of milliseconds.
    code = (
        "import sys\n"
        "from monotrack.metrics import EvalSeries\n"
        "assert EvalSeries((0, 1), [1.0, 2.0], 'bb', 1).median == 1.5\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_eval_series_validation():
    with pytest.raises(FrameMisalignment):
        EvalSeries((0, 1), np.array([1.0]), "bb", 1)
    with pytest.raises(ValueError):
        EvalSeries((0,), np.array([-1.0]), "bb", 1)


def _stack(means, covs, ends, frames=None):
    """A ``TrialStack`` of (M, K, n) means and (M, K, n, n) covariances,
    at frames 0..K-1 unless ``frames`` are given."""
    frames = list(range(means.shape[1])) if frames is None else frames
    return TrialStack(frames, pack(means, covs), np.asarray(ends))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    lead=st.integers(1, 3),
    data=st.data(),
)
def test_pack_then_unpack_is_the_identity(n, lead, data):
    # Symmetric covariances unpack bit for bit, -0.0 entries included,
    # and a packed row is the mean, then the row-major upper triangle.
    entries = st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0])
    width = n + n * (n + 1) // 2
    values = np.array(data.draw(st.lists(entries, min_size=lead * width, max_size=lead * width)))
    means = values[: lead * n].reshape(lead, n)
    covs = np.empty((lead, n, n))
    upper = values[lead * n :].reshape(lead, -1)
    for i, (a, b) in enumerate(zip(*np.triu_indices(n))):
        covs[:, a, b] = covs[:, b, a] = upper[:, i]
    packed = pack(means, covs)
    assert packed.shape == (lead, width)
    assert packed.tobytes() == np.concatenate([means, upper], axis=1).tobytes()
    back_means, back_covs = unpack(packed)
    assert back_means.tobytes() == means.tobytes()
    assert back_covs.tobytes() == covs.tobytes()


def test_packed_layout_maps_each_entry_to_its_column():
    (i, j), columns = packed_layout(3)
    assert i.tolist() == [0, 0, 0, 1, 1, 2] and j.tolist() == [0, 1, 2, 1, 2, 2]
    assert columns.tolist() == [[3, 4, 5], [4, 6, 7], [5, 7, 8]]
    assert not columns.flags.writeable


def test_evaluate_track_perfect():
    truths = np.arange(12.0).reshape(3, 4)
    means = np.broadcast_to(truths, (5, 3, 4))
    covs = np.broadcast_to(np.eye(4), (5, 3, 4, 4))
    stack = _stack(means, covs, [3] * 5)
    rmse_series, anees_series = evaluate_track(
        truths, [0, 1, 2], stack, (0, 1, 2, 3), "bb"
    )
    assert rmse_series.frames == (0, 1, 2)
    assert np.array_equal(rmse_series.values, [0.0, 0.0, 0.0])
    assert np.array_equal(anees_series.values, [0.0, 0.0, 0.0])
    assert rmse_series.n_trials == 5 and rmse_series.n_skipped == 0
    assert rmse_series.space == anees_series.space == "bb"


def test_evaluate_track_skips_missing_frames():
    # The stack begins at the track's second frame and its one trial
    # stops after that frame's row.
    truths = np.zeros((4, 2))
    means = np.array([[[3.0, 4.0], [-1.0, -1.0], [-1.0, -1.0]]])
    covs = np.broadcast_to(np.eye(2), (1, 3, 2, 2))
    stack = _stack(means, covs, [1], frames=[11, 12, 13])
    rmse_series, anees_series = evaluate_track(
        truths, [10, 11, 12, 13], stack, (0, 1), "3d"
    )
    assert rmse_series.frames == anees_series.frames == (11,)
    assert np.array_equal(rmse_series.values, [5.0])
    assert anees_series.values == pytest.approx([12.5])
    assert rmse_series.n_skipped == 3 and rmse_series.space == "3d"


def test_evaluate_track_rejects_misalignment():
    truths = np.zeros((2, 2))
    stack = _stack(np.zeros((1, 2, 2)), np.broadcast_to(np.eye(2), (1, 2, 2, 2)), [2])
    with pytest.raises(FrameMisalignment, match="2 truth frames but 1 frame labels"):
        evaluate_track(truths, [0], stack, (0, 1), "bb")
    # The stack's frames must be consecutive frames of the track.
    for track_frames in ([0, 2], [5, 6]):
        with pytest.raises(FrameMisalignment, match="estimate frames 0..1 are not"):
            evaluate_track(truths, track_frames, stack, (0, 1), "bb")


def _frame_reference(truth, means, covs):
    """Per-frame RMSE and ANEES as the single-frame formulas reduce them."""
    errors = means - truth
    value_rmse = float(np.sqrt(np.mean(np.sum(errors * errors, axis=1))))
    solved = np.linalg.solve(covs, errors[:, :, None])[:, :, 0]
    value_anees = float(np.sum(errors * solved) / errors.size)
    return value_rmse, value_anees


@pytest.mark.parametrize("m", [1, 3, 40])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_evaluate_track_batched_equals_per_frame_bitwise(m, n):
    # m scored trials over track frames 1..6 of 0..8: the stack begins at
    # frame 1, trial 0 stops after frame 6, and a last trial has no rows.
    rng = np.random.default_rng(100 * m + n)
    k = 9
    truths = rng.standard_normal((k, n)) * 50.0
    a = rng.standard_normal((m + 1, k - 1, n, n))
    means = truths[1:] + rng.standard_normal((m + 1, k - 1, n)) * 3.0
    covs = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(n)
    ends = [6] + [k - 1] * (m - 1) + [0]
    frames = [10 * i for i in range(k)]
    stack = _stack(means, covs, ends, frames[1:])
    means, covs = unpack(stack.values)
    rmse_series, anees_series = evaluate_track(
        truths, frames, stack, tuple(range(n)), "bb"
    )
    scored = range(1, 7)
    assert rmse_series.frames == tuple(frames[i] for i in scored)
    assert rmse_series.n_trials == m and rmse_series.n_skipped == 3
    want = np.array(
        [_frame_reference(truths[i], means[:m, i - 1], covs[:m, i - 1]) for i in scored]
    )
    assert rmse_series.values.tobytes() == want[:, 0].tobytes()
    assert anees_series.values.tobytes() == want[:, 1].tobytes()
    for i, r, v in zip(scored, rmse_series.values, anees_series.values):
        assert r == rmse(truths[i], means[:m, i - 1])
        assert v == anees(truths[i], means[:m, i - 1], covs[:m, i - 1])


def test_evaluate_track_3d_rows_equal_single_frame_calls_bitwise():
    # An (M, K, 8, 8) stack scored on the 3d rows: trial 1 stops after row
    # 5 with garbage rows after its end, and trial 3 has no rows.
    rng = np.random.default_rng(8)
    m, k, rows = 5, 9, (0, 2, 4, 6, 7)
    truths = rng.standard_normal((k, 5)) * 10.0
    a = rng.standard_normal((m, k, 8, 8))
    means = rng.standard_normal((m, k, 8)) * 10.0
    covs = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(8)
    ends = np.array([k, 6, k, 0, k])
    means[1, 6:] = covs[1, 6:] = np.nan
    means[3] = covs[3] = np.nan
    stack = _stack(means, covs, ends)
    means, covs = unpack(stack.values)
    rmse_series, anees_series = evaluate_track(truths, list(range(k)), stack, rows, "3d")
    assert rmse_series.frames == tuple(range(6))
    assert rmse_series.n_trials == 4 and rmse_series.n_skipped == 3
    for frame, r, v in zip(rmse_series.frames, rmse_series.values, anees_series.values):
        picked = [0, 1, 2, 4]
        hand_means = np.array([[means[t, frame, i] for i in rows] for t in picked])
        hand_covs = np.array(
            [[[covs[t, frame, i, j] for j in rows] for i in rows] for t in picked]
        )
        assert r == rmse(truths[frame], hand_means)
        assert v == anees(truths[frame], hand_means, hand_covs)


@pytest.mark.parametrize("block", [1, 3, 8, 13])
def test_evaluate_track_blocks_change_no_value(monkeypatch, block):
    # Four trials over nine frames: trial 1 stops after row 6 and trial 3
    # has no rows.  Scored at most ``block`` (frame, trial) rows at a
    # time (one frame at least), every series is bitwise the one-block
    # result.
    rng = np.random.default_rng(block)
    m, k, rows = 4, 9, (0, 2, 4, 6, 7)
    truths = rng.standard_normal((k, 5)) * 10.0
    a = rng.standard_normal((m, k, 8, 8))
    means = rng.standard_normal((m, k, 8)) * 10.0
    stack = _stack(means, a @ a.swapaxes(-1, -2) + 0.1 * np.eye(8), [k, 6, k, 0])
    whole = evaluate_track(truths, list(range(k)), stack, rows, "3d")
    calls = []
    monkeypatch.setattr(metrics, "_SCORE_BLOCK", block)
    monkeypatch.setattr(metrics, "rmse", lambda *args: calls.append(1) or rmse(*args))
    blocked = evaluate_track(truths, list(range(k)), stack, rows, "3d")
    assert len(calls) == -(-6 // max(1, block // 3))
    for one, ref in zip(blocked, whole):
        assert one.frames == ref.frames == tuple(range(6))
        assert one.values.tobytes() == ref.values.tobytes()
        assert (one.n_trials, one.n_skipped) == (ref.n_trials, ref.n_skipped) == (3, 3)


def test_anees_rejects_a_negative_value():
    # A covariance with a tiny negative eigenvalue passes the estimate
    # check but gives a negative normalized error squared.
    cov = np.diag([4.0, -1e-10])
    with pytest.raises(SingularCovariance, match="not positive definite"):
        anees(np.zeros(2), np.array([[1.0, 1.0]]), cov[None])


def test_anees_rejects_a_negative_trial():
    # Trial 0's NEES is 1/4 - 1e-8/4e-12 = -2499.75, trial 1's 10000: the
    # frame's average is positive (1875.06), yet one trial's covariance
    # is not positive definite.
    covs = np.stack([np.diag([4.0, -4e-12]), np.eye(2)])
    means = np.array([[1.0, 1e-4], [100.0, 0.0]])
    with pytest.raises(SingularCovariance, match="not positive definite"):
        anees(np.zeros(2), means, covs)
    with pytest.raises(SingularCovariance, match="not positive definite"):
        anees(np.zeros((1, 2)), means[None], covs[None])


def test_batched_metrics_reject_mismatch():
    with pytest.raises(DimensionMismatch):
        rmse(np.zeros((3, 2)), np.zeros((2, 1, 2)))
    with pytest.raises(DimensionMismatch):
        anees(np.zeros((3, 2)), np.zeros((3, 1, 2)), np.zeros((3, 2, 2, 2)))


def test_evaluate_track_scores_frames_every_live_trial_covers(monkeypatch):
    # Three trials over track frames 1..3 of 0..3: trial 1 stopped after
    # frame 2 and trial 2 before its first row (its rows are garbage).
    frames = [1, 2, 3]
    means = np.full((3, 3, 2), -1.0)
    covs = np.full((3, 3, 2, 2), -1.0)
    for t in range(2):
        for k, f in enumerate(frames):
            means[t, k] = [f + 0.5 * t, 0.0]
            covs[t, k] = np.eye(2) * (f + 1)
    stack = _stack(means, covs, [3, 2, 0], frames)
    # The stacked arrays reach ``anees`` frame-major and contiguous.
    seen = []
    monkeypatch.setattr(
        metrics, "anees", lambda *args: seen.append(args) or anees(*args)
    )
    truths = np.zeros((4, 2))
    rmse_series, anees_series = evaluate_track(truths, [0, 1, 2, 3], stack, (0, 1), "bb")
    assert rmse_series.frames == anees_series.frames == (1, 2)
    assert rmse_series.n_trials == 2 and rmse_series.n_skipped == 2
    assert rmse_series.values.tolist() == [
        rmse(np.zeros(2), np.array([[1.0, 0.0], [1.5, 0.0]])),
        rmse(np.zeros(2), np.array([[2.0, 0.0], [2.5, 0.0]])),
    ]
    (_, seen_means, seen_covs), = seen
    assert seen_means.shape == (2, 2, 2) and seen_covs.shape == (2, 2, 2, 2)
    assert seen_means.flags.c_contiguous and seen_covs.flags.c_contiguous
    assert np.array_equal(seen_means[1], [[2.0, 0.0], [2.5, 0.0]])
    assert np.array_equal(seen_covs[1], [np.eye(2) * 3, np.eye(2) * 3])
    # With no trial left, no frame is scored, and misaligned frames pass.
    empty = dataclasses.replace(stack, ends=np.array([0, 0, 0]))
    for track_frames in ([0, 1, 2, 3], [5, 6, 7, 8]):
        rmse_series, anees_series = evaluate_track(
            truths, track_frames, empty, (0, 1), "bb"
        )
        assert rmse_series.frames == () and rmse_series.values.shape == (0,)
        assert rmse_series.n_trials == 0 and rmse_series.n_skipped == 4
        assert anees_series.frames == () and math.isnan(anees_series.median)
