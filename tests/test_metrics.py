"""Metric tests: hand values for RMSE and ANEES, invariances, the
chi-square sampling law of ANEES under a correctly reported Gaussian,
and the per-track evaluation series.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

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
    rmse,
    stack_trials,
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


def test_evaluate_track_perfect():
    truths = np.arange(12.0).reshape(3, 4)
    means = np.stack([np.broadcast_to(t, (5, 4)) for t in truths])
    covs = np.broadcast_to(np.eye(4), (3, 5, 4, 4))
    rmse_series, anees_series = evaluate_track(truths, [0, 1, 2], means, covs)
    assert rmse_series.frames == (0, 1, 2)
    assert np.array_equal(rmse_series.values, [0.0, 0.0, 0.0])
    assert np.array_equal(anees_series.values, [0.0, 0.0, 0.0])
    assert rmse_series.n_trials == 5 and rmse_series.n_skipped == 0


def test_evaluate_track_skips_missing_frames():
    truths = np.zeros((3, 2))
    mean = np.array([[3.0, 4.0]])
    cov = np.eye(2)[None]
    rmse_series, anees_series = evaluate_track(
        truths,
        [0, 2],
        np.stack([mean, mean]),
        np.stack([cov, cov]),
        frames=[10, 11, 12],
    )
    assert rmse_series.frames == (10, 12)
    assert np.array_equal(rmse_series.values, [5.0, 5.0])
    assert anees_series.values == pytest.approx([12.5, 12.5])
    assert rmse_series.n_skipped == 1


def test_evaluate_track_rejects_misalignment():
    truths = np.zeros((2, 2))
    with pytest.raises(FrameMisalignment):
        evaluate_track(truths, [0], np.empty(0), np.empty(0))
    with pytest.raises(FrameMisalignment):
        evaluate_track(truths, [], np.empty(0), np.empty(0), frames=[0])


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
    rng = np.random.default_rng(100 * m + n)
    k = 9
    truths = rng.standard_normal((k, n)) * 50.0
    means: list = []
    covs: list = []
    for truth in truths:
        a = rng.standard_normal((m, n, n))
        means.append(truth + rng.standard_normal((m, n)) * 3.0)
        covs.append(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n))
    kept = [i for i in range(k) if i not in (0, 4, 5)]
    frames = [10 * i for i in range(k)]
    rmse_series, anees_series = evaluate_track(
        truths,
        kept,
        np.stack([means[i] for i in kept]),
        np.stack([covs[i] for i in kept]),
        frames,
    )
    assert rmse_series.frames == tuple(frames[i] for i in kept)
    assert rmse_series.n_trials == m and rmse_series.n_skipped == 3
    want = np.array([_frame_reference(truths[i], means[i], covs[i]) for i in kept])
    assert rmse_series.values.tobytes() == want[:, 0].tobytes()
    assert anees_series.values.tobytes() == want[:, 1].tobytes()
    for i, r, a in zip(kept, rmse_series.values, anees_series.values):
        assert r == rmse(truths[i], means[i])
        assert a == anees(truths[i], means[i], covs[i])


def test_batched_metrics_reject_mismatch():
    with pytest.raises(DimensionMismatch):
        rmse(np.zeros((3, 2)), np.zeros((2, 1, 2)))
    with pytest.raises(DimensionMismatch):
        anees(np.zeros((3, 2)), np.zeros((3, 1, 2)), np.zeros((3, 2, 2, 2)))


def test_stack_trials_keeps_frames_every_trial_covers():
    # Three trials over track frames 1..3 of 0..3: trial 1 stopped after
    # frame 2 and trial 2 before its first row (its rows are garbage).
    frames = [1, 2, 3]
    means = np.full((3, 3, 2), -1.0)
    covs = np.full((3, 3, 2, 2), -1.0)
    for t in range(2):
        for k, f in enumerate(frames):
            means[t, k] = [f + 0.5 * t, 0.0]
            covs[t, k] = np.eye(2) * (f + 1)
    stack = TrialStack(frames, means, covs, np.array([3, 2, 0]))
    kept, means, covs = stack_trials([0, 1, 2, 3], stack)
    assert kept == [1, 2]
    assert means.shape == (2, 2, 2) and covs.shape == (2, 2, 2, 2)
    assert means.flags.c_contiguous and covs.flags.c_contiguous
    assert np.array_equal(means[0], [[1.0, 0.0], [1.5, 0.0]])
    assert np.array_equal(means[1], [[2.0, 0.0], [2.5, 0.0]])
    assert np.array_equal(covs[1], [np.eye(2) * 3, np.eye(2) * 3])
    empty = dataclasses.replace(stack, ends=np.array([0, 0, 0]))
    assert stack_trials([0, 1, 2, 3], empty)[0] == []
    # The stack's frames must be consecutive frames of the track.
    for track_frames in ([0, 1, 3], [5, 6]):
        with pytest.raises(FrameMisalignment):
            stack_trials(track_frames, stack)
