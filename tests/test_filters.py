"""Filter-layer tests.

Scalar Kalman steps are checked against hand-evaluated gains, the
unscented transform against its defining identities (affine exactness,
exact sigma reconstruction of the input covariance, the collapsed
quadratic one-dimensional case), and the initializers against frozen
expansions of their covariance patterns.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrack.camera import CameraIntrinsics
from monotrack.exceptions import (
    DecompositionFailure,
    DimensionMismatch,
    FunctionDomainError,
    InvalidEstimate,
    NonPositiveHeight,
    SingularInnovation,
)
from monotrack.filters import (
    GaussianEstimate,
    InitConstants,
    bot_init,
    bot_predict,
    bot_update,
    bb_measurement_fn,
    init_2d,
    init_3d,
    joseph_covariance,
    kf_predict,
    kf_update,
    linear_box_estimate,
    project_estimate,
    sqrt_psd,
    ukf_predict,
    ukf_update,
    unscented_kalman_update,
    unscented_transform,
)
from monotrack.models import (
    bot_measurement_noise,
    bot_process_noise,
    build_model_3d,
    measurement_matrix,
    measurement_noise,
    project_state,
)

CAM = CameraIntrinsics()


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


# ---------------------------------------------------------------- estimates


def test_estimate_coerces_and_validates():
    est = GaussianEstimate([1.0, 2.0], [[1.0, 0.0], [0.0, 2.0]])
    assert est.dim == 2
    assert [f.name for f in dataclasses.fields(est)] == ["mean", "cov"]
    assert isinstance(est.mean, np.ndarray) and est.cov.dtype == float


def test_estimate_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        GaussianEstimate(np.zeros(3), np.eye(2))
    with pytest.raises(DimensionMismatch):
        GaussianEstimate(np.eye(2), np.eye(2))
    with pytest.raises(DimensionMismatch):
        GaussianEstimate(np.float64(1.0), np.eye(1))


def test_estimate_rejects_nonfinite():
    with pytest.raises(ValueError):
        GaussianEstimate(np.array([np.nan]), np.eye(1))
    with pytest.raises(ValueError):
        GaussianEstimate(np.zeros(1), np.array([[np.inf]]))


def test_estimate_rejects_asymmetric():
    with pytest.raises(ValueError):
        GaussianEstimate(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_estimate_rejects_indefinite():
    with pytest.raises(ValueError):
        GaussianEstimate(np.zeros(2), np.diag([1.0, -1.0]))


def _reference_verdict(mean, cov):
    """The estimate checks as first written: element-wise finiteness,
    tolerance symmetry and the eigenvalue bound, always all three."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        return "estimate has non-finite entries"
    scale = np.abs(cov).max()
    if np.abs(cov - cov.T).max() > 1e-9 * max(scale, 1e-300):
        return "covariance is not symmetric"
    if np.linalg.eigvalsh(cov).min() < -1e-9 * max(np.trace(cov), 0.0):
        return "covariance is not positive semidefinite"
    return None


def _verdicts(mean, cov):
    """Rejection message (or None) of GaussianEstimate and the reference."""
    # Sums and traces of entries near the float maximum overflow.
    with np.errstate(over="ignore"):
        try:
            GaussianEstimate(mean, cov)
            verdict = None
        except InvalidEstimate as exc:
            verdict = str(exc)
        return verdict, _reference_verdict(mean, cov)


def _rotated(eigenvalues, seed=0):
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    cov = q @ np.diag(eigenvalues) @ q.T
    return (cov + cov.T) / 2.0


_HUGE = 1.5e308
VALIDATION_CASES = {
    "identity": (np.zeros(3), np.eye(3), True),
    "asymmetric just inside": (
        np.zeros(2), np.array([[1.0, 0.5], [0.5 + 0.99e-9, 1.0]]), True
    ),
    "asymmetric just outside": (
        np.zeros(2), np.array([[1.0, 0.5], [0.5 + 1.01e-9, 1.0]]), False
    ),
    "negative eigenvalue just inside": (
        np.zeros(2), np.diag([1.0, -0.99e-9]), True
    ),
    "negative eigenvalue just outside": (
        np.zeros(2), np.diag([1.0, -1.01e-9]), False
    ),
    "rotated negative eigenvalue just inside": (
        np.zeros(4), _rotated([3.0, 2.0, 1.0, -0.9e-9 * 6.0]), True
    ),
    "rotated negative eigenvalue just outside": (
        np.zeros(4), _rotated([3.0, 2.0, 1.0, -1.1e-9 * 6.0]), False
    ),
    "singular PSD": (np.zeros(2), np.ones((2, 2)), True),
    "rank-deficient 8x8": (np.zeros(8), _rotated([4, 3, 2, 1, 0, 0, 0, 0]), True),
    "zero matrix": (np.zeros(3), np.zeros((3, 3)), True),
    "negative definite": (np.zeros(2), -np.eye(2), False),
    "nan mean": (np.array([np.nan, 0.0]), np.eye(2), False),
    "inf mean": (np.array([0.0, -np.inf]), np.eye(2), False),
    "nan covariance": (np.zeros(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), False),
    "inf covariance": (np.zeros(2), np.diag([np.inf, 1.0]), False),
    "overflowing sum, valid": (
        np.array([_HUGE, _HUGE]), np.diag([_HUGE, _HUGE]), True
    ),
    "overflowing sum, singular PSD": (
        np.zeros(2), np.array([[_HUGE, _HUGE], [_HUGE, _HUGE]]), True
    ),
    "overflowing sum, indefinite": (
        np.zeros(2), np.diag([_HUGE, -_HUGE]), False
    ),
}


@pytest.mark.parametrize(
    "mean,cov,accepted", VALIDATION_CASES.values(), ids=VALIDATION_CASES.keys()
)
def test_estimate_validation_matches_reference(mean, cov, accepted):
    verdict, reference = _verdicts(mean, cov)
    assert verdict == reference
    assert (verdict is None) == accepted


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(-1.0, 1.0) | st.sampled_from([0.0, -1e-9, -2e-9, 1e-9]),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 2e-9),
)
def test_estimate_validation_matches_reference_on_random_spectra(
    eigenvalues, seed, skew
):
    cov = _rotated(np.array(eigenvalues) * 10.0, seed)
    cov[-1, 0] += skew * np.abs(cov).max()
    verdict, reference = _verdicts(np.zeros(len(eigenvalues)), cov)
    assert verdict == reference


def test_invalid_estimate_is_an_estimation_value_error():
    with pytest.raises(InvalidEstimate) as info:
        GaussianEstimate(np.zeros(2), -np.eye(2))
    assert isinstance(info.value, ValueError)


def test_estimate_tolerates_rounding_scale_negatives():
    cov = np.diag([1.0, -1e-12])
    est = GaussianEstimate(np.zeros(2), cov)
    assert est.cov[1, 1] == -1e-12


# ----------------------------------------------------------------- sqrt_psd


def test_sqrt_psd_zero():
    assert not sqrt_psd(np.zeros((3, 3))).any()


def test_sqrt_psd_recovers_spd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cov = random_spd(rng, 5)
        root = sqrt_psd(cov)
        assert np.allclose(root @ root.T, cov, rtol=1e-12, atol=1e-12)
        assert np.allclose(root, np.tril(root))


def test_sqrt_psd_handles_rank_deficiency_with_jitter():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    root = sqrt_psd(cov)
    assert root @ root.T == pytest.approx(cov, abs=1e-5)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(DecompositionFailure):
        sqrt_psd(np.diag([1.0, -1.0]))


# --------------------------------------------------------------- sigma sets


def test_unscented_identity_is_exact():
    rng = np.random.default_rng(21)
    mean = rng.standard_normal(4)
    cov = random_spd(rng, 4)
    sigma = unscented_transform(mean, cov, lambda pts: pts)
    assert sigma.mean_y == pytest.approx(mean, rel=1e-14, abs=1e-14)
    assert sigma.cov_y == pytest.approx(cov, rel=1e-13)
    assert sigma.cross_cov == pytest.approx(cov, rel=1e-13)


def test_unscented_sigma_points_one_dimensional():
    sigma = unscented_transform(np.zeros(1), np.ones((1, 1)), lambda pts: pts**2)
    # Two points at +-sqrt(1)*1; the square maps both to 1.
    assert sorted(sigma.dev_x[0] * math.sqrt(2)) == [-1.0, 1.0]
    assert np.array_equal(sigma.dev_y, [[0.0, 0.0]])
    assert sigma.mean_y == pytest.approx([1.0])
    # The symmetric set collapses the quadratic's spread and correlation.
    assert abs(sigma.cov_y[0, 0]) <= 1e-15
    assert abs(sigma.cross_cov[0, 0]) <= 1e-15


def test_unscented_reconstructs_input_covariance():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = rng.integers(1, 9)
        cov = random_spd(rng, n)
        sigma = unscented_transform(rng.standard_normal(n), cov, lambda pts: pts)
        assert sigma.dev_x @ sigma.dev_x.T == pytest.approx(cov, rel=1e-12)


def test_unscented_affine_exactness():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n, m = rng.integers(1, 7), rng.integers(1, 7)
        mean = rng.standard_normal(n)
        cov = random_spd(rng, n)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        sigma = unscented_transform(mean, cov, lambda pts: a @ pts + b[:, None])
        assert sigma.mean_y == pytest.approx(a @ mean + b, rel=1e-12, abs=1e-12)
        assert sigma.cov_y == pytest.approx(a @ cov @ a.T, rel=1e-11, abs=1e-11)
        assert sigma.cross_cov == pytest.approx(cov @ a.T, rel=1e-11, abs=1e-11)


def test_unscented_propagates_domain_errors():
    def reject(points):
        if np.any(points < 0):
            raise FunctionDomainError("negative input")
        return points

    with pytest.raises(FunctionDomainError):
        unscented_transform(np.zeros(2), np.eye(2), reject)


def test_unscented_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        unscented_transform(np.zeros(2), np.eye(3), lambda pts: pts)
    with pytest.raises(DimensionMismatch):
        unscented_transform(np.zeros(2), np.eye(2), lambda pts: pts[:, :1])


# ------------------------------------------------------------- linear steps


def test_kf_predict_oracle():
    est = GaussianEstimate(np.array([1.0, 2.0]), np.eye(2))
    f = np.array([[1.0, 1.0], [0.0, 1.0]])
    pred = kf_predict(est, f, 0.1 * np.eye(2))
    assert pred.mean == pytest.approx([3.0, 2.0])
    assert pred.cov == pytest.approx(np.array([[2.1, 1.0], [1.0, 1.1]]), rel=1e-15)


def test_kf_predict_offset():
    est = GaussianEstimate(np.zeros(2), np.eye(2))
    pred = kf_predict(est, np.eye(2), np.zeros((2, 2)), offset=np.array([0.5, -0.5]))
    assert pred.mean == pytest.approx([0.5, -0.5])


def test_kf_predict_rejects_mismatch():
    est = GaussianEstimate(np.zeros(2), np.eye(2))
    with pytest.raises(DimensionMismatch):
        kf_predict(est, np.eye(3), np.eye(3))


def test_kf_update_scalar_oracle():
    # P=1, R=1: S=2, K=1/2, posterior mean 1, covariance 1/2.
    pred = GaussianEstimate(np.zeros(1), np.ones((1, 1)))
    post = kf_update(pred, np.array([2.0]), np.ones((1, 1)), np.ones((1, 1)))
    assert post.mean == pytest.approx([1.0], rel=1e-15)
    assert post.cov == pytest.approx(np.array([[0.5]]), rel=1e-15)


def test_kf_update_matches_information_form():
    rng = np.random.default_rng(17)
    h = measurement_matrix()
    for _ in range(20):
        p = random_spd(rng, 8, scale=3.0)
        r = random_spd(rng, 4)
        mean = rng.standard_normal(8)
        z = rng.standard_normal(4)
        post = kf_update(GaussianEstimate(mean, p), z, h, r)
        info = np.linalg.inv(p) + h.T @ np.linalg.inv(r) @ h
        cov_expected = np.linalg.inv(info)
        mean_expected = cov_expected @ (
            np.linalg.solve(p, mean) + h.T @ np.linalg.solve(r, z)
        )
        assert post.cov == pytest.approx(cov_expected, rel=1e-9, abs=1e-9)
        assert post.mean == pytest.approx(mean_expected, rel=1e-9, abs=1e-9)


def test_kf_update_never_inflates_covariance():
    rng = np.random.default_rng(29)
    h = measurement_matrix()
    for _ in range(20):
        p = random_spd(rng, 8)
        post = kf_update(
            GaussianEstimate(rng.standard_normal(8), p),
            rng.standard_normal(4),
            h,
            random_spd(rng, 4),
        )
        assert np.trace(post.cov) <= np.trace(p) + 1e-12
        assert np.linalg.eigvalsh(post.cov).min() >= -1e-12 * np.trace(post.cov)


def test_joseph_form_tolerates_suboptimal_gain():
    # The Joseph expression stays positive semidefinite for any gain.
    rng = np.random.default_rng(41)
    h = measurement_matrix()
    p = random_spd(rng, 8)
    r = random_spd(rng, 4)
    s = h @ p @ h.T + r
    k = np.linalg.solve(s, h @ p).T + 1e-6 * rng.standard_normal((8, 4))
    cov = joseph_covariance(p, k, h, r)
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.trace(cov)


def test_kf_update_rejects_singular_innovation():
    pred = GaussianEstimate(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(SingularInnovation):
        kf_update(pred, np.zeros(1), np.array([[1.0, 0.0]]), np.zeros((1, 1)))


def test_kf_update_rejects_mismatch():
    pred = GaussianEstimate(np.zeros(2), np.eye(2))
    with pytest.raises(DimensionMismatch):
        kf_update(pred, np.zeros(1), np.eye(2), np.eye(2))


# ----------------------------------------------------------- initialization


def test_init_2d_oracle():
    r = measurement_noise(1080.0)
    z0 = np.array([960.0, 540.0, 82.5, 165.0])
    est = init_2d(z0, r)
    assert est.mean == pytest.approx([960, 0, 540, 0, 82.5, 0, 165, 0])
    # Box height is 10% of the nominal body height's 1650 px at 1 m ...
    # here 165 px / 1.65 m puts the apparent scale at 100 px/m, so the
    # 3 m/s cap becomes a 100 px/s sigma and the 0.3 m/s cap 10 px/s.
    expected_diag = [r[0, 0], 1.0e4, r[1, 1], 1.0e4, r[2, 2], 100.0, r[3, 3], 100.0]
    assert np.diag(est.cov) == pytest.approx(expected_diag, rel=1e-12)
    assert est.cov[0, 0] == pytest.approx(26.034048, rel=1e-12)
    # Measured-row correlations come straight from the detector noise.
    assert est.cov[0, 2] == r[0, 1]
    assert est.cov[0, 1] == 0.0


def test_init_2d_scales_with_box_height():
    r = measurement_noise(1080.0)
    est = init_2d(np.array([960.0, 540.0, 41.25, 82.5]), r)
    assert est.cov[1, 1] == pytest.approx(2500.0, rel=1e-12)
    assert est.cov[5, 5] == pytest.approx(25.0, rel=1e-12)


def test_init_2d_custom_constants():
    r = measurement_noise(1080.0)
    consts = InitConstants(mean_height_m=1.8, max_speed_mps=6.0)
    est = init_2d(np.array([0.0, 0.0, 50.0, 180.0]), r, consts)
    assert est.cov[1, 1] == pytest.approx((100.0 * 2.0) ** 2, rel=1e-12)


def test_init_2d_rejects_flat_box():
    with pytest.raises(NonPositiveHeight):
        init_2d(np.array([0.0, 0.0, 10.0, 0.0]), measurement_noise(1080.0))


def test_bot_init_oracle():
    est = bot_init(np.array([960.0, 540.0, 100.0, 200.0]))
    assert est.mean == pytest.approx([960, 0, 540, 0, 100, 0, 200, 0])
    expected = [100.0, 39.0625, 400.0, 156.25, 100.0, 39.0625, 400.0, 156.25]
    assert np.diag(est.cov) == pytest.approx(expected, rel=1e-15)
    assert np.count_nonzero(est.cov - np.diag(np.diag(est.cov))) == 0


def test_bot_init_rejects_nonpositive_height():
    for height in (0.0, -5.0):
        with pytest.raises(NonPositiveHeight):
            bot_init(np.array([960.0, 540.0, 100.0, height]))
    with pytest.raises(NonPositiveHeight):
        bot_init(np.zeros(4))


def test_bot_predict_sources_noise_from_filtered_extents():
    est = GaussianEstimate(
        np.array([10.0, 1.0, 20.0, 2.0, 100.0, 0.0, 200.0, 0.0]),
        np.zeros((8, 8)),
    )
    pred = bot_predict(est)
    assert pred.mean == pytest.approx([11, 1, 22, 2, 100, 0, 200, 0])
    assert pred.cov == pytest.approx(bot_process_noise(100.0, 200.0), rel=1e-15)


def test_bot_update_matches_manual_algebra():
    rng = np.random.default_rng(61)
    mean = np.array([400.0, 2.0, 300.0, -1.0, 80.0, 0.5, 160.0, 0.2])
    cov = random_spd(rng, 8, scale=4.0)
    pred = GaussianEstimate(mean, cov)
    z = np.array([404.0, 297.0, 83.0, 158.0])
    post = bot_update(pred, z)

    h = measurement_matrix()
    r = bot_measurement_noise(mean[4], mean[6])  # predicted extents set R
    s = h @ cov @ h.T + r
    k = cov @ h.T @ np.linalg.inv(s)
    assert post.mean == pytest.approx(mean + k @ (z - h @ mean), rel=1e-12)
    assert post.cov == pytest.approx(cov - k @ s @ k.T, rel=1e-9, abs=1e-9)


def test_bot_cycle_stays_positive_semidefinite():
    est = bot_init(np.array([500.0, 400.0, 90.0, 180.0]))
    rng = np.random.default_rng(71)
    for _ in range(50):
        est = bot_predict(est)
        z = est.mean[[0, 2, 4, 6]] + rng.normal(0, 2.0, 4)
        est = bot_update(est, z)
        assert np.linalg.eigvalsh(est.cov).min() >= -1e-9 * np.trace(est.cov)


# ------------------------------------------------------------ 3D estimation


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_unscented_update_matches_linear_update(n, seed, data):
    # On an affine measurement z = Hx + c the unscented update is exact:
    # it equals the linear update of z - c, for every state dimension n,
    # measurement dimension m <= n, and SPD prior and noise.
    m = data.draw(st.integers(1, n), label="m")
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m, n))
    c = rng.standard_normal(m)
    pred = GaussianEstimate(rng.standard_normal(n), random_spd(rng, n))
    r = random_spd(rng, m)
    z = rng.standard_normal(m)
    linear = kf_update(pred, z - c, h, r)
    nonlin = unscented_kalman_update(pred, z, lambda pts: h @ pts + c[:, None], r)
    np.testing.assert_allclose(nonlin.mean, linear.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(nonlin.cov, linear.cov, rtol=1e-9, atol=1e-9)


def test_unscented_update_rejects_mismatch():
    pred = GaussianEstimate(np.zeros(2), np.eye(2))
    with pytest.raises(DimensionMismatch):
        unscented_kalman_update(pred, np.zeros(3), lambda pts: pts, np.eye(2))


def test_ukf_predict_is_linear_model_step():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    est = GaussianEstimate(
        np.array([0.0, 1.0, 0.0, 0.0, 10.0, -0.5, 0.85, 1.65]),
        np.eye(8) * 0.01,
    )
    pred = ukf_predict(est, model)
    direct = kf_predict(est, model.F, model.Q, model.m)
    assert pred.mean == pytest.approx(direct.mean, rel=1e-15)
    assert pred.cov == pytest.approx(direct.cov, rel=1e-15)


def test_init_3d_structure():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    z0 = np.array([960.0, 540.0, 85.0, 165.0])
    est = init_3d(z0, model)
    # Extents start at the stationary means with the stationary spreads.
    assert est.mean[6] == 0.85 and est.mean[7] == 1.65
    assert est.cov[6, 6] == pytest.approx(0.15**2, rel=1e-12)
    assert est.cov[7, 7] == pytest.approx(0.1**2, rel=1e-12)
    # Velocities start at rest with the (3 m/s / 3)^2 prior.
    assert not est.mean[[1, 3, 5]].any()
    assert np.diag(est.cov)[[1, 3, 5]] == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)
    # A centered box of a 1.65 m prior at 165 px sits near 10 m depth;
    # correlated detector noise leaves a sub-millimeter unscented-mean
    # shift in x.
    assert est.mean[0] == pytest.approx(0.0, abs=1e-3)
    assert est.mean[1] == 0.0
    assert est.mean[4] == pytest.approx(10.0, abs=0.1)
    assert np.linalg.eigvalsh(est.cov).min() >= 0


def test_init_3d_noise_free_oracle():
    # With the detector noise zeroed the backprojection is affine in the
    # one remaining input (the body-height prior), so the unscented pass
    # is exact: depth 10 m with variance (1000 * 0.1 / 165)^2.
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    model = dataclasses.replace(model, R=np.zeros((4, 4)))
    est = init_3d(np.array([960.0, 540.0, 85.0, 165.0]), model)
    assert est.mean[[0, 2]] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert est.mean[4] == pytest.approx(10.0, rel=1e-14)
    assert est.cov[4, 4] == pytest.approx((1000.0 * 0.1 / 165.0) ** 2, rel=1e-12)
    assert est.cov[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_init_3d_rejects_degenerate_boxes():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    with pytest.raises(NonPositiveHeight):
        init_3d(np.array([960.0, 540.0, 85.0, -1.0]), model)
    # A box shorter than the detector-noise spread puts a sigma point at
    # a non-positive denoised height.
    with pytest.raises(NonPositiveHeight):
        init_3d(np.array([960.0, 540.0, 5.0, 10.0]), model)


def test_project_estimate_zero_covariance_is_projection():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    state = np.array([0.5, 0.0, 0.9, 0.0, 8.0, 0.0, 0.85, 1.65])
    est = GaussianEstimate(state, np.zeros((8, 8)))
    box = project_estimate(est, model)
    assert box.mean == pytest.approx(project_state(model, state)[[0, 2, 4, 6]],
                                     rel=1e-14)
    assert box.cov == pytest.approx(np.zeros((4, 4)), abs=1e-18)


def test_project_estimate_spread_has_no_detector_noise():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    state = np.array([0.0, 0.0, 0.9, 0.0, 12.0, 0.0, 0.85, 1.65])
    est = GaussianEstimate(state, 0.01 * np.eye(8))
    box = project_estimate(est, model)
    sigma = unscented_transform(est.mean, est.cov, bb_measurement_fn(model))
    assert box.cov == pytest.approx(sigma.cov_y, rel=1e-12)
    assert np.linalg.eigvalsh(box.cov).min() >= -1e-12 * np.trace(box.cov)


def test_ukf_update_pulls_mean_toward_measurement():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    state = np.array([0.0, 0.0, 0.9, 0.0, 10.0, 0.0, 0.85, 1.65])
    pred = GaussianEstimate(state, 0.05 * np.eye(8))
    z = project_state(model, state)[[0, 2, 4, 6]] + np.array([8.0, -6.0, 2.0, 4.0])
    post = ukf_update(pred, z, model)
    before = project_state(model, state)[[0, 2, 4, 6]]
    after = project_state(model, post.mean)[[0, 2, 4, 6]]
    assert np.linalg.norm(z - after) < np.linalg.norm(z - before)
    assert np.trace(post.cov) < np.trace(pred.cov)


def test_linear_box_estimate_selects_measured_rows():
    cov = np.arange(64.0).reshape(8, 8)
    cov = (cov + cov.T) / 2 + 64 * np.eye(8)
    est = GaussianEstimate(np.arange(8.0), cov)
    box = linear_box_estimate(est)
    h = measurement_matrix()
    assert np.array_equal(box.mean, [0.0, 2.0, 4.0, 6.0])
    assert np.array_equal(box.cov, h @ cov @ h.T)


def test_init_constants_validation():
    with pytest.raises(ValueError):
        InitConstants(mean_height_m=0.0)
    with pytest.raises(ValueError):
        InitConstants(max_speed_mps=-1.0)
    assert InitConstants().v_rdot == 1.0
