"""State estimators: a linear Kalman filter, a heuristic image-plane
baseline, and an unscented filter with an outer-product covariance
update for the 3D model.

All three share the Gaussian recursion

    predict:  x' = F x + m,          P' = F P F^T + Q
    update:   x <- x + K (z - z_hat), with gain K from the innovation
              covariance S = cov(z_hat) + R

and differ in how the measurement prediction z_hat and the covariance
update are formed:

* The 2D filter measures linearly (z_hat = H x) and uses the Joseph form
  (I - KH) P (I - KH)^T + K R K^T, which stays symmetric positive
  semidefinite under rounding.
* The heuristic baseline rescales its process and measurement noise from
  the current box extents each step and applies the plain covariance
  update P - K S K^T, reproduced here exactly as published.
* The 3D filter propagates sigma points through the pinhole projection.
  The unscented transform keeps scaled deviation matrices M_x and M_y
  whose products form every covariance it needs, so the update
  (M_x - K M_y)(M_x - K M_y)^T + K R K^T is a sum of outer products and
  cannot lose definiteness.

The sigma set is the plain symmetric one: 2n points at mean +- sqrt(n)
times the Cholesky columns of the covariance, each weighted 1/(2n).

Every step takes one estimate ((n,) mean, (n, n) covariance) or a stack
of M trials' estimates ((M, n) and (M, n, n)), with detections shaped to
match, and gives each stacked trial bit for bit the result it would get
alone.  So the forms below are chosen for that: matrix-vector products
as ``(A @ x[..., None])[..., 0]``, transposes as ``swapaxes(-1, -2)``
and squares of data as ``np.float_power(x, 2)``.  An error raised for a
stack does not say which trial caused it; the caller re-runs the step
per trial to find out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .camera import backproject
from .exceptions import (
    DecompositionFailure,
    DimensionMismatch,
    InvalidEstimate,
    NonPositiveHeight,
    SingularInnovation,
)
from .models import (
    MEASURED_ROWS,
    BoTParams,
    ModelSet3D,
    bot_measurement_noise,
    bot_process_noise,
    bot_transition_matrix,
    measurement_matrix,
    project_state,
    symmetrize,
)

# Tolerances of the estimate validity checks, relative to matrix scale.
_SYM_RTOL = 1e-9
_EIG_RTOL = 1e-9


def _t(mat: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix of a stack."""
    return mat.swapaxes(-1, -2)


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``mat @ vec`` for a vector or a stack of them, rounded for each one
    as ``mat @ vec`` rounds it alone (``vec @ mat.T`` is not)."""
    if vec.ndim == 1:
        return mat @ vec
    return (mat @ vec[..., None])[..., 0]


def _check_estimate(mean: np.ndarray, cov: np.ndarray) -> None:
    """Validate one estimate; see ``GaussianEstimate``."""
    # Each check tries an exact sufficient condition first and runs the
    # full test only when that fails: a finite sum has finite terms, an
    # exactly symmetric matrix passes the tolerance, and a matrix that
    # Cholesky factorizes has no eigenvalue below the bound (both read
    # the same lower triangle).
    if not math.isfinite(mean.sum() + cov.sum()):
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidEstimate("estimate has non-finite entries")
    if not (cov == cov.T).all():
        scale = np.abs(cov).max()
        if np.abs(cov - cov.T).max() > _SYM_RTOL * max(scale, 1e-300):
            raise InvalidEstimate("covariance is not symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        trace = np.trace(cov)
        if np.linalg.eigvalsh(cov).min() < -_EIG_RTOL * max(trace, 0.0):
            raise InvalidEstimate(
                "covariance is not positive semidefinite"
            ) from None


@dataclass(frozen=True)
class GaussianEstimate:
    """A Gaussian state belief at one frame, or a stack of M trials' beliefs.

    ``mean`` is (n,) with an (n, n) ``cov``, or (M, n) with (M, n, n).
    Construction validates that the entries are finite and that each
    covariance is square, symmetric to 1e-9 relative and has no
    eigenvalue below -1e-9 times its trace, so anything a filter emits is
    safe to factorize or serialize.  A stack takes the exact sufficient
    conditions (finite sum, exact symmetry, Cholesky) in one call and is
    checked trial by trial only if one fails.  A failed check raises
    ``InvalidEstimate`` (a ``ValueError``) for the first invalid trial,
    or ``DimensionMismatch`` for a shape error.

    ``put`` writes a stack into rows of slot arrays (an (L, n) mean and
    an (L, n, n) covariance) and ``take`` stacks rows of them again
    without validating: every row was validated when the estimate ``put``
    wrote was built.
    """

    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def take(
        cls, mean: np.ndarray, cov: np.ndarray, rows: slice | np.ndarray
    ) -> GaussianEstimate:
        """The stack of rows ``rows`` of slot arrays that only ``put``
        wrote."""
        est = object.__new__(cls)
        object.__setattr__(est, "mean", mean[rows])
        object.__setattr__(est, "cov", cov[rows])
        return est

    def put(self, mean: np.ndarray, cov: np.ndarray, rows: slice | np.ndarray) -> None:
        """Write this stack into rows ``rows`` of slot arrays."""
        mean[rows], cov[rows] = self.mean, self.cov

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.ndim not in (1, 2) or cov.shape != mean.shape + mean.shape[-1:]:
            raise DimensionMismatch(
                f"mean {mean.shape} does not match covariance {cov.shape}"
            )
        if mean.ndim == 1:
            _check_estimate(mean, cov)
            return
        if math.isfinite(mean.sum() + cov.sum()) and (cov == _t(cov)).all():
            try:
                np.linalg.cholesky(cov)
                return
            except np.linalg.LinAlgError:
                pass
        for one_mean, one_cov in zip(mean, cov):
            _check_estimate(one_mean, one_cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _sqrt_one(cov: np.ndarray) -> np.ndarray:
    """``sqrt_psd`` of one matrix."""
    if not cov.any():
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    n = cov.shape[0]
    jitter = 1e-12 * np.trace(cov) / n
    try:
        return np.linalg.cholesky(cov + jitter * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(
            "covariance is not positive semidefinite within jitter"
        ) from exc


def sqrt_psd(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L L^T = cov, of one matrix or of
    each matrix of a stack.

    The zero matrix factors to zero.  A factorization failure gets one
    retry with diagonal jitter 1e-12 trace/n; a second failure raises
    ``DecompositionFailure``.  A stack is factorized in one call, and
    matrix by matrix only if that fails.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 2:
        return _sqrt_one(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return np.stack([_sqrt_one(one) for one in cov])


@dataclass(frozen=True)
class SigmaSet:
    """The mean of the sigma points' images and the scaled deviations.

    The columns of ``dev_x`` and ``dev_y`` are the 2n sigma points'
    deviations from the input mean and their images' deviations from
    ``mean_y``, scaled by 1/sqrt(2n), so that dev dev^T recovers each
    covariance directly.  For a stacked input every field has the stack
    axis first.
    """

    mean_y: np.ndarray
    dev_x: np.ndarray
    dev_y: np.ndarray

    @property
    def cov_y(self) -> np.ndarray:
        return self.dev_y @ _t(self.dev_y)

    @property
    def cross_cov(self) -> np.ndarray:
        return self.dev_x @ _t(self.dev_y)


def unscented_transform(
    mean: np.ndarray,
    cov: np.ndarray,
    transform: Callable[[np.ndarray], np.ndarray],
) -> SigmaSet:
    """Propagate a Gaussian, or a stack of them, through a function with
    the symmetric sigma set.

    ``transform`` receives the whole (n, 2n) matrix of column points, or
    the (M, n, 2n) stack of them, and must return the (m, 2n) matrix (or
    the (M, m, 2n) stack) of column images; it may raise
    ``FunctionDomainError`` (or a subclass) to reject a point outside its
    domain.  An affine transform is reproduced exactly up to rounding.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[-1]
    if cov.shape != mean.shape + (n,):
        raise DimensionMismatch(
            f"covariance {cov.shape} does not match mean {mean.shape}"
        )
    spread = math.sqrt(n) * sqrt_psd(cov)
    points = np.empty(mean.shape + (2 * n,))
    points[..., :n] = mean[..., None] + spread
    points[..., n:] = mean[..., None] - spread
    transformed = np.asarray(transform(points), dtype=float)
    if transformed.ndim == points.ndim - 1:
        transformed = transformed[..., None, :]
    if transformed.shape[:-2] != mean.shape[:-1] or transformed.shape[-1] != 2 * n:
        raise DimensionMismatch(
            f"transform returned {transformed.shape}, expected (m, {2 * n})"
        )
    mean_y = transformed.mean(axis=-1)
    root = math.sqrt(2 * n)
    return SigmaSet(
        mean_y=mean_y,
        dev_x=(points - mean[..., None]) / root,
        dev_y=(transformed - mean_y[..., None]) / root,
    )


def _check_linear_dims(
    est: GaussianEstimate, F: np.ndarray, Q: np.ndarray
) -> None:
    n = est.dim
    if F.shape != (n, n) or Q.shape not in ((n, n), est.cov.shape):
        raise DimensionMismatch(
            f"transition {F.shape} / noise {Q.shape} do not match state ({n},)"
        )


def kf_predict(
    est: GaussianEstimate,
    F: np.ndarray,
    Q: np.ndarray,
    offset: np.ndarray | None = None,
) -> GaussianEstimate:
    """One linear prediction step; ``Q`` may hold one noise per trial."""
    F = np.asarray(F, dtype=float)
    Q = np.asarray(Q, dtype=float)
    _check_linear_dims(est, F, Q)
    mean = _matvec(F, est.mean)
    if offset is not None:
        mean = mean + np.asarray(offset, dtype=float)
    cov = symmetrize(F @ est.cov @ F.T + Q)
    return GaussianEstimate(mean, cov)


def _innovation_solve(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve S X = rhs for symmetric S (or each of a stack), rejecting
    singular innovations."""
    try:
        np.linalg.cholesky(S)
        return np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is singular") from exc


def joseph_covariance(
    P: np.ndarray, K: np.ndarray, H: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """Joseph-form posterior covariance for an arbitrary gain."""
    a = np.eye(P.shape[-1]) - K @ H
    return symmetrize(a @ P @ _t(a) + K @ R @ _t(K))


def kf_update(
    pred: GaussianEstimate, z: np.ndarray, H: np.ndarray, R: np.ndarray
) -> GaussianEstimate:
    """Linear measurement update in Joseph form."""
    z = np.asarray(z, dtype=float)
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    n = pred.dim
    m = z.shape[-1]
    if H.shape != (m, n) or R.shape != (m, m) or z.shape[:-1] != pred.mean.shape[:-1]:
        raise DimensionMismatch(
            f"measurement {z.shape} / matrix {H.shape} / noise {R.shape} disagree"
        )
    S = symmetrize(H @ pred.cov @ H.T + R)
    # K = P H^T S^{-1}; solve on the transposed system keeps S factorized once.
    K = _t(_innovation_solve(S, H @ pred.cov))
    mean = pred.mean + _matvec(K, z - _matvec(H, pred.mean))
    cov = joseph_covariance(pred.cov, K, H, R)
    return GaussianEstimate(mean, cov)


@dataclass(frozen=True)
class InitConstants:
    """Speed caps turning a first box into velocity-spread priors."""

    mean_height_m: float = 1.65
    max_speed_mps: float = 3.0
    max_extent_rate_mps: float = 0.3

    def __post_init__(self) -> None:
        if not (
            self.mean_height_m > 0
            and self.max_speed_mps > 0
            and self.max_extent_rate_mps > 0
        ):
            raise ValueError("initialization constants must be positive")

    @property
    def v_rdot(self) -> float:
        """Per-axis 3D velocity variance: a third of the speed cap, squared."""
        return (self.max_speed_mps / 3.0) ** 2


def _box_heights(z0: np.ndarray) -> np.ndarray:
    """Heights of a first box or a stack of them, all of which must be
    positive."""
    heights = z0[..., 3]
    bad = heights[~(heights > 0)]
    if bad.size:
        raise NonPositiveHeight(f"box height must be positive, got {bad[0]}")
    return heights


def _add_diagonal(cov: np.ndarray, diag: np.ndarray) -> None:
    """Add ``diag`` to the diagonal of a matrix or of each of a stack."""
    rows = np.arange(cov.shape[-1])
    cov[..., rows, rows] += diag


def init_2d(
    z0: np.ndarray,
    R: np.ndarray,
    consts: InitConstants | None = None,
) -> GaussianEstimate:
    """First estimate of the 2D filter from one bounding box (or a stack).

    The box fixes the measured components with the detector noise; the
    unmeasured rates get zero mean and a variance sized so three sigma
    covers the speed cap scaled to the box's apparent size.
    """
    consts = consts or InitConstants()
    z0 = np.asarray(z0, dtype=float)
    scale = _box_heights(z0) / consts.mean_height_m
    # H^T zero-pads the box into the state; rate slots carry 1/s units.
    h = measurement_matrix()
    mean = _matvec(h.T, z0)
    rate_var = np.zeros(z0.shape[:-1] + (8,))
    rate_var[..., 1] = rate_var[..., 3] = np.float_power(
        scale * consts.max_speed_mps / 3.0, 2
    )
    rate_var[..., 5] = rate_var[..., 7] = np.float_power(
        scale * consts.max_extent_rate_mps / 3.0, 2
    )
    cov = h.T @ np.asarray(R, dtype=float) @ h
    cov = np.broadcast_to(cov, rate_var.shape + (8,)).copy()
    _add_diagonal(cov, rate_var)
    return GaussianEstimate(mean, symmetrize(cov))


def bot_init(z0: np.ndarray, params: BoTParams | None = None) -> GaussianEstimate:
    """First estimate of the heuristic baseline from one bounding box (or
    a stack)."""
    params = params or BoTParams()
    z0 = np.asarray(z0, dtype=float)
    heights = _box_heights(z0)
    mean = _matvec(measurement_matrix().T, z0)
    # Same extent-proportional pattern as the running noise, widened by
    # 2 on positions and 10 on rates.
    wide = BoTParams(2.0 * params.zeta_r, 10.0 * params.zeta_rdot)
    cov = bot_process_noise(z0[..., 2], heights, wide)
    return GaussianEstimate(mean, cov)


def bot_predict(
    est: GaussianEstimate, params: BoTParams | None = None
) -> GaussianEstimate:
    """Baseline prediction; process noise from the filtered extents of k-1."""
    params = params or BoTParams()
    Q = bot_process_noise(est.mean[..., 4], est.mean[..., 6], params)
    return kf_predict(est, bot_transition_matrix(), Q)


def bot_update(
    pred: GaussianEstimate, z: np.ndarray, params: BoTParams | None = None
) -> GaussianEstimate:
    """Baseline update; measurement noise from the predicted extents.

    The covariance update is the plain P - K S K^T of the published
    filter, kept verbatim instead of the Joseph form.
    """
    params = params or BoTParams()
    z = np.asarray(z, dtype=float)
    H = measurement_matrix()
    R = bot_measurement_noise(pred.mean[..., 4], pred.mean[..., 6], params)
    S = symmetrize(H @ pred.cov @ H.T + R)
    K = _t(_innovation_solve(S, H @ pred.cov))
    mean = pred.mean + _matvec(K, z - _matvec(H, pred.mean))
    cov = symmetrize(pred.cov - K @ S @ _t(K))
    return GaussianEstimate(mean, cov)


def bb_measurement_fn(model: ModelSet3D) -> Callable[[np.ndarray], np.ndarray]:
    """Composite measurement map: project to image space, keep the box.

    Every column of a stack of point matrices goes through one
    ``project_state`` call.
    """
    rows = list(MEASURED_ROWS)

    def transform(points: np.ndarray) -> np.ndarray:
        # (M, n, 2n) -> (n, M, 2n) and back; a no-op for one matrix.
        images = project_state(model, points.swapaxes(0, -2))[rows]
        # Contiguous, so that each trial's mean over its sigma images
        # sums in the same order as it would alone.
        return np.ascontiguousarray(images.swapaxes(0, -2))

    return transform


def unscented_kalman_update(
    pred: GaussianEstimate,
    z: np.ndarray,
    transform: Callable[[np.ndarray], np.ndarray],
    R: np.ndarray,
) -> GaussianEstimate:
    """Unscented update with measurement function g and an outer-product
    covariance update.

    The posterior covariance (M_x - K M_y)(M_x - K M_y)^T + K R K^T is
    algebraically the standard one but assembled from outer products; the
    factor of the covariance is not carried between steps.
    Raises ``FunctionDomainError`` if g rejects a sigma point and
    ``SingularInnovation`` if M_y M_y^T + R cannot be factorized.
    """
    z = np.asarray(z, dtype=float)
    R = np.asarray(R, dtype=float)
    sigma = unscented_transform(pred.mean, pred.cov, transform)
    m = sigma.mean_y.shape[-1]
    if z.shape != sigma.mean_y.shape or R.shape != (m, m):
        raise DimensionMismatch(
            f"measurement {z.shape} / noise {R.shape} do not match transform ({m},)"
        )
    S = symmetrize(sigma.cov_y + R)
    K = _t(_innovation_solve(S, _t(sigma.cross_cov)))
    mean = pred.mean + _matvec(K, z - sigma.mean_y)
    residual_dev = sigma.dev_x - K @ sigma.dev_y
    cov = symmetrize(residual_dev @ _t(residual_dev) + K @ R @ _t(K))
    return GaussianEstimate(mean, cov)


def ukf_predict(est: GaussianEstimate, model: ModelSet3D) -> GaussianEstimate:
    """3D prediction: linear in the state, so a plain Kalman step."""
    return kf_predict(est, model.F, model.Q, model.m)


def ukf_update(
    pred: GaussianEstimate, z: np.ndarray, model: ModelSet3D
) -> GaussianEstimate:
    """3D measurement update through the pinhole projection."""
    return unscented_kalman_update(pred, z, bb_measurement_fn(model), model.R)


# Detector-noise rows entering the position fix: x, y and height.  The
# width noise does not constrain the position, so its row is omitted.
INIT_NOISE_SELECTOR = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

# Lift of a 3D position into the 8-dimensional state (rate and extent
# slots zero).
POSITION_LIFT = np.zeros((8, 3))
POSITION_LIFT[0, 0] = POSITION_LIFT[2, 1] = POSITION_LIFT[4, 2] = 1.0


def _position_fix_fn(
    model: ModelSet3D, z0: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Backprojection of the first box (or of each of a stack) as a
    function of its unknowns.

    The argument columns are [x-noise, y-noise, height-noise, body
    height]; the denoised bottom-center and pixel height [z0]_4 minus its
    noise go through ``backproject`` with the body height.  A sigma point
    with a non-positive denoised height raises ``NonPositiveHeight``.
    """
    cu, cv = model.cam.principal_point_px
    u = (z0[..., 0] - cu)[..., None]
    v = (z0[..., 1] - cv)[..., None]
    height_px = z0[..., 3, None]

    def transform(points: np.ndarray) -> np.ndarray:
        noise_u, noise_v, noise_h, height_m = points.swapaxes(0, -2)
        return np.stack(
            backproject(
                model.cam, u - noise_u, v - noise_v, height_px - noise_h, height_m
            ),
            axis=-2,
        )

    return transform


def init_3d(
    z0: np.ndarray,
    model: ModelSet3D,
    consts: InitConstants | None = None,
) -> GaussianEstimate:
    """First estimate of the 3D filter from one bounding box (or a stack).

    The box's bottom-center and height fix the position by an unscented
    pass through the backprojection, with the body height prior supplying
    the depth scale.  Velocities start at zero with the speed-cap
    variance; the extents start at their stationary laws.
    """
    consts = consts or InitConstants()
    z0 = np.asarray(z0, dtype=float)
    _box_heights(z0)
    p = model.params
    lead = z0.shape[:-1]
    mean_in = np.array([0.0, 0.0, 0.0, p.mean_h])
    cov_in = np.zeros((4, 4))
    cov_in[:3, :3] = INIT_NOISE_SELECTOR @ model.R @ INIT_NOISE_SELECTOR.T
    cov_in[3, 3] = p.sigma_h**2
    sigma = unscented_transform(
        np.broadcast_to(mean_in, lead + (4,)),
        np.broadcast_to(cov_in, lead + (4, 4)),
        _position_fix_fn(model, z0),
    )
    mean = _matvec(POSITION_LIFT, sigma.mean_y)
    mean[..., 6] = p.mean_w
    mean[..., 7] = p.mean_h
    cov = POSITION_LIFT @ sigma.cov_y @ POSITION_LIFT.T
    v = consts.v_rdot
    _add_diagonal(cov, np.array([0, v, 0, v, 0, v, p.sigma_w**2, p.sigma_h**2]))
    return GaussianEstimate(mean, symmetrize(cov))


def project_estimate(
    est: GaussianEstimate, model: ModelSet3D
) -> GaussianEstimate:
    """Image of a 3D estimate as a bounding-box Gaussian.

    Unscented image of the estimate through projection-then-selection;
    the output covariance is the sigma spread alone, with no detector
    noise added.
    """
    sigma = unscented_transform(est.mean, est.cov, bb_measurement_fn(model))
    return GaussianEstimate(sigma.mean_y, symmetrize(sigma.cov_y))


def linear_box_estimate(est: GaussianEstimate) -> GaussianEstimate:
    """Bounding-box Gaussian of a linear-state estimate: H mean, H P H^T."""
    h = measurement_matrix()
    return GaussianEstimate(_matvec(h, est.mean), symmetrize(h @ est.cov @ h.T))
