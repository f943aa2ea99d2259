"""Discrete-time motion and measurement models for pedestrian tracking.

Three state parameterizations appear throughout the package:

==========  ===========================================  ================
space tag   layout                                       units
==========  ===========================================  ================
``"2d"``    [x, x', y, y', w, w', h, h']                 px, px/s
``"3d"``    [x, x', y, y', z, z', w, h]                  m, m/s
``"bot"``   [x, Tx', y, Ty', w, Tw', h, Th']             px
==========  ===========================================  ================

In image space (x, y) is the bottom-center of the bounding box and (w, h)
its width and height.  In the 3D state (x, y, z) is the bottom-center of
the body in the camera frame; w and h are the metric body width and
height, which evolve as mean-reverting first-order processes rather than
integrated velocities.  The "bot" baseline folds the sampling period T
into its velocity entries, so all eight components are pixels.

A measurement z = [x, y, w, h] is the bounding box itself; the matrix
returned by :func:`measurement_matrix` picks those four components out of
any of the 8-dimensional states above.

Position axes follow a nearly-constant-velocity (NCV) model: white noise
acceleration of power spectral density q, discretized exactly over a step
T.  The extent processes are discretized Ornstein-Uhlenbeck recursions
whose stationary mean and variance are preserved exactly at any step
length (see :func:`ar_discretize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import DEPTH_EPSILON, CameraIntrinsics
from .exceptions import DepthNonPositive, InvalidTimestep

# Shape of the bounding-box detector noise, identified once on MOT
# pedestrian data.  Scaled by gamma^2 * R_SCALE where gamma is the
# smaller image dimension in pixels.
R_UNIT = np.array(
    [
        [2.232, 0.086, -0.787, -0.084],
        [0.086, 2.817, 0.080, -2.280],
        [-0.787, 0.080, 2.036, 0.266],
        [-0.084, -2.280, 0.266, 4.661],
    ]
)
R_SCALE = 1e-5

# Rows of an 8-dimensional state that form the measured bounding box.
MEASURED_ROWS = (0, 2, 4, 6)


def _blkdiag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix from square blocks (scalars allowed)."""
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at : at + k, at : at + k] = m
        at += k
    return out


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Average a matrix (or each matrix of a stack) with its transpose."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


@dataclass(frozen=True)
class BoTParams:
    """Extent-proportional noise weights of the heuristic baseline filter."""

    zeta_r: float = 1.0 / 20.0
    zeta_rdot: float = 1.0 / 160.0

    def __post_init__(self) -> None:
        if not (self.zeta_r > 0 and self.zeta_rdot > 0):
            raise ValueError("noise weights must be positive")


@dataclass(frozen=True)
class PedestrianParams:
    """All tunable model constants in one record.

    Defaults are the pedestrian values used throughout: identified 2D
    PSDs, unit 3D position PSDs, and body width/height processes with
    stationary spreads chosen so that three sigma covers the population
    range.
    """

    # 2D model PSDs, px^2/s^3 before the gamma^2 scale.
    q_x_dot: float = 0.011
    q_y_dot: float = 0.037
    q_w_dot: float = 0.013
    q_h_dot: float = 0.025
    # 3D position PSDs, m^2/s^3.
    q_x: float = 1.0
    q_y: float = 1.0
    q_z: float = 1.0
    # Body width process, meters.
    mean_w: float = 0.85
    sigma_w: float = 0.45 / 3.0
    tau_w: float = 0.4
    # Body height process, meters.
    mean_h: float = 1.65
    sigma_h: float = 0.3 / 3.0
    tau_h: float = 4.0

    @classmethod
    def top_view(cls) -> "PedestrianParams":
        """Preset for overhead views where height behaves like width."""
        return cls(mean_h=0.85, sigma_h=0.45 / 3.0, tau_h=0.4)


@dataclass(frozen=True)
class ModelSet2D:
    """Linear image-plane model: transition, process and measurement noise."""

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class ModelSet3D:
    """Camera-frame model with NCV positions and mean-reverting extents."""

    F: np.ndarray
    m: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    cam: CameraIntrinsics
    params: PedestrianParams


def ncv_discretize(psd: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact discretization of one NCV axis with white-noise acceleration
    of power spectral density ``psd`` over a sampling period ``dt``.

    Returns the 2x2 transition [[1, T], [0, 1]] and process noise
    q * [[T^3/3, T^2/2], [T^2/2, T]] for the state pair (position, rate).
    """
    if not psd >= 0:
        raise ValueError(f"power spectral density must be >= 0, got {psd}")
    if not dt > 0:
        raise InvalidTimestep(f"sampling period must be positive, got {dt}")
    f = np.array([[1.0, dt], [0.0, 1.0]])
    q = psd * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    return f, q


def ar_discretize(
    mean: float, stddev: float, time_constant_s: float, dt: float
) -> tuple[float, float, float]:
    """Exact discretization of a mean-reverting scalar process with
    stationary ``mean`` and ``stddev`` and time constant
    tau = ``time_constant_s``.

    Returns (alpha, additive, noise_var) for the recursion
    p[k+1] = alpha p[k] + additive + w[k], w ~ N(0, noise_var), with
    alpha = exp(-dt/tau).  The stationary mean and variance of the
    continuous process are preserved for any dt: additive equals
    (1 - alpha) mean and noise_var equals stddev^2 (1 - alpha^2).
    """
    if not stddev > 0:
        raise ValueError(f"stationary stddev must be positive, got {stddev}")
    if not time_constant_s > 0:
        raise ValueError(f"time constant must be positive, got {time_constant_s}")
    if not dt > 0:
        raise InvalidTimestep(f"sampling period must be positive, got {dt}")
    alpha = math.exp(-dt / time_constant_s)
    additive = (1.0 - alpha) * mean
    noise_var = stddev**2 * (1.0 - alpha * alpha)
    return alpha, additive, noise_var


def measurement_matrix() -> np.ndarray:
    """4x8 selector of the bounding-box components of an 8-vector state."""
    h = np.zeros((4, 8))
    for row, col in enumerate(MEASURED_ROWS):
        h[row, col] = 1.0
    return h


def measurement_noise(gamma: float) -> np.ndarray:
    """Bounding-box detector noise covariance for image scale gamma."""
    if not gamma > 0:
        raise ValueError(f"image scale must be positive, got {gamma}")
    return symmetrize(gamma * gamma * R_SCALE * R_UNIT)


def build_model_2d(
    dt: float, gamma: float, params: PedestrianParams | None = None
) -> ModelSet2D:
    """Assemble the image-plane NCV model at scale gamma."""
    params = params or PedestrianParams()
    psds = (params.q_x_dot, params.q_y_dot, params.q_w_dot, params.q_h_dot)
    blocks_f = []
    blocks_q = []
    for q in psds:
        f, qm = ncv_discretize(q, dt)
        blocks_f.append(f)
        blocks_q.append(gamma * gamma * qm)
    return ModelSet2D(
        F=_blkdiag(*blocks_f),
        Q=_blkdiag(*blocks_q),
        H=measurement_matrix(),
        R=measurement_noise(gamma),
    )


def build_model_3d(
    dt: float,
    cam: CameraIntrinsics,
    gamma: float,
    params: PedestrianParams | None = None,
) -> ModelSet3D:
    """Assemble the camera-frame model: NCV positions, mean-reverting extents."""
    params = params or PedestrianParams()
    f_ncv, _ = ncv_discretize(0.0, dt)
    _, q_x = ncv_discretize(params.q_x, dt)
    _, q_y = ncv_discretize(params.q_y, dt)
    _, q_z = ncv_discretize(params.q_z, dt)
    alpha_w, add_w, var_w = ar_discretize(
        params.mean_w, params.sigma_w, params.tau_w, dt
    )
    alpha_h, add_h, var_h = ar_discretize(
        params.mean_h, params.sigma_h, params.tau_h, dt
    )
    m = np.zeros(8)
    m[6] = add_w
    m[7] = add_h
    return ModelSet3D(
        F=_blkdiag(f_ncv, f_ncv, f_ncv, alpha_w, alpha_h),
        m=m,
        Q=_blkdiag(q_x, q_y, q_z, var_w, var_h),
        R=measurement_noise(gamma),
        cam=cam,
        params=params,
    )


def project_state(model: ModelSet3D, state: np.ndarray) -> np.ndarray:
    """Project a 3D state, or an (8, ...) array of them, to image space.

    The first axis holds the state components, so one call projects
    every column of a matrix of column states, or of a stack of such
    matrices.  Output layout matches the 2D state: positions and extents
    through the pinhole map, their rates through its time derivative.
    The extent rates treat w and h as instantaneously constant, so only
    the depth rate contributes.  Raises ``DepthNonPositive`` if any
    column's depth is at or behind the camera plane.
    """
    s = np.asarray(state, dtype=float)
    x, vx, y, vy, z, vz, w, h = s
    if np.any(z <= DEPTH_EPSILON):
        raise DepthNonPositive("state depth is at or behind the camera plane")
    cu, cv = model.cam.principal_point_px
    scale = model.cam.focal_px / z
    return np.stack(
        [
            scale * x + cu,
            scale * (vx - vz * x / z),
            scale * y + cv,
            scale * (vy - vz * y / z),
            scale * w,
            scale * (-vz * w / z),
            scale * h,
            scale * (-vz * h / z),
        ]
    )


def bot_transition_matrix() -> np.ndarray:
    """Unit-step NCV transition for the baseline with T folded into the state."""
    step = np.array([[1.0, 1.0], [0.0, 1.0]])
    return _blkdiag(step, step, step, step)


def _extent_weights(
    width_px: float | np.ndarray, height_px: float | np.ndarray
) -> np.ndarray:
    """[w^2, h^2, w^2, h^2] of one extent pair, or (M, 4) of M pairs."""
    # Width drives the x and w noise, height the y and h noise.  The
    # squares go through pow, as a scalar's ** 2 does; an array's ** 2
    # multiplies, which differs in the last bit on some values.
    squares = np.float_power(np.array([width_px, height_px]), 2)
    return squares[[0, 1, 0, 1]].T


def _diagonal_matrix(diag: np.ndarray) -> np.ndarray:
    """Diagonal matrix of a vector, or a stack of them for a stack."""
    n = diag.shape[-1]
    out = np.zeros(diag.shape + (n,))
    out.reshape(diag.shape[:-1] + (n * n,))[..., :: n + 1] = diag
    return out


def bot_process_noise(
    width_px: float | np.ndarray,
    height_px: float | np.ndarray,
    params: BoTParams | None = None,
) -> np.ndarray:
    """Per-step process noise proportional to the squared filtered extents,
    one matrix per extent pair when given arrays of them."""
    params = params or BoTParams()
    w2 = _extent_weights(width_px, height_px)
    diag = np.empty(w2.shape[:-1] + (8,))
    diag[..., 0::2] = w2 * params.zeta_r**2
    diag[..., 1::2] = w2 * params.zeta_rdot**2
    return _diagonal_matrix(diag)


def bot_measurement_noise(
    width_px: float | np.ndarray,
    height_px: float | np.ndarray,
    params: BoTParams | None = None,
) -> np.ndarray:
    """Measurement noise proportional to the squared predicted extents,
    one matrix per extent pair when given arrays of them."""
    params = params or BoTParams()
    return _diagonal_matrix(_extent_weights(width_px, height_px) * params.zeta_r**2)
