"""Model construction tests.

NCV blocks are checked against the closed-form discretization
q [[T^3/3, T^2/2], [T^2/2, T]]; the mean-reverting constants against
high-precision evaluations of exp(-T/tau) frozen below; the heuristic
baseline matrices against hand expansion of their extent-proportional
patterns.
"""

from __future__ import annotations

import numpy as np
import pytest

from monotrack.camera import DEPTH_EPSILON, CameraIntrinsics
from monotrack.exceptions import DepthNonPositive, InvalidTimestep
from monotrack.models import (
    BoTParams,
    PedestrianParams,
    R_UNIT,
    ar_discretize,
    bot_measurement_noise,
    bot_process_noise,
    bot_transition_matrix,
    build_model_2d,
    build_model_3d,
    measurement_matrix,
    measurement_noise,
    ncv_discretize,
    project_state,
)

CAM = CameraIntrinsics()

# exp(-1/120) and exp(-1/12) to 17 significant digits.
ALPHA_TAU4_T30 = 0.99170129263887596
ALPHA_TAU04_T30 = 0.92004441462932325


def test_ncv_transition():
    f, _ = ncv_discretize(1.0, 0.5)
    assert np.array_equal(f, [[1.0, 0.5], [0.0, 1.0]])


def test_ncv_noise_video_rate():
    _, q = ncv_discretize(1.0, 1.0 / 30.0)
    expected = np.array(
        [[1.2345679012345679e-05, 5.555555555555556e-04],
         [5.555555555555556e-04, 3.3333333333333333e-02]]
    )
    assert q == pytest.approx(expected, rel=1e-12)


def test_ncv_noise_unit_step():
    _, q = ncv_discretize(1.0, 1.0)
    assert q == pytest.approx(np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]]), rel=1e-15)


def test_ncv_zero_psd():
    _, q = ncv_discretize(0.0, 0.1)
    assert not q.any()


def test_ncv_rejects_bad_inputs():
    with pytest.raises(InvalidTimestep):
        ncv_discretize(1.0, 0.0)
    with pytest.raises(ValueError):
        ncv_discretize(-1.0, 0.1)


def test_ncv_noise_is_psd():
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, q = ncv_discretize(rng.uniform(0, 10), rng.uniform(1e-3, 10))
        assert np.linalg.eigvalsh(q).min() >= -1e-15


def test_ar_discretize_video_rate():
    alpha, additive, noise_var = ar_discretize(1.65, 0.1, 4.0, 1.0 / 30.0)
    assert alpha == pytest.approx(ALPHA_TAU4_T30, rel=1e-12)
    assert additive == pytest.approx((1 - ALPHA_TAU4_T30) * 1.65, rel=1e-12)
    assert noise_var == pytest.approx(1.6528546178382511e-04, rel=1e-12)


def test_ar_stationarity_identity():
    # alpha m + (1 - alpha) m = m and alpha^2 s^2 + s^2 (1 - alpha^2) = s^2.
    mean, stddev = 0.85, 0.15
    alpha, additive, noise_var = ar_discretize(mean, stddev, 0.4, 1.0 / 30.0)
    assert alpha * mean + additive == pytest.approx(mean, rel=1e-14)
    assert alpha**2 * stddev**2 + noise_var == pytest.approx(stddev**2, rel=1e-14)


def test_ar_limits():
    # Infinite time constant: a frozen parameter.
    alpha, additive, noise_var = ar_discretize(1.0, 0.2, np.inf, 0.1)
    assert (alpha, additive, noise_var) == (1.0, 0.0, 0.0)
    # Infinite step: one draw from the stationary law.
    alpha, additive, noise_var = ar_discretize(1.0, 0.2, 0.5, np.inf)
    assert (alpha, additive) == (0.0, 1.0)
    assert noise_var == pytest.approx(0.04, rel=1e-15)


def test_ar_rejects_bad_inputs():
    with pytest.raises(InvalidTimestep):
        ar_discretize(1.0, 0.1, 1.0, 0.0)
    with pytest.raises(ValueError, match="stddev"):
        ar_discretize(1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="time constant"):
        ar_discretize(1.0, 0.1, -2.0, 0.1)


def test_measurement_matrix_selects_box_rows():
    h = measurement_matrix()
    state = np.arange(8.0)
    assert np.array_equal(h @ state, [0.0, 2.0, 4.0, 6.0])


def test_measurement_noise_scaling():
    r = measurement_noise(1080.0)
    assert r[0, 0] == pytest.approx(1080.0**2 * 1e-5 * 2.232, rel=1e-12)
    assert r[1, 3] == pytest.approx(1080.0**2 * 1e-5 * -2.280, rel=1e-12)
    assert np.array_equal(r, r.T)
    assert np.linalg.eigvalsh(r).min() > 0


def test_r_unit_shape_is_symmetric_positive_definite():
    assert np.array_equal(R_UNIT, R_UNIT.T)
    assert np.linalg.eigvalsh(R_UNIT).min() > 0


def test_build_model_2d_structure():
    dt = 1.0 / 30.0
    model = build_model_2d(dt, 1080.0)
    assert model.F.shape == (8, 8) and model.Q.shape == (8, 8)
    # Transition is four independent NCV blocks.
    f_block = np.array([[1.0, dt], [0.0, 1.0]])
    for i in range(4):
        s = slice(2 * i, 2 * i + 2)
        assert np.array_equal(model.F[s, s], f_block)
    assert np.count_nonzero(model.F) == 12
    # Process noise blocks scale the unit NCV noise by gamma^2 q.
    _, t_mat = ncv_discretize(1.0, dt)
    for i, q in enumerate((0.011, 0.037, 0.013, 0.025)):
        s = slice(2 * i, 2 * i + 2)
        assert model.Q[s, s] == pytest.approx(1080.0**2 * q * t_mat, rel=1e-12)
    assert np.array_equal(model.R, measurement_noise(1080.0))


def test_build_model_3d_extent_entries():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    assert model.F[6, 6] == pytest.approx(ALPHA_TAU04_T30, rel=1e-12)
    assert model.F[7, 7] == pytest.approx(ALPHA_TAU4_T30, rel=1e-12)
    assert model.m[6] == pytest.approx(0.067962247565075239, rel=1e-12)
    assert model.m[7] == pytest.approx((1 - ALPHA_TAU4_T30) * 1.65, rel=1e-12)
    assert not model.m[:6].any()
    sigma_w = 0.45 / 3.0
    assert model.Q[6, 6] == pytest.approx(
        sigma_w**2 * (1 - ALPHA_TAU04_T30**2), rel=1e-12
    )
    # Extent dynamics are a strict contraction toward the mean.
    assert 0 < model.F[6, 6] < 1 and 0 < model.F[7, 7] < 1


def test_build_model_3d_position_blocks_use_unit_psd():
    dt = 1.0 / 30.0
    model = build_model_3d(dt, CAM, 1080.0)
    _, t_mat = ncv_discretize(1.0, dt)
    for i in range(3):
        s = slice(2 * i, 2 * i + 2)
        assert model.Q[s, s] == pytest.approx(t_mat, rel=1e-15)


def test_build_model_3d_honors_overrides():
    params = PedestrianParams(q_z=4.0, tau_h=2.0)
    model = build_model_3d(0.1, CAM, 1080.0, params)
    _, t_mat = ncv_discretize(4.0, 0.1)
    assert model.Q[4:6, 4:6] == pytest.approx(t_mat, rel=1e-15)
    assert model.F[7, 7] == pytest.approx(np.exp(-0.05), rel=1e-12)


def test_top_view_preset():
    params = PedestrianParams.top_view()
    assert params.mean_h == params.mean_w
    assert params.tau_h == params.tau_w


def test_project_state_reference_vector():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    state = np.array([0.0, 0.0, 0.0, 0.0, 1.65, 0.0, 0.85, 1.65])
    out = project_state(model, state)
    expected = [960.0, 0.0, 540.0, 0.0, 515.15151515151513, 0.0, 1000.0, 0.0]
    assert out == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_project_state_extent_rate_from_recession():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    state = np.array([0.0, 0.0, 0.0, 0.0, 1.65, 1.0, 0.85, 1.65])
    out = project_state(model, state)
    # h rate: -(f z'/(|px| z^2)) h = -1000 * 1.65 / 1.65^2
    assert out[7] == pytest.approx(-606.06060606060606, rel=1e-12)


def test_project_state_rejects_nonpositive_depth():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    for z in (0.0, -1.0, DEPTH_EPSILON):
        state = np.array([0.0, 0.0, 0.0, 0.0, z, 0.0, 0.85, 1.65])
        with pytest.raises(DepthNonPositive):
            project_state(model, state)


def test_project_state_agrees_with_camera_operations():
    # Expected values from the pinhole map written out per component:
    # u = s x + c_u with s = f/(|px| z), u' = s (x' - z' x / z), and an
    # extent e projects to s e with rate -s z' e / z.
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    cu, cv = CAM.principal_point_px
    rng = np.random.default_rng(11)
    for _ in range(200):
        state = np.concatenate(
            [
                rng.uniform(-5, 5, 2),
                rng.uniform(-5, 5, 2),
                [rng.uniform(0.5, 30), rng.uniform(-5, 5)],
                rng.uniform(0.2, 2.5, 2),
            ]
        )
        x, vx, y, vy, z, vz, w, h = state
        out = project_state(model, state)
        s = CAM.focal_px / z
        expected = [s * x + cu, s * (vx - vz * x / z), s * y + cv,
                    s * (vy - vz * y / z), s * w, -s * vz * w / z,
                    s * h, -s * vz * h / z]
        assert out == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_project_state_vectorizes_over_columns():
    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    rng = np.random.default_rng(5)
    states = np.vstack(
        [
            rng.uniform(-3, 3, (4, 6)),
            rng.uniform(1, 20, (1, 6)),
            rng.uniform(-2, 2, (1, 6)),
            rng.uniform(0.3, 2, (2, 6)),
        ]
    )
    # Row order: build as [x, vx, y, vy] then z, vz, w, h.
    states = states[[0, 1, 2, 3, 4, 5, 6, 7]]
    batch = project_state(model, states)
    for col in range(6):
        single = project_state(model, states[:, col])
        assert batch[:, col] == pytest.approx(single, rel=1e-15, abs=1e-15)


def test_bot_transition_matrix():
    f = bot_transition_matrix()
    state = np.array([10.0, 1.0, 20.0, -2.0, 30.0, 0.5, 40.0, 0.0])
    assert np.array_equal(f @ state, [11.0, 1.0, 18.0, -2.0, 30.5, 0.5, 40.0, 0.0])


def test_bot_process_noise_values():
    q = bot_process_noise(100.0, 200.0)
    expected = [25.0, 0.390625, 100.0, 1.5625, 25.0, 0.390625, 100.0, 1.5625]
    assert np.diag(q) == pytest.approx(expected, rel=1e-15)
    assert np.count_nonzero(q - np.diag(np.diag(q))) == 0


def test_bot_measurement_noise_values():
    r = bot_measurement_noise(100.0, 200.0)
    assert np.diag(r) == pytest.approx([25.0, 100.0, 25.0, 100.0], rel=1e-15)


def test_bot_noise_zero_extents():
    assert not bot_process_noise(0.0, 0.0).any()
    assert not bot_measurement_noise(0.0, 0.0).any()


def test_bot_params_validation():
    with pytest.raises(ValueError):
        BoTParams(zeta_r=0.0)
