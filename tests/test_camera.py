"""Pinhole tests: the forward map ``models.project_state`` and the back
map ``camera.backproject``.

Expected values are hand computations of u = (f/(|px| z)) x + c_u and its
time derivative; the default intrinsics give f/|px| = 1000 px with the
principal point at (960, 540).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotrack.camera import DEPTH_EPSILON, CameraIntrinsics, backproject
from monotrack.exceptions import DepthNonPositive, NonPositiveHeight
from monotrack.models import build_model_3d, project_state

CAM = CameraIntrinsics()
MODEL = build_model_3d(1.0 / 30.0, CAM, 1080.0)
CU, CV = CAM.principal_point_px


def project(x=0.0, y=0.0, z=1.0, vx=0.0, vy=0.0, vz=0.0, w=0.0, h=0.0):
    """Image state [u, u', v, v', w, w', h, h'] of one camera-frame state."""
    return project_state(MODEL, np.array([x, vx, y, vy, z, vz, w, h]))


def test_intrinsics_defaults():
    assert CAM.focal_px == pytest.approx(1000.0, rel=1e-12)
    assert CAM.principal_point_px == (960.0, 540.0)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(focal_length_m=0.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(pixel_size_m=-1e-6)


def test_intrinsics_for_image_centers_principal_point():
    cam = CameraIntrinsics.for_image((1920, 1080))
    assert cam.principal_point_px == (960.0, 540.0)


def test_project_point_on_axis():
    assert project(z=1.0)[[0, 2]].tolist() == [960.0, 540.0]


def test_project_point_off_axis():
    # 1000/2 * (1, 0.5) + (960, 540)
    u, v = project(x=1.0, y=0.5, z=2.0)[[0, 2]]
    assert u == pytest.approx(1460.0, abs=1e-12)
    assert v == pytest.approx(790.0, abs=1e-12)


def test_project_point_behind_camera():
    # One column at or behind the camera plane rejects the whole batch.
    states = np.tile([0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.5, 1.7], (4, 1)).T
    for z in (0.0, -1.0, DEPTH_EPSILON):
        states[4, 2] = z
        with pytest.raises(DepthNonPositive):
            project_state(MODEL, states)


def test_project_velocity_pure_recession():
    # Receding along the ray through (1, 0, 2): pixel slides toward the
    # principal point at -(f z'/(|px| z^2)) x = -250 px/s.
    out = project(x=1.0, z=2.0, vz=1.0)
    assert out[[1, 3]] == pytest.approx([-250.0, 0.0], abs=1e-12)


def test_project_velocity_lateral():
    out = project(z=2.0, vx=1.0)
    assert out[[1, 3]] == pytest.approx([500.0, 0.0], abs=1e-12)


def test_project_velocity_static_point():
    out = project(x=0.3, y=-0.2, z=5.0, w=0.5, h=1.7)
    assert out[[1, 3, 5, 7]] == pytest.approx([0.0] * 4, abs=0)


def test_project_extent_at_characteristic_depth():
    out = project(z=1.65, h=1.65)
    assert out[6] == pytest.approx(1000.0, abs=1e-12)
    assert out[7] == pytest.approx(0.0, abs=0)


def test_project_extent_with_recession():
    out = project(z=2.0, vz=1.0, h=1.65)
    assert out[6] == pytest.approx(825.0, abs=1e-12)
    assert out[7] == pytest.approx(-412.5, abs=1e-12)


def test_project_extent_zero_extent():
    out = project(z=3.0, vz=-2.0)
    assert out[4:].tolist() == [0.0] * 4


def test_depth_from_height():
    # z = (f/|px|) H / h
    assert backproject(CAM, 0.0, 0.0, 1650.0, 1.65)[2] == pytest.approx(1.0, abs=1e-15)
    assert backproject(CAM, 0.0, 0.0, 1000.0, 1.65)[2] == pytest.approx(1.65, abs=1e-15)


def test_depth_from_height_rejects_nonpositive():
    for height_px in (0.0, -100.0, float("nan")):
        with pytest.raises(NonPositiveHeight):
            backproject(CAM, 0.0, 0.0, height_px, 1.65)


def test_backproject_principal_point():
    assert backproject(CAM, 0.0, 0.0, 165.0, 1.65) == pytest.approx(
        (0.0, 0.0, 10.0), abs=1e-12
    )


def test_backproject_inverts_projection():
    u, _, v, _, _, _, h_px, _ = project(x=1.0, y=0.5, z=2.0, h=1.65)
    back = backproject(CAM, u - CU, v - CV, h_px, 1.65)
    assert back == pytest.approx((1.0, 0.5, 2.0), abs=1e-12)


def test_backproject_rejects_nonpositive_depth():
    # A non-positive pixel height anywhere in a batch would put that
    # point at or behind the camera, so the whole call is refused.
    heights = np.array([100.0, 50.0, 0.0, 20.0])
    with pytest.raises(NonPositiveHeight):
        backproject(CAM, np.zeros(4), np.zeros(4), heights, np.full(4, 1.65))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-10.0, 10.0),
            st.floats(-10.0, 10.0),
            st.floats(0.5, 50.0),
            st.floats(0.3, 2.5),
            st.floats(-3.0, 3.0),
            st.floats(0.2, 1.5),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_roundtrip_random_points(points):
    # backproject after project_state returns each point's position, from
    # its image position and height and its true body height, whatever
    # its velocity and width.
    x, y, z, height, speed, width = np.array(points).T
    states = np.zeros((8, len(points)))
    states[0], states[2], states[4], states[7], states[6] = x, y, z, height, width
    states[1] = states[3] = states[5] = speed
    out = project_state(MODEL, states)
    back = np.stack(backproject(CAM, out[0] - CU, out[2] - CV, out[6], height))
    err = np.abs(back - states[[0, 2, 4]]).max(axis=0)
    scale = np.maximum(1.0, np.abs(states[[0, 2, 4]]).max(axis=0))
    assert (err <= 1e-12 * scale).all()


def test_projection_is_linear_in_lateral_position():
    # At fixed depth the map is affine, so midpoints project to midpoints.
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = rng.uniform(0.5, 30)
        ax, ay, bx, by = rng.uniform(-5, 5, 4)
        pa = project(ax, ay, z)[[0, 2]]
        pb = project(bx, by, z)[[0, 2]]
        pm = project((ax + bx) / 2, (ay + by) / 2, z)[[0, 2]]
        assert pm == pytest.approx((pa + pb) / 2, rel=1e-12, abs=1e-9)


def test_extent_scale_law():
    # Doubling the depth halves the projected extent exactly.
    near = project(z=4.0, w=0.85)
    far = project(z=8.0, w=0.85)
    assert far[4] == pytest.approx(near[4] / 2, rel=1e-15)


def _central_difference_velocity(point, velocity, step):
    pa = project(*(point + step * velocity))[[0, 2]]
    pb = project(*(point - step * velocity))[[0, 2]]
    return (pa - pb) / (2 * step)


def test_project_velocity_matches_finite_differences():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        point = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 20)])
        velocity = rng.uniform(-5, 5, size=3)
        analytic = project(*point, *velocity)[[1, 3]]
        numeric = _central_difference_velocity(point, velocity, 1e-6)
        denom = max(np.linalg.norm(analytic), 1e-3)
        assert np.linalg.norm(numeric - analytic) / denom <= 1e-6
