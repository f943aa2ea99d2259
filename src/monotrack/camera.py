"""Pinhole-camera geometry for monocular tracking.

Coordinate conventions
----------------------
Camera frame: x rightward, y downward, z forward along the optical axis,
in meters.  Image frame: origin at the top-left pixel corner, u rightward,
v downward, in pixels.  With v growing downward, the bottom edge of an
upright object has the largest v coordinate.

A point (x, y, z) with z > 0 in front of the camera projects through the
pinhole onto the focal plane f meters ahead of it, and is expressed in
pixels by dividing with the square pixel side length and shifting by the
principal point:

    u = (f / (|px| z)) x + c_u
    v = (f / (|px| z)) y + c_v

The forward map, with its time derivative for velocities and extent
rates, is ``models.project_state``; it rejects depths at or below
``DEPTH_EPSILON``.  The back map is :func:`backproject`: an object of
known metric height H spanning h pixels sits at depth z = (f / |px|) H / h,
which fixes the rest of the point along the viewing ray.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonPositiveHeight

# Depths at or below this bound (meters) count as "behind the camera".
DEPTH_EPSILON = 1e-6


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal length, pixel pitch, principal point."""

    focal_length_m: float = 1e-3
    pixel_size_m: float = 1e-6
    principal_point_px: tuple[float, float] = (960.0, 540.0)

    def __post_init__(self) -> None:
        if not (self.focal_length_m > 0 and np.isfinite(self.focal_length_m)):
            raise ValueError(f"focal length must be positive, got {self.focal_length_m}")
        if not (self.pixel_size_m > 0 and np.isfinite(self.pixel_size_m)):
            raise ValueError(f"pixel size must be positive, got {self.pixel_size_m}")
        pp = (float(self.principal_point_px[0]), float(self.principal_point_px[1]))
        object.__setattr__(self, "principal_point_px", pp)
        if not np.isfinite(self.focal_px):
            raise ValueError("focal length in pixels is not finite")

    @property
    def focal_px(self) -> float:
        """Focal length expressed in pixels, f / |px|."""
        return self.focal_length_m / self.pixel_size_m

    @classmethod
    def for_image(
        cls,
        image_size: tuple[int, int],
        focal_length_m: float = 1e-3,
        pixel_size_m: float = 1e-6,
    ) -> "CameraIntrinsics":
        """Intrinsics with the principal point at the image center."""
        width, height = image_size
        return cls(focal_length_m, pixel_size_m, (width / 2.0, height / 2.0))


def backproject(
    cam: CameraIntrinsics,
    offset_u: float | np.ndarray,
    offset_v: float | np.ndarray,
    height_px: float | np.ndarray,
    height_m: float | np.ndarray,
) -> tuple:
    """Camera-frame (x, y, z) of a point on an object of known height.

    Offsets are pixels from the principal point, so that the 3D
    initializer keeps the rounding of its (u - c_u) - noise.  With
    s = height_m / height_px the point is (s offset_u, s offset_v,
    s f/|px|), element-wise for arrays.  Raises ``NonPositiveHeight``
    unless every ``height_px`` is positive.
    """
    if not np.all(height_px > 0):
        raise NonPositiveHeight(f"pixel height must be positive, got {height_px}")
    scale = height_m / height_px
    return scale * offset_u, scale * offset_v, scale * cam.focal_px
