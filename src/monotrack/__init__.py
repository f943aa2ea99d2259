"""Monocular pedestrian tracking.

Estimates pedestrian state from bounding-box detections of a single
static camera, either directly in the image plane (two baseline Kalman
filters) or in the camera frame through an unconstrained 3D motion model
and an unscented filter with an outer-product covariance update, plus
the simulation and metric machinery to compare the two families for
accuracy and covariance consistency.

The names below load their submodule, and with it numpy, on first use,
so ``import monotrack`` alone loads no numpy.  That lets ``monotrack.cli``
set numpy's BLAS threading before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Each public name, grouped by the submodule that defines it.
_EXPORTS = {
    "camera": ("DEPTH_EPSILON", "CameraIntrinsics", "backproject"),
    "dataio": (
        "BoundingBox", "MotRow", "TrackSequence", "associate_greedy_iou",
        "attach_detections", "build_tracks", "iou", "parse_mot_file",
        "semi_annotate_3d", "to_bottom_center", "to_top_left", "write_mot_file",
    ),
    "filters": (
        "GaussianEstimate", "InitConstants", "SigmaSet", "bot_init", "bot_predict",
        "bot_update", "init_2d", "init_3d", "joseph_covariance", "kf_predict",
        "kf_update", "linear_box_estimate", "project_estimate", "sqrt_psd",
        "ukf_predict", "ukf_update", "unscented_kalman_update", "unscented_transform",
    ),
    "metrics": ("EvalSeries", "anees", "evaluate_track", "rmse"),
    "models": (
        "BoTParams", "ModelSet2D", "ModelSet3D", "PedestrianParams", "ar_discretize",
        "bot_measurement_noise", "bot_process_noise", "bot_transition_matrix",
        "build_model_2d", "build_model_3d", "measurement_matrix", "measurement_noise",
        "ncv_discretize", "project_state",
    ),
    "pipeline": ("ModelBundle", "build_bundle", "run_filter", "run_track"),
    "sim": ("SimConfig", "simulate_detections"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
