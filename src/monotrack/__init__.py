"""Monocular pedestrian tracking.

Estimates pedestrian state from bounding-box detections of a single
static camera, either directly in the image plane (two baseline Kalman
filters) or in the camera frame through an unconstrained 3D motion model
and an unscented filter with an outer-product covariance update, plus
the simulation and metric machinery to compare the two families for
accuracy and covariance consistency.
"""

from .camera import DEPTH_EPSILON, CameraIntrinsics, backproject
from .dataio import (
    BoundingBox,
    MotRow,
    TrackSequence,
    associate_greedy_iou,
    attach_detections,
    build_tracks,
    iou,
    parse_mot_file,
    semi_annotate_3d,
    to_bottom_center,
    to_top_left,
    write_mot_file,
)
from .filters import (
    GaussianEstimate,
    InitConstants,
    SigmaSet,
    bot_init,
    bot_predict,
    bot_update,
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
from .metrics import EvalSeries, anees, evaluate_track, rmse
from .models import (
    BoTParams,
    ModelSet2D,
    ModelSet3D,
    PedestrianParams,
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
from .pipeline import ModelBundle, build_bundle, run_filter, run_track
from .sim import SimConfig, simulate_detections

__version__ = "0.1.0"
