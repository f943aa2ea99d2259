"""Shared fixtures: a synthetic MOT-layout sequence with known 3D truth.

The truth trajectory is drawn from the 3D motion model itself and
projected to bounding-box annotations, so filter consistency on this
sequence is a property of the estimator, not of the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from monotrack.camera import CameraIntrinsics
from monotrack.dataio import (
    MotRow,
    TrackSequence,
    build_tracks,
    attach_detections,
    parse_mot_file,
    to_top_left,
    write_mot_file,
    BoundingBox,
)
from monotrack.filters import sqrt_psd
from monotrack.models import MEASURED_ROWS, build_model_2d, build_model_3d, project_state
from monotrack.pipeline import build_bundle

IMAGE_SIZE = (1920, 1080)
FRAME_RATE = 30.0
N_FRAMES = 90
TRACK_ID = 1
SEQ_NAME = "SYN-01"
# Detector drops the target for these 1-based file frames.
DROPPED_FRAMES = frozenset(range(31, 42))


def synthetic_truth(seed: int = 20240715, n_frames: int = N_FRAMES) -> np.ndarray:
    """(K, 8) camera-frame truth states drawn from the 3D model."""
    cam = CameraIntrinsics.for_image(IMAGE_SIZE)
    model = build_model_3d(1.0 / FRAME_RATE, cam, float(min(IMAGE_SIZE)))
    rng = np.random.default_rng(seed)
    chol = sqrt_psd(model.Q)
    state = np.array([0.8, -0.4, 0.9, 0.05, 9.0, 0.5, 0.85, 1.70])
    states = [state]
    for _ in range(n_frames - 1):
        state = model.F @ state + model.m + chol @ rng.standard_normal(8)
        states.append(state)
    return np.stack(states)


def truth_boxes(states: np.ndarray) -> np.ndarray:
    """(K, 4) bounding-box annotations of the truth states."""
    cam = CameraIntrinsics.for_image(IMAGE_SIZE)
    model = build_model_3d(1.0 / FRAME_RATE, cam, float(min(IMAGE_SIZE)))
    return project_state(model, states.T)[list(MEASURED_ROWS)].T


@dataclass
class SyntheticSequence:
    seq_dir: Path
    gt_path: Path
    det_path: Path
    states: np.ndarray
    boxes: np.ndarray
    frame_rate: float
    track_id: int
    name: str

    def track(self, with_detections: bool = True) -> TrackSequence:
        rows = parse_mot_file(self.gt_path, "annotation")
        tracks = build_tracks(rows)
        if with_detections:
            det_rows = parse_mot_file(self.det_path, "detection")
            attach_detections(tracks, det_rows)
        return tracks[self.track_id]


def write_synthetic_sequence(
    root: Path, name: str = SEQ_NAME, track_id: int = TRACK_ID
) -> SyntheticSequence:
    states = synthetic_truth()
    boxes = truth_boxes(states)
    seq_dir = root / name
    (seq_dir / "gt").mkdir(parents=True)
    (seq_dir / "det").mkdir(parents=True)
    (seq_dir / "seqinfo.ini").write_text(
        "[Sequence]\n"
        f"name={name}\n"
        f"imWidth={IMAGE_SIZE[0]}\n"
        f"imHeight={IMAGE_SIZE[1]}\n"
        f"frameRate={FRAME_RATE:g}\n",
        encoding="utf-8",
    )
    gt_rows = []
    for k, box in enumerate(boxes):
        left, top, width, height = to_top_left(BoundingBox(*box))
        gt_rows.append(MotRow(k + 1, track_id, left, top, width, height, 1.0, 1, 1.0))
    gt_path = seq_dir / "gt" / "gt.txt"
    write_mot_file(gt_path, gt_rows, "annotation")

    model2d = build_model_2d(1.0 / FRAME_RATE, float(min(IMAGE_SIZE)))
    rng = np.random.default_rng(991)
    chol = sqrt_psd(model2d.R)
    det_rows = []
    for k, box in enumerate(boxes):
        frame = k + 1
        if frame in DROPPED_FRAMES:
            continue
        noisy = box + chol @ rng.standard_normal(4)
        left, top, width, height = to_top_left(BoundingBox(*noisy))
        det_rows.append(MotRow(frame, -1, left, top, width, height, 1.0))
    det_path = seq_dir / "det" / "det.txt"
    write_mot_file(det_path, det_rows, "detection")

    return SyntheticSequence(
        seq_dir=seq_dir,
        gt_path=gt_path,
        det_path=det_path,
        states=states,
        boxes=boxes,
        frame_rate=FRAME_RATE,
        track_id=track_id,
        name=name,
    )


@pytest.fixture(scope="session")
def synthetic_sequence(tmp_path_factory: pytest.TempPathFactory) -> SyntheticSequence:
    return write_synthetic_sequence(tmp_path_factory.mktemp("sequences"))


@pytest.fixture(scope="session")
def synthetic_bundle():
    return build_bundle(IMAGE_SIZE, FRAME_RATE)
