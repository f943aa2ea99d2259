"""Start-up contract: ``import monotrack`` loads no numpy, its exports load
on first use, and ``monotrack.cli`` runs numpy's BLAS on one thread unless
the caller set ``OPENBLAS_NUM_THREADS``.  Each check runs in a fresh
interpreter, since numpy is already loaded in this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

# The package's exports, by the submodule that defines them.
EXPORTS = {
    "camera": ["DEPTH_EPSILON", "CameraIntrinsics", "backproject"],
    "dataio": [
        "BoundingBox", "MotRow", "TrackSequence", "associate_greedy_iou",
        "attach_detections", "build_tracks", "iou", "parse_mot_file",
        "semi_annotate_3d", "to_bottom_center", "to_top_left", "write_mot_file",
    ],
    "filters": [
        "GaussianEstimate", "InitConstants", "SigmaSet", "bot_init", "bot_predict",
        "bot_update", "init_2d", "init_3d", "joseph_covariance", "kf_predict",
        "kf_update", "linear_box_estimate", "project_estimate", "sqrt_psd",
        "ukf_predict", "ukf_update", "unscented_kalman_update", "unscented_transform",
    ],
    "metrics": ["EvalSeries", "anees", "evaluate_track", "rmse"],
    "models": [
        "BoTParams", "ModelSet2D", "ModelSet3D", "PedestrianParams", "ar_discretize",
        "bot_measurement_noise", "bot_process_noise", "bot_transition_matrix",
        "build_model_2d", "build_model_3d", "measurement_matrix", "measurement_noise",
        "ncv_discretize", "project_state",
    ],
    "pipeline": ["ModelBundle", "build_bundle", "run_filter", "run_track"],
    "sim": ["SimConfig", "simulate_detections"],
}


def fresh_python(code: str, **env: str) -> str:
    """Stdout of ``code`` in a new interpreter without OPENBLAS_NUM_THREADS
    in its environment, unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base.update(env, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=base, check=True
    )
    return out.stdout.strip()


def test_import_monotrack_leaves_numpy_unloaded():
    code = "import sys, monotrack\nprint('numpy' in sys.modules)\n"
    assert fresh_python(code) == "False"


def test_cli_import_sets_one_blas_thread_unless_set():
    code = "import os, monotrack.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert fresh_python(code) == "1"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="3") == "3"


def test_exports_resolve_to_their_submodule_objects():
    code = (
        "import importlib, json, monotrack\n"
        f"exports = {EXPORTS!r}\n"
        "same = all(\n"
        "    getattr(monotrack, name) is getattr(importlib.import_module('monotrack.' + m), name)\n"
        "    for m, names in exports.items() for name in names\n"
        ")\n"
        "try:\n"
        "    monotrack.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps([sorted(monotrack.__all__), dir(monotrack), same, unknown]))\n"
    )
    names, listed, same, unknown = json.loads(fresh_python(code))
    assert names == sorted(name for group in EXPORTS.values() for name in group)
    assert set(names) <= set(listed)
    assert same
    assert unknown == "AttributeError"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_more_threads_than_one_thread_numpy():
    count = "import os\nprint(len(os.listdir('/proc/self/task')))\n"
    with_cli = fresh_python("import monotrack.cli\n" + count)
    one_thread_numpy = fresh_python("import numpy\n" + count, OPENBLAS_NUM_THREADS="1")
    assert with_cli == one_thread_numpy
