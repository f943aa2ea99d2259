"""Write one benchmark input sequence in MOT layout, reproducibly from a seed.

    python3 perfbench/gen.py --seed S --tracks N --frames K --out DIR

Run from the repository root.  Creates ``DIR/<name>/`` with
``seqinfo.ini``, ``gt/gt.txt`` and ``det/det.txt``, and ``DIR/manifest.json``
with the per-track seeds that were finally used and the numerical
environment (Python, numpy, BLAS and its thread settings).

Truth comes from the test suite's generator (``synthetic_truth`` and
``truth_boxes`` in ``tests/conftest.py``), so the benchmark tracks what the
tests treat as a realistic pedestrian.  That generator always starts at
one fixed state; each track here shifts the whole walk by its own
ground-plane offset in x and depth.  A shift of position with zero
velocity is a fixed point of the constant-velocity transition, so the
shifted walk is still an exact draw of the 3D motion model.

A walk whose depth leaves [MIN_DEPTH_M, MAX_DEPTH_M] is redrawn with the
next seed of its track: some 300-frame walks pass behind the camera, and
far targets get boxes so small that the detector noise breaks IoU
association.  Detections are the boxes plus one draw of the detector
noise per frame, as in the test suite, with a few dropped stretches per
track.  The first frames always keep their detection, so every filter
starts at the track's first frame.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from monotrack.dataio import BoundingBox, MotRow, to_top_left, write_mot_file  # noqa: E402
from monotrack.filters import sqrt_psd  # noqa: E402
from monotrack.models import build_model_2d  # noqa: E402

SEQ_NAME = "BENCH-01"
MIN_DEPTH_M = 3.0
MAX_DEPTH_M = 20.0
MAX_REDRAWS = 1000
# Ground-plane offsets of a track's start: x spread, depth range (m).
X_SPREAD_M = 3.0
DEPTH_OFFSET_M = (-3.0, 3.0)
# Dropped stretches: count per started 300 frames, length range, and
# the leading frames that always keep their detection.
STRETCHES_PER_300 = 2
STRETCH_LEN = (8, 20)
KEEP_LEADING = 10


def _load_conftest():
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _track_seed(seed: int, track: int, attempt: int) -> int:
    return int(np.random.SeedSequence([seed, track, attempt]).generate_state(1)[0])


def draw_track(conftest, seed: int, index: int, n_tracks: int, n_frames: int):
    """Seed, redraw count and boxes of one track whose depth fits."""
    for attempt in range(MAX_REDRAWS):
        track_seed = _track_seed(seed, index, attempt)
        rng = np.random.default_rng(track_seed)
        states = conftest.synthetic_truth(track_seed, n_frames)
        if n_tracks > 1:
            lane = -X_SPREAD_M + 2 * X_SPREAD_M * index / (n_tracks - 1)
            states[:, 0] += lane + rng.uniform(-0.25, 0.25)
            states[:, 4] += rng.uniform(*DEPTH_OFFSET_M)
        depth = states[:, 4]
        if depth.min() >= MIN_DEPTH_M and depth.max() <= MAX_DEPTH_M:
            return track_seed, attempt, conftest.truth_boxes(states)
    raise SystemExit(f"track {index}: no walk within depth bounds in {MAX_REDRAWS} draws")


def dropped_stretches(rng: np.random.Generator, n_frames: int) -> list[tuple[int, int]]:
    """Half-open frame-index ranges without a detection."""
    count = STRETCHES_PER_300 * -(-n_frames // 300)
    bounds = np.linspace(KEEP_LEADING, n_frames, count + 1).astype(int)
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        length = int(rng.integers(STRETCH_LEN[0], STRETCH_LEN[1] + 1))
        start = int(rng.integers(lo, max(lo + 1, hi - length)))
        out.append((start, min(start + length, n_frames)))
    return out


def numeric_environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        name: os.environ.get(name, "unset")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tracks", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    conftest = _load_conftest()
    image_size, frame_rate = conftest.IMAGE_SIZE, conftest.FRAME_RATE
    noise_root = sqrt_psd(build_model_2d(1.0 / frame_rate, float(min(image_size))).R)

    gt_rows: list[MotRow] = []
    det_by_frame: dict[int, list[MotRow]] = {}
    tracks = []
    for index in range(args.tracks):
        track_seed, redraws, boxes = draw_track(
            conftest, args.seed, index, args.tracks, args.frames
        )
        rng = np.random.default_rng([track_seed, 1])
        stretches = dropped_stretches(rng, args.frames)
        dropped = {k for lo, hi in stretches for k in range(lo, hi)}
        object_id = index + 1
        for k, box in enumerate(boxes):
            frame = k + 1
            left, top, width, height = to_top_left(BoundingBox(*box))
            gt_rows.append(MotRow(frame, object_id, left, top, width, height, 1.0, 1, 1.0))
            noisy = box + noise_root @ rng.standard_normal(4)
            if k in dropped:
                continue
            left, top, width, height = to_top_left(BoundingBox(*noisy))
            det_by_frame.setdefault(frame, []).append(
                MotRow(frame, -1, left, top, width, height, 1.0)
            )
        tracks.append(
            {
                "id": object_id,
                "seed": track_seed,
                "redraws": redraws,
                "frames": args.frames,
                "dropped": stretches,
            }
        )

    seq_dir = args.out / SEQ_NAME
    (seq_dir / "gt").mkdir(parents=True, exist_ok=True)
    (seq_dir / "det").mkdir(parents=True, exist_ok=True)
    (seq_dir / "seqinfo.ini").write_text(
        "[Sequence]\n"
        f"name={SEQ_NAME}\n"
        f"imWidth={image_size[0]}\n"
        f"imHeight={image_size[1]}\n"
        f"frameRate={frame_rate:g}\n",
        encoding="utf-8",
    )
    gt_rows.sort(key=lambda row: (row.frame, row.track_id))
    write_mot_file(seq_dir / "gt" / "gt.txt", gt_rows, "annotation")
    det_rows = [row for frame in sorted(det_by_frame) for row in det_by_frame[frame]]
    write_mot_file(seq_dir / "det" / "det.txt", det_rows, "detection")
    manifest = {
        "sequence": SEQ_NAME,
        "seed": args.seed,
        "tracks": tracks,
        "detections": len(det_rows),
        "environment": numeric_environment(),
    }
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
