"""Reading, writing and pairing of MOT-format tracking data.

Files are plain CSV with one object per row:

    frame, id, bb_left, bb_top, bb_width, bb_height, conf[, class, visibility]

Frames and ids are integers (detections carry id -1), the box fields are
pixels with the origin at the top-left image corner.  Internally every
box becomes a ``BoundingBox`` anchored at its bottom-center, the point
where a pedestrian meets the ground.

Serialization uses the shortest decimal that round-trips each float, so
a file written by this package parses back to identical records and
re-serializes byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .camera import CameraIntrinsics, backproject
from .exceptions import EmptyTrack, NonPositiveHeight, ParseError


class BoundingBox(NamedTuple):
    """Axis-aligned box: bottom-center position, width, height (px)."""

    x: float
    y: float
    w: float
    h: float

    def as_vector(self) -> np.ndarray:
        return np.array(self, dtype=float)


@dataclass(frozen=True)
class MotRow:
    """One parsed file row; class and visibility only where the file has them."""

    frame: int
    track_id: int
    left: float
    top: float
    width: float
    height: float
    conf: float
    cls: int | None = None
    visibility: float | None = None


@dataclass
class TrackSequence:
    """One object's annotations, with optional paired detections.

    ``frames`` are re-based so the track starts at k = 0; gaps are
    allowed and show up as larger steps between consecutive entries.
    ``first_frame`` keeps the original frame number of k = 0.
    """

    object_id: int
    frames: list[int]
    annotations: list[BoundingBox]
    detections: list[BoundingBox | None] = field(default_factory=list)
    first_frame: int = 0

    def __post_init__(self) -> None:
        if not self.frames:
            raise EmptyTrack(f"track {self.object_id} has no frames")
        if any(b >= a for a, b in zip(self.frames[1:], self.frames)):
            raise ValueError(f"track {self.object_id} frames are not increasing")
        if not self.detections:
            self.detections = [None] * len(self.frames)
        if len(self.annotations) != len(self.frames) or len(self.detections) != len(
            self.frames
        ):
            raise ValueError(
                f"track {self.object_id} per-frame lists do not match its frames"
            )

    def __len__(self) -> int:
        return len(self.frames)


def to_bottom_center(
    left: float, top: float, width: float, height: float
) -> BoundingBox:
    """Convert a top-left anchored box to bottom-center form."""
    return BoundingBox(left + width / 2.0, top + height, width, height)


def to_top_left(box: BoundingBox) -> tuple[float, float, float, float]:
    """Convert a bottom-center box back to (left, top, width, height)."""
    return (box.x - box.w / 2.0, box.y - box.h, box.w, box.h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when either is degenerate."""
    area_a = a.w * a.h
    area_b = b.w * b.h
    if area_a <= 0 or area_b <= 0:
        return 0.0
    overlap_x = min(a.x + a.w / 2.0, b.x + b.w / 2.0) - max(
        a.x - a.w / 2.0, b.x - b.w / 2.0
    )
    overlap_y = min(a.y, b.y) - max(a.y - a.h, b.y - b.h)
    if overlap_x <= 0 or overlap_y <= 0:
        return 0.0
    inter = overlap_x * overlap_y
    return inter / (area_a + area_b - inter)


def format_float(value: float) -> str:
    """Shortest positional decimal that parses back to the same float.

    ``repr`` already gives the shortest round-trip digits; only its
    exponent forms (magnitudes below 1e-4 or from 1e16 on) and inf/nan
    go through numpy's positional formatter, which gives the same digits.
    """
    value = float(value)
    text = repr(value)
    if "e" in text or "n" in text:
        return np.format_float_positional(value, unique=True, trim="-")
    return text[:-2] if text.endswith(".0") else text


def format_floats(values: Sequence[float]) -> str:
    """``format_float`` of each value, joined by commas.

    Formats the row with one ``repr`` join: while no field takes an
    exponent form, a field's ".0" ending is the only difference from
    ``format_float``.
    """
    line = ",".join(map(repr, values))
    if "e" in line or "n" in line:
        return ",".join(map(format_float, values))
    return (line + ",").replace(".0,", ",")[:-1]


def text_lines(handle: TextIO, path: str | Path) -> Iterator[str]:
    """The lines of a file opened as UTF-8 text; a byte that is not UTF-8
    raises ``ParseError`` naming the file."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        message = f"not UTF-8 text: byte {byte:#04x}, {exc.reason}"
        raise ParseError(None, message, path) from exc


def parse_mot_file(path: str | Path, kind: str = "annotation") -> list[MotRow]:
    """Parse a MOT CSV file into rows.

    ``kind`` is "annotation" (class and visibility read when present) or
    "detection" (trailing placeholder fields ignored).  Blank lines are
    skipped; any other malformed line, a non-finite number included,
    raises ``ParseError`` with the file and its line number, and text
    that is not UTF-8 raises it with the file.
    """
    if kind not in ("annotation", "detection"):
        raise ValueError(f"unknown file kind {kind!r}")
    rows: list[MotRow] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(text_lines(handle, path), start=1):
            text = line.strip()
            if not text:
                continue
            fields = [f.strip() for f in text.split(",")]
            if len(fields) < 7:
                raise ParseError(
                    lineno, f"expected at least 7 fields, got {len(fields)}", path
                )
            try:
                frame = int(fields[0])
                track_id = int(fields[1])
                # Box and confidence; an annotation's class and visibility.
                numbers = [float(f) for f in fields[2 : 9 if kind == "annotation" else 7]]
            except ValueError as exc:
                raise ParseError(lineno, str(exc), path) from exc
            for raw, value in zip(fields[2:], numbers):
                if not math.isfinite(value):
                    raise ParseError(lineno, f"not a finite number: {raw!r}", path)
            left, top, width, height, conf = numbers[:5]
            cls = int(numbers[5]) if len(numbers) > 5 else None
            visibility = numbers[6] if len(numbers) > 6 else None
            rows.append(
                MotRow(frame, track_id, left, top, width, height, conf, cls, visibility)
            )
    return rows


def write_mot_file(path: str | Path, rows: Iterable[MotRow], kind: str = "annotation") -> None:
    """Serialize rows in the canonical format of :func:`parse_mot_file`."""
    if kind not in ("annotation", "detection"):
        raise ValueError(f"unknown file kind {kind!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            fields = [
                str(row.frame),
                str(row.track_id),
                format_float(row.left),
                format_float(row.top),
                format_float(row.width),
                format_float(row.height),
                format_float(row.conf),
            ]
            if kind == "annotation":
                if row.cls is not None:
                    fields.append(str(row.cls))
                    if row.visibility is not None:
                        fields.append(format_float(row.visibility))
            handle.write(",".join(fields) + "\n")


def detection_rows(
    boxes: Sequence[tuple[int, BoundingBox]], conf: float = 1.0
) -> list[MotRow]:
    """Detection rows (id -1, top-left form) from (frame, box) pairs."""
    rows = []
    for frame, box in boxes:
        left, top, width, height = to_top_left(box)
        rows.append(MotRow(frame, -1, left, top, width, height, conf))
    return rows


def build_tracks(
    rows: Sequence[MotRow],
    class_ids: frozenset[int] | set[int] = frozenset({1}),
    min_visibility: float = 0.0,
) -> dict[int, TrackSequence]:
    """Group annotation rows into per-object tracks.

    Rows flagged inactive (conf 0), of a class outside ``class_ids``, or
    with visibility at or below ``min_visibility`` are dropped.  Frames
    are re-based to k = 0 per track.  A track that repeats a frame or has
    a box of non-positive extent raises ``ParseError``.
    """
    kept: dict[int, list[MotRow]] = {}
    for row in rows:
        if row.conf == 0:
            continue
        if row.cls is not None and row.cls not in class_ids:
            continue
        if row.visibility is not None and row.visibility <= min_visibility:
            continue
        kept.setdefault(row.track_id, []).append(row)
    tracks: dict[int, TrackSequence] = {}
    for object_id in sorted(kept):
        group = sorted(kept[object_id], key=lambda r: r.frame)
        frames = [r.frame for r in group]
        if len(set(frames)) != len(frames):
            raise ParseError(None, f"track {object_id} has duplicate frames")
        boxes = [to_bottom_center(r.left, r.top, r.width, r.height) for r in group]
        if any(b.w <= 0 or b.h <= 0 for b in boxes):
            raise ParseError(None, f"track {object_id} has a degenerate annotation box")
        first = frames[0]
        tracks[object_id] = TrackSequence(
            object_id=object_id,
            frames=[f - first for f in frames],
            annotations=boxes,
            first_frame=first,
        )
    return tracks


def detections_by_frame(rows: Sequence[MotRow]) -> dict[int, list[BoundingBox]]:
    """Detection boxes grouped by frame, in file order."""
    grouped: dict[int, list[BoundingBox]] = {}
    for row in rows:
        grouped.setdefault(row.frame, []).append(
            to_bottom_center(row.left, row.top, row.width, row.height)
        )
    return grouped


def associate_greedy_iou(
    annotations: Mapping[int, Sequence[tuple[int, BoundingBox]]],
    detections: Mapping[int, Sequence[BoundingBox]],
    iou_threshold: float = 0.5,
) -> dict[int, dict[int, BoundingBox]]:
    """Greedy one-to-one pairing of detections to annotations per frame.

    Pairs are claimed in decreasing IoU order; pairs below the threshold
    stay unmatched.  Ties break on object id then detection order, so the
    result does not depend on dict iteration order.
    """
    matches: dict[int, dict[int, BoundingBox]] = {}
    for frame, annos in annotations.items():
        dets = detections.get(frame, ())
        if not dets:
            continue
        candidates = []
        for object_id, anno in annos:
            for det_index, det in enumerate(dets):
                overlap = iou(anno, det)
                if overlap >= iou_threshold:
                    candidates.append((-overlap, object_id, det_index))
        candidates.sort()
        used_objects: set[int] = set()
        used_dets: set[int] = set()
        frame_matches: dict[int, BoundingBox] = {}
        for _, object_id, det_index in candidates:
            if object_id in used_objects or det_index in used_dets:
                continue
            used_objects.add(object_id)
            used_dets.add(det_index)
            frame_matches[object_id] = dets[det_index]
        if frame_matches:
            matches[frame] = frame_matches
    return matches


def attach_detections(
    tracks: Mapping[int, TrackSequence],
    det_rows: Sequence[MotRow],
    iou_threshold: float = 0.5,
) -> None:
    """Fill each track's per-frame detections from a detection file.

    All tracks compete for detections in the same greedy association, so
    a detection claimed by one object is unavailable to the rest.
    """
    annotations: dict[int, list[tuple[int, BoundingBox]]] = {}
    for track in tracks.values():
        for k, box in zip(track.frames, track.annotations):
            annotations.setdefault(track.first_frame + k, []).append(
                (track.object_id, box)
            )
    matches = associate_greedy_iou(
        annotations, detections_by_frame(det_rows), iou_threshold
    )
    for track in tracks.values():
        track.detections = [
            matches.get(track.first_frame + k, {}).get(track.object_id)
            for k in track.frames
        ]


def semi_annotate_3d(
    boxes: Sequence[BoundingBox], cam: CameraIntrinsics, guessed_height_m: float
) -> np.ndarray:
    """Camera-frame pseudo-truth for boxes, assuming the body height.

    Returns one row [x, y, z, w, h] per box: the bottom-center position
    in meters, backprojected so the guessed height spans the observed
    pixel height, the width scaled alike, and h the guessed height
    itself.  Projecting a row back reproduces its box exactly.
    """
    if not guessed_height_m > 0:
        raise NonPositiveHeight(
            f"guessed height must be positive, got {guessed_height_m}"
        )
    u, v, w, h = np.array(boxes, dtype=float).reshape(-1, 4).T
    cu, cv = cam.principal_point_px
    x, y, z = backproject(cam, u - cu, v - cv, h, guessed_height_m)
    # The same scale as backproject's, so w / h keeps the box's aspect.
    width = guessed_height_m / h * w
    return np.stack([x, y, z, width, np.full_like(h, guessed_height_m)], axis=1)
