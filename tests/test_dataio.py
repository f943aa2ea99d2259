"""Data-IO tests: parsing, canonical serialization, box geometry,
track assembly, greedy association, and the box-to-camera-frame
pseudo-truth with its exact projective inverse.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from monotrack.camera import CameraIntrinsics
from monotrack.dataio import (
    BoundingBox,
    MotRow,
    TrackSequence,
    associate_greedy_iou,
    attach_detections,
    build_tracks,
    detection_rows,
    detections_by_frame,
    format_float,
    format_floats,
    iou,
    parse_mot_file,
    semi_annotate_3d,
    to_bottom_center,
    to_top_left,
    write_mot_file,
)
from monotrack.exceptions import EmptyTrack, NonPositiveHeight, ParseError

CAM = CameraIntrinsics()


# ------------------------------------------------------------------ parsing


def test_parse_annotation_row(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("1,2,912,484,97,109,1,1,1\n")
    rows = parse_mot_file(path, "annotation")
    assert rows == [MotRow(1, 2, 912.0, 484.0, 97.0, 109.0, 1.0, 1, 1.0)]


def test_parse_detection_row_ignores_placeholders(tmp_path):
    path = tmp_path / "det.txt"
    path.write_text("1,-1,912.3,484.7,97,109,0.87,-1,-1,-1\n")
    rows = parse_mot_file(path, "detection")
    assert rows == [MotRow(1, -1, 912.3, 484.7, 97.0, 109.0, 0.87, None, None)]


def test_parse_short_annotation_has_optional_fields_none(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("3,4,10,20,30,40,1\n")
    (row,) = parse_mot_file(path, "annotation")
    assert row.cls is None and row.visibility is None


def test_parse_skips_blank_lines(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("\n1,1,1,1,1,1,1\n\n")
    assert len(parse_mot_file(path)) == 1


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("1,1,1,1,1,1,1\n2,2,3\n")
    with pytest.raises(ParseError) as info:
        parse_mot_file(path)
    assert info.value.line_number == 2

    path.write_text("1,1,abc,1,1,1,1\n")
    with pytest.raises(ParseError) as info:
        parse_mot_file(path)
    assert info.value.line_number == 1

    # Non-finite numbers parse as floats, so they are rejected by name.
    for kind, row in [
        ("annotation", "1,1,1,1,nan,1,1"),
        ("annotation", "1,1,1,1,1,1,1,inf"),
        ("annotation", "1,1,1,1,1,1,1,1,-inf"),
        ("detection", "1,-1,1,1,1,inf,1"),
        ("detection", "1,-1,1,1,1,1,nan"),
    ]:
        path.write_text(f"1,1,1,1,1,1,1\n{row}\n")
        with pytest.raises(ParseError, match="not a finite number") as info:
            parse_mot_file(path, kind)
        assert info.value.line_number == 2


def test_parse_rejects_unknown_kind(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        parse_mot_file(path, "boxes")


# ------------------------------------------------------------ serialization


def test_format_float_is_shortest_round_trip():
    for value in (0.5, 1.0, 97.0, 484.7, 1.0 / 3.0, 1e-9):
        assert float(format_float(value)) == value
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"


def _positional(value: float) -> str:
    return np.format_float_positional(value, unique=True, trim="-")


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1e16)
@example(9999999999999998.0)
@example(1.7976931348623157e308)
@example(1e-4)
@example(9.999999999999999e-05)
@example(-123.0)
def test_format_float_matches_numpy_positional(value):
    assert format_float(value) == _positional(value)
    assert format_float(np.float64(value)) == _positional(value)


@given(st.lists(st.floats(), max_size=12))
def test_format_floats_joins_format_float(values):
    assert format_floats(values) == ",".join(_positional(v) for v in values)


def test_format_floats_handles_numpy_scalars():
    values = [np.float64(1.0), np.float64(0.25), -0.0, 1e20]
    assert format_floats(values) == "1,0.25,-0,100000000000000000000"


def test_write_parse_round_trip_is_byte_stable(tmp_path):
    rows = [
        MotRow(1, 2, 912.0, 484.7, 97.0, 109.0, 1.0, 1, 0.75),
        MotRow(2, 2, 913.1, 485.0, 97.0, 109.0, 1.0, 1, 1.0),
    ]
    first = tmp_path / "a.txt"
    write_mot_file(first, rows, "annotation")
    parsed = parse_mot_file(first, "annotation")
    assert parsed == rows
    second = tmp_path / "b.txt"
    write_mot_file(second, parsed, "annotation")
    assert first.read_bytes() == second.read_bytes()


def test_write_detection_kind_drops_annotation_fields(tmp_path):
    path = tmp_path / "det.txt"
    write_mot_file(path, [MotRow(1, -1, 1.0, 2.0, 3.0, 4.0, 0.9, 1, 1.0)], "detection")
    assert path.read_text() == "1,-1,1,2,3,4,0.9\n"


def test_detection_rows_use_top_left_form():
    (row,) = detection_rows([(5, BoundingBox(960.5, 593.0, 97.0, 109.0))], conf=0.9)
    assert row == MotRow(5, -1, 912.0, 484.0, 97.0, 109.0, 0.9)


# ----------------------------------------------------------------- geometry


def test_bottom_center_conversion():
    box = to_bottom_center(912.0, 484.0, 97.0, 109.0)
    assert box == BoundingBox(960.5, 593.0, 97.0, 109.0)
    assert to_top_left(box) == (912.0, 484.0, 97.0, 109.0)


def test_conversion_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        left, top = rng.uniform(0, 1800, 2)
        w, h = rng.uniform(1, 300, 2)
        box = to_bottom_center(left, top, w, h)
        assert to_top_left(box) == pytest.approx((left, top, w, h), rel=1e-12)


def test_iou_identical_and_disjoint():
    a = BoundingBox(10.0, 10.0, 4.0, 4.0)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox(100.0, 100.0, 4.0, 4.0)) == 0.0


def test_iou_hand_value():
    a = BoundingBox(1.0, 1.0, 2.0, 1.0)
    b = BoundingBox(2.0, 1.0, 2.0, 1.0)
    assert iou(a, b) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_iou_degenerate_is_zero():
    a = BoundingBox(0.0, 0.0, 0.0, 5.0)
    assert iou(a, BoundingBox(0.0, 0.0, 4.0, 4.0)) == 0.0


def test_iou_is_symmetric_and_bounded():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = BoundingBox(*rng.uniform(1, 50, 2), *rng.uniform(1, 20, 2))
        b = BoundingBox(*rng.uniform(1, 50, 2), *rng.uniform(1, 20, 2))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


# ------------------------------------------------------------------- tracks


GT_ROWS = [
    MotRow(4, 7, 10.0, 20.0, 30.0, 60.0, 1.0, 1, 1.0),
    MotRow(5, 7, 12.0, 21.0, 30.0, 60.0, 1.0, 1, 1.0),
    MotRow(7, 7, 16.0, 23.0, 30.0, 60.0, 1.0, 1, 1.0),
    MotRow(4, 9, 500.0, 400.0, 40.0, 80.0, 1.0, 1, 0.9),
]


def test_build_tracks_rebases_and_keeps_gaps():
    tracks = build_tracks(GT_ROWS)
    assert sorted(tracks) == [7, 9]
    t7 = tracks[7]
    assert t7.frames == [0, 1, 3] and t7.first_frame == 4
    assert t7.annotations[0] == BoundingBox(25.0, 80.0, 30.0, 60.0)
    assert t7.detections == [None, None, None]
    assert len(t7) == 3


def test_build_tracks_filters_rows():
    rows = GT_ROWS + [
        MotRow(6, 7, 1.0, 1.0, 5.0, 5.0, 0.0, 1, 1.0),  # inactive
        MotRow(6, 11, 1.0, 1.0, 5.0, 5.0, 1.0, 3, 1.0),  # wrong class
        MotRow(6, 12, 1.0, 1.0, 5.0, 5.0, 1.0, 1, 0.0),  # invisible
    ]
    tracks = build_tracks(rows)
    assert sorted(tracks) == [7, 9]
    assert tracks[7].frames == [0, 1, 3]


def test_build_tracks_visibility_threshold():
    tracks = build_tracks(GT_ROWS, min_visibility=0.95)
    assert sorted(tracks) == [7]


def test_build_tracks_rejects_duplicates_and_degenerate_boxes():
    with pytest.raises(ParseError, match="^track 7 has duplicate frames$"):
        build_tracks(GT_ROWS + [GT_ROWS[0]])
    bad = [MotRow(1, 1, 0.0, 0.0, 0.0, 10.0, 1.0, 1, 1.0)]
    with pytest.raises(ParseError, match="degenerate annotation box"):
        build_tracks(bad)


def test_track_sequence_validation():
    box = BoundingBox(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(EmptyTrack):
        TrackSequence(1, [], [])
    with pytest.raises(ValueError):
        TrackSequence(1, [0, 0], [box, box])
    with pytest.raises(ValueError):
        TrackSequence(1, [0, 1], [box])


# -------------------------------------------------------------- association


def test_detections_by_frame_groups_in_order():
    rows = [
        MotRow(1, -1, 0.0, 0.0, 2.0, 2.0, 1.0),
        MotRow(2, -1, 5.0, 5.0, 2.0, 2.0, 1.0),
        MotRow(1, -1, 9.0, 9.0, 2.0, 2.0, 1.0),
    ]
    grouped = detections_by_frame(rows)
    assert sorted(grouped) == [1, 2]
    assert grouped[1][0].x == 1.0 and grouped[1][1].x == 10.0


def test_greedy_association_prefers_higher_iou():
    anno = BoundingBox(10.0, 10.0, 4.0, 4.0)
    close = BoundingBox(10.1, 10.1, 4.0, 4.0)
    far = BoundingBox(11.0, 11.0, 4.0, 4.0)
    matches = associate_greedy_iou({0: [(1, anno)]}, {0: [far, close]})
    assert matches[0][1] == close


def test_greedy_association_is_one_to_one():
    anno_a = BoundingBox(10.0, 10.0, 4.0, 4.0)
    anno_b = BoundingBox(10.5, 10.0, 4.0, 4.0)
    det = BoundingBox(10.0, 10.0, 4.0, 4.0)
    matches = associate_greedy_iou({0: [(1, anno_a), (2, anno_b)]}, {0: [det]})
    # The exact-overlap pair wins; the other annotation goes unmatched.
    assert matches[0] == {1: det}


def test_greedy_association_threshold_and_order_independence():
    anno = BoundingBox(10.0, 10.0, 4.0, 4.0)
    weak = BoundingBox(13.0, 13.0, 4.0, 4.0)
    assert not associate_greedy_iou({0: [(1, anno)]}, {0: [weak]})
    # Equal-IoU tie: the smaller object id claims the detection, however
    # the annotation map was ordered.
    det = BoundingBox(10.0, 10.0, 4.0, 4.0)
    forward = associate_greedy_iou({0: [(1, det), (2, det)]}, {0: [det]})
    backward = associate_greedy_iou({0: [(2, det), (1, det)]}, {0: [det]})
    assert forward == backward == {0: {1: det}}


def test_attach_detections_end_to_end():
    tracks = build_tracks(GT_ROWS)
    det_rows = [
        MotRow(4, -1, 11.0, 21.0, 30.0, 60.0, 0.9),  # near track 7 frame 4
        MotRow(4, -1, 499.0, 401.0, 40.0, 80.0, 0.8),  # near track 9 frame 4
        MotRow(5, -1, 700.0, 700.0, 30.0, 60.0, 0.9),  # matches nothing
    ]
    attach_detections(tracks, det_rows)
    assert tracks[7].detections[0] == to_bottom_center(11.0, 21.0, 30.0, 60.0)
    assert tracks[7].detections[1] is None and tracks[7].detections[2] is None
    assert tracks[9].detections[0] == to_bottom_center(499.0, 401.0, 40.0, 80.0)


def test_attach_detections_tracks_compete():
    box = BoundingBox(100.0, 100.0, 10.0, 20.0)
    shifted = BoundingBox(101.0, 100.0, 10.0, 20.0)
    tracks = {
        1: TrackSequence(1, [0], [box]),
        2: TrackSequence(2, [0], [shifted]),
    }
    det_rows = detection_rows([(0, box)])
    attach_detections(tracks, det_rows)
    assert tracks[1].detections[0] == box
    assert tracks[2].detections[0] is None


# ------------------------------------------------------------- pseudo-truth


def test_semi_annotation_reference_values():
    semi = semi_annotate_3d([BoundingBox(960.0, 540.0, 100.0, 165.0)], CAM, 1.65)
    assert semi.shape == (1, 5)
    assert semi[0] == pytest.approx((0.0, 0.0, 10.0, 1.0, 1.65), rel=1e-12)


def test_semi_annotation_off_center():
    x, y, _, w, _ = semi_annotate_3d(
        [BoundingBox(1060.0, 640.0, 82.5, 165.0)], CAM, 1.65
    )[0]
    assert x == pytest.approx(1.0, rel=1e-12)
    assert y == pytest.approx(1.0, rel=1e-12)
    assert w == pytest.approx(0.825, rel=1e-12)


def test_semi_annotation_projects_back_exactly():
    from monotrack.models import build_model_3d, project_state

    model = build_model_3d(1.0 / 30.0, CAM, 1080.0)
    rng = np.random.default_rng(17)
    boxes = [
        BoundingBox(
            rng.uniform(100, 1800),
            rng.uniform(300, 1000),
            rng.uniform(20, 200),
            rng.uniform(40, 400),
        )
        for _ in range(100)
    ]
    states = np.zeros((8, len(boxes)))
    states[[0, 2, 4, 6, 7]] = semi_annotate_3d(boxes, CAM, 1.65).T
    projected = project_state(model, states)[[0, 2, 4, 6]].T
    for box, image in zip(boxes, projected):
        assert image == pytest.approx(box.as_vector(), rel=1e-12, abs=1e-9)


def test_semi_annotation_rejects_bad_heights():
    box = BoundingBox(0.0, 0.0, 10.0, 20.0)
    with pytest.raises(NonPositiveHeight):
        semi_annotate_3d([box], CAM, 0.0)
    with pytest.raises(NonPositiveHeight):
        semi_annotate_3d([box, BoundingBox(0.0, 0.0, 10.0, 0.0)], CAM, 1.65)
