"""Command-line tests driven through ``main(argv)``: each subcommand's
happy path, the exit-code contract (0 success, 2 partial filter
failures, 1 usage, configuration or IO errors), option precedence, and
byte-level determinism of a repeated run.
"""

from __future__ import annotations

import csv
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from monotrack import pipeline
from monotrack.cli import _KEY_FLAGS, _build_parser, _config_from_args, main
from monotrack.config import RunConfig
from monotrack.dataio import (
    BoundingBox,
    MotRow,
    parse_mot_file,
    to_top_left,
    write_mot_file,
)
from monotrack.exceptions import ConfigError
from monotrack.filters import GaussianEstimate

from conftest import DROPPED_FRAMES, N_FRAMES


def seq_args(synthetic_sequence, out: Path) -> list[str]:
    return ["--seq", str(synthetic_sequence.seq_dir), "--out", str(out)]


def read_summary(path: Path) -> dict[tuple[str, str], dict[str, str]]:
    with open(path, newline="") as handle:
        return {
            (row["filter"], row["space"]): row for row in csv.DictReader(handle)
        }


# ------------------------------------------------------------------ inspect


def test_inspect_reports_track(synthetic_sequence, tmp_path, capsys):
    assert main(["inspect"] + seq_args(synthetic_sequence, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "SYN-01: 1 track(s), image 1920x1080, 30.0 fps" in out
    assert "id 1: 90 frames [1..90], 0 gap frame(s), 79 detection(s)" in out


def test_inspect_median_height_averages_the_middle_pair(tmp_path, capsys):
    rows = [
        MotRow(k + 1, 1, *to_top_left(BoundingBox(900.0, 600.0, 40.0, h)), 1.0, 1, 1.0)
        for k, h in enumerate((100.0, 102.0))
    ]
    write_mot_file(tmp_path / "gt.txt", rows, "annotation")
    assert main(["inspect", "--gt", str(tmp_path / "gt.txt"), "--name", "PAIR"]) == 0
    assert "id 1: 2 frames [1..2], 0 gap frame(s), 0 detection(s), median height 101 px" in (
        capsys.readouterr().out
    )


def test_inspect_missing_annotations_fails(tmp_path, capsys):
    assert main(["inspect", "--gt", str(tmp_path / "no.txt")]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------- run


def test_run_real_detections(synthetic_sequence, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run"] + seq_args(synthetic_sequence, out)) == 0
    text = capsys.readouterr().out
    assert "SYN-01 id1 ukf3d bb:" in text
    assert "wrote outputs for 1 track(s)" in text
    summary = read_summary(out / "SYN-01_id1_summary.csv")
    assert set(summary) == {
        ("kf2d", "bb"), ("bot", "bb"), ("ukf3d", "bb"), ("ukf3d", "3d")
    }
    assert summary[("ukf3d", "bb")]["n_trials"] == "1"


def test_run_simulated_trials(synthetic_sequence, tmp_path, capsys):
    out = tmp_path / "results"
    args = ["run"] + seq_args(synthetic_sequence, out)
    args += ["--trials", "5", "--seed", "3", "--filter", "ukf3d"]
    assert main(args) == 0
    summary = read_summary(out / "SYN-01_id1_summary.csv")
    assert set(summary) == {("ukf3d", "bb"), ("ukf3d", "3d")}
    assert summary[("ukf3d", "bb")]["n_trials"] == "5"
    anees = float(summary[("ukf3d", "bb")]["median_anees"])
    assert 0.5 < anees < 1.5


def test_run_without_detections_or_trials_fails(synthetic_sequence, tmp_path, capsys):
    args = ["run", "--gt", str(synthetic_sequence.gt_path), "--out", str(tmp_path)]
    assert main(args) == 1
    assert "detection" in capsys.readouterr().err


def test_run_partial_failure_exits_two(tmp_path, capsys):
    # Boxes far too small for the 3D initialization: the run finishes,
    # writes what it can, and signals the stopped filter via exit code.
    gt_rows, det_rows = [], []
    for k in range(4):
        box = BoundingBox(900.0 + k, 600.0, 6.0, 12.0)
        left, top, width, height = to_top_left(box)
        gt_rows.append(MotRow(k + 1, 1, left, top, width, height, 1.0, 1, 1.0))
        det_rows.append(MotRow(k + 1, -1, left, top, width, height, 1.0))
    write_mot_file(tmp_path / "gt.txt", gt_rows, "annotation")
    write_mot_file(tmp_path / "det.txt", det_rows, "detection")
    out = tmp_path / "results"
    args = [
        "run", "--gt", str(tmp_path / "gt.txt"), "--det", str(tmp_path / "det.txt"),
        "--name", "TINY", "--out", str(out), "--filter", "ukf3d",
    ]
    assert main(args) == 2
    assert "stopped early" in capsys.readouterr().err
    assert (out / "TINY_id1_summary.csv").is_file()


def test_run_tracks_together_writes_each_track_as_alone(tmp_path, capsys):
    # Every track of a real-detection run shares one pass per filter;
    # track 2 starts later with a detection gap, and track 3's boxes stop
    # ukf3d at initialization.
    gt_rows, det_rows = [], []
    for object_id, first, h in ((1, 1, 160.0), (2, 4, 150.0), (3, 2, 12.0)):
        for k in range(6):
            box = BoundingBox(500.0 * object_id + 2.0 * k, 600.0, h / 2, h + k)
            frame = first + k
            gt_rows.append(MotRow(frame, object_id, *to_top_left(box), 1.0, 1, 1.0))
            if not (object_id == 2 and k in (2, 3)):
                det_rows.append(MotRow(frame, -1, *to_top_left(box), 1.0))
    write_mot_file(tmp_path / "gt.txt", gt_rows, "annotation")
    write_mot_file(tmp_path / "det.txt", det_rows, "detection")
    base = ["run", "--gt", str(tmp_path / "gt.txt"), "--det", str(tmp_path / "det.txt")]
    together = tmp_path / "together"
    assert main(base + ["--out", str(together)]) == 2
    assert "1 filter run(s) stopped early" in capsys.readouterr().err
    alone = tmp_path / "alone"
    for object_id in (1, 2, 3):
        expected = 2 if object_id == 3 else 0
        assert main(base + ["--out", str(alone), "--track-id", str(object_id)]) == expected
    capsys.readouterr()
    names = sorted(path.name for path in together.iterdir())
    assert names == sorted(path.name for path in alone.iterdir())
    assert len(names) == 3 * 11
    for name in names:
        assert (together / name).read_bytes() == (alone / name).read_bytes(), name


def test_run_invalid_estimate_exits_two(tmp_path, capsys):
    # Boxes so wide that the baseline's noise overflows: its estimate is
    # invalid, which stops that filter run instead of raising.
    rows = []
    for k in range(4):
        left, top, width, height = to_top_left(BoundingBox(900.0, 600.0, 1e200, 160.0))
        rows.append(MotRow(k + 1, 1, left, top, width, height, 1.0, 1, 1.0))
    write_mot_file(tmp_path / "gt.txt", rows, "annotation")
    write_mot_file(tmp_path / "det.txt", rows, "detection")
    out = tmp_path / "results"
    args = [
        "run", "--gt", str(tmp_path / "gt.txt"), "--det", str(tmp_path / "det.txt"),
        "--name", "WIDE", "--out", str(out), "--filter", "bot",
    ]
    with np.errstate(over="ignore"):
        assert main(args) == 2
    assert "1 filter run(s) stopped early" in capsys.readouterr().err
    assert (out / "WIDE_id1_summary.csv").is_file()


def test_run_rejects_negative_trials(synthetic_sequence, tmp_path, capsys):
    # The sequence has a detection file, so a negative count used to fall
    # back to a real-detection run.
    args = ["run"] + seq_args(synthetic_sequence, tmp_path)
    message = "error: [sim] trials: expected a non-negative integer, got -3\n"
    assert main(args + ["--trials", "-3"]) == 1
    assert capsys.readouterr().err == message
    config = tmp_path / "run.ini"
    config.write_text("[sim]\ntrials = -3\n", encoding="utf-8")
    assert main(args + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == message


def test_run_rejects_unknown_filter(synthetic_sequence, tmp_path, capsys):
    args = ["run"] + seq_args(synthetic_sequence, tmp_path) + ["--filter", "ekf"]
    assert main(args) == 1


def test_run_rejects_bad_image_size(synthetic_sequence, tmp_path):
    args = ["run"] + seq_args(synthetic_sequence, tmp_path)
    assert main(args + ["--image-size", "wide"]) == 1


def test_run_rejects_missing_track_id(synthetic_sequence, tmp_path, capsys):
    args = ["run"] + seq_args(synthetic_sequence, tmp_path) + ["--track-id", "7"]
    assert main(args) == 1
    assert "track ids" in capsys.readouterr().err


def test_usage_errors_exit_1(synthetic_sequence, tmp_path, capsys):
    # argparse's own exit code 2 would read as "a filter run stopped early".
    base = ["run"] + seq_args(synthetic_sequence, tmp_path)
    assert main(base + ["--workers", "2"]) == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert main(base + ["--trials", "abc"]) == 1
    assert "error: [sim] trials: not an integer: 'abc'" in capsys.readouterr().err
    assert main([]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0


def test_repeated_runs_are_byte_identical(synthetic_sequence, tmp_path):
    dirs = (tmp_path / "one", tmp_path / "two")
    for out in dirs:
        args = ["run"] + seq_args(synthetic_sequence, out)
        assert main(args + ["--trials", "3", "--seed", "11"]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# ----------------------------------------------------------------- simulate


def test_simulate_writes_trial_files(synthetic_sequence, tmp_path):
    out = tmp_path / "sims"
    args = ["simulate"] + seq_args(synthetic_sequence, out) + ["--trials", "2"]
    assert main(args) == 0
    files = sorted(out.iterdir())
    assert [p.name for p in files] == [
        "SYN-01_id1_trial000.txt",
        "SYN-01_id1_trial001.txt",
    ]
    rows = parse_mot_file(files[0], "detection")
    # Real-pattern dropout: the frames the detector lost stay lost.
    assert len(rows) == N_FRAMES - len(DROPPED_FRAMES)
    frames = {row.frame for row in rows}
    assert frames.isdisjoint(DROPPED_FRAMES)
    assert all(row.conf == 1.0 and row.track_id == -1 for row in rows)


def test_simulate_dropout_none_keeps_all_frames(synthetic_sequence, tmp_path):
    out = tmp_path / "sims"
    args = ["simulate"] + seq_args(synthetic_sequence, out)
    args += ["--trials", "1", "--dropout", "none"]
    assert main(args) == 0
    rows = parse_mot_file(out / "SYN-01_id1_trial000.txt", "detection")
    assert len(rows) == N_FRAMES


def test_simulate_requires_trials(synthetic_sequence, tmp_path, capsys):
    assert main(["simulate"] + seq_args(synthetic_sequence, tmp_path)) == 1
    assert "--trials" in capsys.readouterr().err


# ----------------------------------------------------------------- evaluate


def read_metric_columns(path: Path) -> list[tuple[str, str, str, str]]:
    with open(path, newline="") as handle:
        return [
            (row["frame"], row["rmse"], row["anees"], row["n_trials"])
            for row in csv.DictReader(handle)
        ]


@pytest.mark.parametrize(
    "extra,code,n_trials",
    [
        ([], 0, {"kf2d": 1, "bot": 1, "ukf3d": 1}),
        (["--trials", "4", "--seed", "3"], 0, {"kf2d": 4, "bot": 4, "ukf3d": 4}),
        # At this image scale two ukf3d trials stop at their first frame,
        # so they write no estimates rows and neither command scores them.
        (
            ["--trials", "8", "--seed", "3", "--gamma", "10000"],
            2,
            {"kf2d": 8, "bot": 8, "ukf3d": 6},
        ),
        # The one real-detection ukf3d lane stops at its first frame: its
        # estimates files hold only their header, and both commands
        # score no trial.
        (["--gamma", "10000"], 2, {"kf2d": 1, "bot": 1, "ukf3d": 0}),
    ],
    ids=["real", "simulated", "stopped", "all-stopped"],
)
def test_evaluate_matches_run_summary(
    synthetic_sequence, tmp_path, capsys, extra, code, n_trials
):
    out = tmp_path / "results"
    assert main(["run"] + seq_args(synthetic_sequence, out) + extra) == code
    summary = read_summary(out / "SYN-01_id1_summary.csv")
    # Each summary line, after its label, keyed by (filter, space).
    run_lines = {
        tuple(label.split()[2:]): stats
        for label, _, stats in (
            line.partition(": ")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("SYN-01 ")
        )
    }

    # Every estimates file of the run, with the (filter, space) it scores.
    for estimates, key in (
        ("kf2d_estimates_2d", ("kf2d", "bb")),
        ("kf2d_estimates_bb", ("kf2d", "bb")),
        ("bot_estimates_bot", ("bot", "bb")),
        ("bot_estimates_bb", ("bot", "bb")),
        ("ukf3d_estimates_3d", ("ukf3d", "3d")),
        ("ukf3d_estimates_bb", ("ukf3d", "bb")),
    ):
        args = ["evaluate"] + seq_args(synthetic_sequence, out)
        args += ["--estimates", str(out / f"SYN-01_id1_{estimates}.csv")]
        assert main(args) == 0
        name, space = key
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"SYN-01_id1_{estimates}.csv {space}: {run_lines[key]}"
        assert run_lines[key].endswith(f" trials={n_trials[name]}")
        columns = read_metric_columns(out / f"SYN-01_id1_{estimates}_metrics.csv")
        assert columns == read_metric_columns(
            out / f"SYN-01_id1_{name}_metrics_{space}.csv"
        )
        if not columns:
            assert summary[key]["median_anees"] == "nan"
            continue
        recomputed = float(np.median([float(row[2]) for row in columns]))
        assert recomputed == pytest.approx(
            float(summary[key]["median_anees"]), rel=1e-12
        )


_BB_COLUMNS = ",".join(
    ["mean_x", "mean_y", "mean_w", "mean_h"]
    + [f"cov_{i}_{j}" for i in range(4) for j in range(i, 4)]
)
_BB_VALUES = "900,600,80,160," + ",".join(
    "1" if i == j else "0" for i in range(4) for j in range(i, 4)
)


@pytest.mark.parametrize(
    "prefix,rows",
    [
        ("trial,k,frame", ["0,0,1"]),
        ("trial,frame,space", ["0,1,bb"]),
        ("trial,k,frame,space", ["0,0,1,3d", "0,1,2,3d"]),
        ("trial,k,frame,space", ["0,0,1,xy"]),
        ("trial,k,frame,space", ["0,0,1,bb", "0,1,2,3d"]),
        (("trial,k,frame,space", _BB_COLUMNS.replace("mean_x", "mean_q")), ["0,0,1,bb"]),
        ("trial,k,frame,space", ["0,0,1,bb", "0,1,2,bb", "1,1,2,bb"]),
        ("trial,k,frame,space", ["0,500,501,bb"]),
        ("trial,k,frame,space", ["0,0,1,bb", ("0,1,2,bb", _BB_VALUES.replace("900", "nan"))]),
        ("trial,k,space", ["0,0,bb"]),
    ],
    ids=[
        "no-space-column",
        "no-k-column",
        "space-width-mismatch",
        "unknown-space",
        "mixed-spaces",
        "unknown-state-names",
        "trial-starts-late",
        "frame-not-in-track",
        "non-finite-value",
        "no-frame-column",
    ],
)
def test_evaluate_rejects_malformed_estimates(
    synthetic_sequence, tmp_path, capsys, prefix, rows
):
    # A header is its leading columns, given state columns or else
    # _BB_COLUMNS; a row is its leading fields, given values or else
    # _BB_VALUES.
    path = tmp_path / "bad_estimates.csv"
    header = (prefix, _BB_COLUMNS) if isinstance(prefix, str) else prefix
    lines = [",".join(header)] + [
        ",".join((row, _BB_VALUES) if isinstance(row, str) else row) for row in rows
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["evaluate"] + seq_args(synthetic_sequence, tmp_path)
    assert main(args + ["--estimates", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_an_invalid_covariance(synthetic_sequence, tmp_path, capsys):
    # Both trials' frame-0 covariances negated: the file is refused as it
    # is read, with one error line naming it, before anything is scored.
    out = tmp_path / "results"
    run = ["run"] + seq_args(synthetic_sequence, out)
    assert main(run + ["--trials", "2", "--seed", "1", "--filter", "kf2d"]) == 0
    path = out / "SYN-01_id1_kf2d_estimates_bb.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows):
        fields = row.split(",")
        if fields[1] == "0":
            fields[8:] = [str(-float(value)) for value in fields[8:]]
            rows[i] = ",".join(fields)
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    args = ["evaluate"] + seq_args(synthetic_sequence, tmp_path / "eval")
    assert main(args + ["--estimates", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: trial 0: covariance is not positive semidefinite\n"
    )
    assert not (tmp_path / "eval").exists()


def slightly_indefinite(cov: np.ndarray) -> np.ndarray:
    """``cov`` with its smallest eigenvalue set to -1e-10 times the rest's
    sum: inside the estimate check's -1e-9 x trace tolerance, yet not
    positive definite."""
    w, v = np.linalg.eigh(cov)
    w[0] = -1e-10 * w[1:].sum()
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("command", ["evaluate", "run"])
def test_negative_normalized_error_exits_1(
    monkeypatch, synthetic_sequence, tmp_path, capsys, command
):
    # Box covariances that pass the estimate check but are indefinite give
    # a negative ANEES: frame 0's in a file that ``evaluate`` reads, or
    # every one a run's patched box step emits.  Each is an input error
    # with one error line, not a traceback.
    out = tmp_path / "results"
    run = ["run"] + seq_args(synthetic_sequence, out)
    run += ["--trials", "2", "--seed", "1", "--filter", "kf2d"]
    if command == "evaluate":
        assert main(run) == 0
        path = out / "SYN-01_id1_kf2d_estimates_bb.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        upper = np.triu_indices(4)
        for i, row in enumerate(rows):
            fields = row.split(",")
            if fields[1] == "0":
                cov = np.zeros((4, 4))
                cov[upper] = cov[upper[::-1]] = [float(value) for value in fields[8:]]
                fields[8:] = map(repr, slightly_indefinite(cov)[upper].tolist())
                rows[i] = ",".join(fields)
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        argv = ["evaluate"] + seq_args(synthetic_sequence, tmp_path / "eval")
        argv += ["--estimates", str(path)]
    else:
        original = pipeline.linear_box_estimate

        def indefinite_box(est):
            box = original(est)
            covs = [slightly_indefinite(cov) for cov in box.cov.reshape(-1, 4, 4)]
            return GaussianEstimate(box.mean, np.reshape(covs, box.cov.shape))

        monkeypatch.setattr(pipeline, "linear_box_estimate", indefinite_box)
        argv = run
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: a reported covariance is not positive definite: "
        "the normalized error squared is negative\n"
    )


@pytest.mark.parametrize("reader", ["annotations", "estimates", "seqinfo", "config"])
def test_non_utf8_input_exits_1(synthetic_sequence, tmp_path, capsys, reader):
    # A 0xff byte in any file a command reads is an input error that
    # names the file, not a traceback.
    seq_dir = tmp_path / "seq"
    shutil.copytree(synthetic_sequence.seq_dir, seq_dir)
    out = tmp_path / "results"
    args = ["inspect", "--seq", str(seq_dir), "--out", str(out)]
    if reader == "annotations":
        path = seq_dir / "gt" / "gt.txt"
    elif reader == "seqinfo":
        path = seq_dir / "seqinfo.ini"
    elif reader == "config":
        path = tmp_path / "run.ini"
        path.write_text("[run]\n", encoding="utf-8")
        args += ["--config", str(path)]
    else:
        assert main(["run"] + args[1:] + ["--filter", "kf2d"]) == 0
        path = out / "SYN-01_id1_kf2d_estimates_bb.csv"
        args = ["evaluate"] + args[1:] + ["--estimates", str(path)]
    # A last line holding a byte that is not UTF-8.
    path.write_bytes(path.read_bytes() + b"; \xff\n")
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "0xff" in err


def test_evaluate_requires_single_track(synthetic_sequence, tmp_path, capsys):
    # Two tracks in the annotation file: evaluate insists on --track-id.
    gt_rows = parse_mot_file(synthetic_sequence.gt_path, "annotation")
    doubled = gt_rows + [
        MotRow(r.frame, 2, r.left + 500, r.top, r.width, r.height, 1.0, 1, 1.0)
        for r in gt_rows
    ]
    gt_path = tmp_path / "gt.txt"
    write_mot_file(gt_path, doubled, "annotation")
    args = [
        "evaluate", "--gt", str(gt_path), "--out", str(tmp_path),
        "--estimates", str(tmp_path / "whatever.csv"),
    ]
    assert main(args) == 1
    assert "exactly one track" in capsys.readouterr().err


def test_evaluate_missing_estimates_fails(synthetic_sequence, tmp_path):
    args = ["evaluate"] + seq_args(synthetic_sequence, tmp_path)
    args += ["--estimates", str(tmp_path / "missing.csv")]
    assert main(args) == 1


def test_evaluate_reads_no_detection_file(synthetic_sequence, tmp_path, capsys):
    # evaluate scores against the annotations alone: a malformed det.txt
    # or a missing --det file changes neither its exit code nor its file.
    out = tmp_path / "results"
    assert main(["run"] + seq_args(synthetic_sequence, out) + ["--filter", "kf2d"]) == 0
    seq_dir = tmp_path / "seq"
    shutil.copytree(synthetic_sequence.seq_dir, seq_dir)
    with open(seq_dir / "det" / "det.txt", "a", encoding="utf-8") as handle:
        handle.write("1,-1,abc,0,10,20,1\n")
    cases = {
        "valid": ["--seq", str(synthetic_sequence.seq_dir)],
        "malformed": ["--seq", str(seq_dir)],
        "missing": ["--seq", str(seq_dir), "--det", str(tmp_path / "missing.txt")],
    }
    written = {}
    for case, extra in cases.items():
        args = ["evaluate", "--out", str(tmp_path / case)] + extra
        args += ["--estimates", str(out / "SYN-01_id1_kf2d_estimates_bb.csv")]
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        metrics = tmp_path / case / "SYN-01_id1_kf2d_estimates_bb_metrics.csv"
        written[case] = metrics.read_bytes()
    assert written["malformed"] == written["missing"] == written["valid"]


# --------------------------------------------------------------- precedence


def test_config_file_and_flag_precedence(synthetic_sequence, tmp_path, capsys):
    out_file = tmp_path / "from_file"
    config = tmp_path / "run.ini"
    config.write_text(
        f"[sim]\ntrials = 2\nseed = 4\n\n[run]\noutput_dir = {out_file}\n",
        encoding="utf-8",
    )
    # File values apply when no flag overrides them.
    args = ["run", "--config", str(config), "--seq", str(synthetic_sequence.seq_dir)]
    assert main(args + ["--filter", "kf2d"]) == 0
    summary = read_summary(out_file / "SYN-01_id1_summary.csv")
    assert summary[("kf2d", "bb")]["n_trials"] == "2"
    # A flag beats the file.
    out_flag = tmp_path / "from_flag"
    assert main(args + ["--filter", "kf2d", "--out", str(out_flag)]) == 0
    assert (out_flag / "SYN-01_id1_summary.csv").is_file()


def test_invalid_camera_config_exits_1(synthetic_sequence, tmp_path, capsys):
    # evaluate builds the camera for every estimates file, so a bad value
    # is an error there too, not a traceback.
    config = tmp_path / "camera.ini"
    config.write_text("[camera]\nfocal_length_m = -1\n", encoding="utf-8")
    out = tmp_path / "results"
    assert main(["run"] + seq_args(synthetic_sequence, out) + ["--filter", "kf2d"]) == 0
    for command, extra in (
        ("run", []),
        ("evaluate", ["--estimates", str(out / "SYN-01_id1_kf2d_estimates_bb.csv")]),
    ):
        args = [command, "--config", str(config)] + seq_args(synthetic_sequence, out)
        capsys.readouterr()
        assert main(args + extra) == 1
        assert "error: invalid camera: focal length" in capsys.readouterr().err


def test_unknown_config_key_fails(synthetic_sequence, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[sim]\ntrails = 2\n", encoding="utf-8")
    args = ["run", "--config", str(config), "--seq", str(synthetic_sequence.seq_dir)]
    assert main(args) == 1
    assert "unknown key" in capsys.readouterr().err


def test_output_env_var_and_flag_precedence(
    synthetic_sequence, tmp_path, monkeypatch
):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("MONOTRACK_OUT", str(env_dir))
    args = ["run", "--seq", str(synthetic_sequence.seq_dir), "--filter", "kf2d"]
    assert main(args) == 0
    assert (env_dir / "SYN-01_id1_summary.csv").is_file()
    # An explicit flag still wins over the environment.
    flag_dir = tmp_path / "from_flag"
    assert main(args + ["--out", str(flag_dir)]) == 0
    assert (flag_dir / "SYN-01_id1_summary.csv").is_file()


def _set_field(line: int, field: int, value: str):
    """An edit of a CSV text that sets one field of one line."""

    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        fields = lines[line].split(",")
        fields[field] = value
        lines[line] = ",".join(fields)
        return "".join(lines)

    return edit


@pytest.mark.parametrize(
    "command,extra,ini,edit,message",
    [
        ("run", ["--gamma", "-1"], None, None, "[run] gamma: "),
        ("run", ["--image-size", "0x0"], None, None, "[run] image_width: "),
        ("run", ["--frame-rate", "0"], None, None, "[run] frame_rate: "),
        ("run", ["--trials", "-1"], None, None, "[sim] trials: "),
        ("run", ["--iou-threshold", "2"], None, None, "[run] iou_threshold: "),
        ("run", [], "[run]\niou_threshold = 0\n", None, "[run] iou_threshold: "),
        ("run", ["--guessed-height", "-1"], None, None, "[run] guessed_height_m: "),
        ("run", [], "[models]\ntau_h = 0\n", None, ""),
        ("run", [], "[models]\nq_x = -1\n", None, ""),
        ("run", [], "[models]\nzeta_r = 0\n", None, ""),
        ("run", [], "[filters]\nmean_height_m = -1\n", None, ""),
        ("inspect", [], None, ("gt/gt.txt", lambda text: text + text.splitlines(True)[0]), ""),
        ("run", ["--trials", "2"], None, ("gt/gt.txt", _set_field(4, 4, "nan")), ""),
        (
            "inspect", [], None,
            ("seqinfo.ini", lambda text: re.sub(r"frameRate=\S+", "frameRate=inf", text)),
            "",
        ),
        ("run", ["--trials", "2", "--seed", "-1"], None, None, "[sim] seed: "),
        ("simulate", ["--trials", "1"], "[sim]\nseed = -1\n", None, "[sim] seed: "),
        ("run", ["--filter", ","], None, None, "[filters] names: "),
    ],
    ids=[
        "gamma", "image-size", "frame-rate", "trials", "iou-above-1", "iou-0",
        "guessed-height", "tau_h", "q_x", "zeta_r", "mean_height_m", "gt-row",
        "gt-nan-width", "seqinfo-frame-rate-inf", "run-seed", "simulate-seed",
        "no-filters",
    ],
)
def test_out_of_range_values_exit_1(
    synthetic_sequence, tmp_path, capsys, command, extra, ini, edit, message
):
    # A key's range check, a record's check or an input file's rejects
    # each value; the command reports that as an error, not a traceback,
    # before it writes any output file.  An edit rewrites one file of a
    # copy of the sequence.  A key's own check names the key.
    seq_dir = synthetic_sequence.seq_dir
    if edit is not None:
        seq_dir = tmp_path / "seq"
        shutil.copytree(synthetic_sequence.seq_dir, seq_dir)
        name, change = edit
        (seq_dir / name).write_text(change((seq_dir / name).read_text()))
    out = tmp_path / "out"
    args = [command, "--seq", str(seq_dir), "--out", str(out)] + extra
    if ini is not None:
        config = tmp_path / "run.ini"
        config.write_text(ini, encoding="utf-8")
        args += ["--config", str(config)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["inspect", "run"])
@pytest.mark.parametrize(
    "key,value", [("frameRate", "0"), ("frameRate", "-5"), ("imWidth", "0")]
)
def test_out_of_range_seqinfo_values_exit_1(
    synthetic_sequence, tmp_path, capsys, command, key, value
):
    # seqinfo.ini's size and frame rate are range-checked as the file is
    # read: the error names the file and the key, and no output is made.
    seq_dir = tmp_path / "seq"
    shutil.copytree(synthetic_sequence.seq_dir, seq_dir)
    info = seq_dir / "seqinfo.ini"
    info.write_text(re.sub(rf"{key}=\S+", f"{key}={value}", info.read_text()))
    out = tmp_path / "out"
    assert main([command, "--seq", str(seq_dir), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {info}: {key}: expected a positive ")
    assert not out.exists()


def test_parse_errors_name_their_file(synthetic_sequence, tmp_path, capsys):
    # The same bad row in the annotation file and in the detection file:
    # each message names the file it is in.
    for name in ("gt/gt.txt", "det/det.txt"):
        seq_dir = tmp_path / name.partition("/")[0]
        shutil.copytree(synthetic_sequence.seq_dir, seq_dir)
        path = seq_dir / name
        path.write_text(_set_field(4, 4, "nan")(path.read_text()))
        args = ["run", "--seq", str(seq_dir), "--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 5: not a finite number: 'nan'\n"


@pytest.mark.parametrize(
    "extra,ini,message",
    [
        (["--frame-rate", "inf"], None, "[run] frame_rate: not a finite number: 'inf'"),
        (["--gamma", "inf"], None, "[run] gamma: not a finite number: 'inf'"),
        (["--gamma", "nan"], None, "[run] gamma: not a finite number: 'nan'"),
        ([], "[models]\ntau_h = nan\n", "[models] tau_h: not a finite number: 'nan'"),
    ],
    ids=["frame-rate-inf", "gamma-inf", "gamma-nan", "tau_h-nan"],
)
def test_non_finite_values_exit_1(
    synthetic_sequence, tmp_path, capsys, extra, ini, message
):
    # inf and nan pass every "> 0" range check, so the parser rejects
    # them and names the key they were given for.
    args = ["run"] + seq_args(synthetic_sequence, tmp_path) + ["--trials", "2"] + extra
    if ini is not None:
        config = tmp_path / "run.ini"
        config.write_text(ini, encoding="utf-8")
        args += ["--config", str(config)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _key_case(flag, section, key, field, first, second):
    """Two values of one flag, each with the config text of its key."""
    return flag, field, [(text, f"[{section}]\n{key} = {text}\n") for text in (first, second)]


_FLAG_KEY_CASES = [
    _key_case("--seq", "run", "sequence", "seq_dir", "A-01", "B-01"),
    _key_case("--gt", "run", "gt", "gt_path", "a.txt", "b.txt"),
    _key_case("--det", "run", "det", "det_path", "a.txt", "b.txt"),
    _key_case("--frame-rate", "run", "frame_rate", "frame_rate", "25", "12.5"),
    _key_case("--gamma", "run", "gamma", "gamma", "480", "100"),
    _key_case("--track-id", "run", "track_ids", "track_ids", "2, 5", "7"),
    _key_case("--iou-threshold", "run", "iou_threshold", "iou_threshold", "0.4", "0.7"),
    _key_case("--out", "run", "output_dir", "output_dir", "one", "two"),
    _key_case("--trials", "sim", "trials", "trials", "25", "3"),
    _key_case("--seed", "sim", "seed", "seed", "3", "11"),
    _key_case("--dropout", "sim", "dropout", "dropout", "none", "real"),
    _key_case("--filter", "filters", "names", "filters", "ukf3d", "kf2d, bot"),
    _key_case("--guessed-height", "run", "guessed_height_m", "guessed_height_m", "1.7", "1.5"),
    (
        "--image-size",
        "image_size",
        [
            (f"{w}x{h}", f"[run]\nimage_width = {w}\nimage_height = {h}\n")
            for w, h in ((640, 480), (320, 240))
        ],
    ),
]


def _run_config(argv: list[str], ini: str | None = None) -> RunConfig:
    if ini is not None:
        Path("flags.ini").write_text(ini, encoding="utf-8")
        argv = argv + ["--config", "flags.ini"]
    return _config_from_args(_build_parser().parse_args(["run"] + argv))


def test_flag_key_cases_cover_every_key_flag():
    flags = {case[0] for case in _FLAG_KEY_CASES}
    assert flags == set(_KEY_FLAGS) | {"--image-size"}


@pytest.mark.parametrize(
    "flag,field,values", _FLAG_KEY_CASES, ids=[case[0] for case in _FLAG_KEY_CASES]
)
def test_flag_and_config_key_set_the_same_field(
    tmp_path, monkeypatch, flag, field, values
):
    monkeypatch.delenv("MONOTRACK_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    Path("A-01").mkdir()
    Path("B-01").mkdir()
    (first, first_ini), (second, second_ini) = values
    by_flag = getattr(_run_config([flag, first]), field)
    assert by_flag == getattr(_run_config([], first_ini), field)
    assert by_flag != getattr(RunConfig(), field)
    # With both, the flag wins.
    both = getattr(_run_config([flag, second], first_ini), field)
    assert both == getattr(_run_config([], second_ini), field) != by_flag


@pytest.mark.parametrize(
    "flag,section,key,raw,reason",
    [
        ("--trials", "sim", "trials", "abc", "not an integer: 'abc'"),
        ("--track-id", "run", "track_ids", "a", "not an integer: 'a'"),
        ("--gamma", "run", "gamma", "wide", "not a number: 'wide'"),
        ("--filter", "filters", "names", "ekf", "unknown filter 'ekf'"),
        ("--dropout", "sim", "dropout", "often", "expected 'real' or 'none', got 'often'"),
    ],
    ids=["trials", "track-id", "gamma", "filter", "dropout"],
)
def test_bad_value_message_is_the_same_from_file_and_flag(
    tmp_path, monkeypatch, flag, section, key, raw, reason
):
    monkeypatch.chdir(tmp_path)
    for argv, ini in (([flag, raw], None), ([], f"[{section}]\n{key} = {raw}\n")):
        with pytest.raises(ConfigError) as info:
            _run_config(argv, ini)
        assert str(info.value) == f"[{section}] {key}: {reason}"
