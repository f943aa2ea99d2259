"""Command-line front end.

Subcommands:

* ``run``      - filter tracks with real or simulated detections: one
                 ``pipeline.run_track`` call per group of tracks, which
                 writes their estimate and metric CSVs.
* ``simulate`` - write Monte Carlo detection files around the annotations.
* ``evaluate`` - recompute metrics from an estimates CSV that ``run`` wrote,
                 read back with ``pipeline.read_estimates_csv``, against
                 the annotations alone: it ignores ``--det`` and
                 ``[run] det``.
* ``inspect``  - summarize the parsed tracks of a sequence.

Exit codes: 0 on success, 1 on usage, configuration or IO errors, 2 when
some track or trial failed partway (partial results are still written).

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless it is already
set, so the command runs numpy's BLAS on one thread.  It must be imported
before numpy for that to take effect; ``import monotrack`` loads no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

# Every matrix a run multiplies or factorizes is at most 8 x 8 per trial,
# too small for OpenBLAS to split across threads, yet the worker thread
# of its default pool spins: on a 2-vCPU host, `import numpy` took about
# 170 ms with the default pool against about 100 ms with one thread.  It
# must be set before numpy loads; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (
    OUTPUT_DIR_ENV,
    RunConfig,
    apply_config_file,
    apply_setting,
    read_config_file,
    resolve_sequence,
)
from .dataio import (
    BoundingBox,
    TrackSequence,
    build_tracks,
    attach_detections,
    detection_rows,
    parse_mot_file,
    write_mot_file,
)
from .exceptions import ConfigError, EstimationError
from .metrics import EvalSeries
from .pipeline import (
    Detections,
    ModelBundle,
    read_estimates_csv,
    real_detections,
    run_track,
    score_trials,
    write_metrics_csv,
)
from .sim import SimConfig, simulate_detections


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ConfigError`` (exit 1); argparse's own exit
    code 2 would read as a stopped filter run.  Subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


# The flags that set a config key's fields: their key and help.  A flag's
# text goes through its key's parser.
_KEY_FLAGS = {
    "--seq": ("run", "sequence", "MOT sequence directory (seqinfo.ini, gt/, det/)"),
    "--gt": ("run", "gt", "annotation file (MOT gt format)"),
    "--det": ("run", "det", "detection file (MOT det format)"),
    "--frame-rate": ("run", "frame_rate", "frames per second"),
    "--gamma": ("run", "gamma", "image scale (default: min(W, H))"),
    "--track-id": ("run", "track_ids", "comma-separated object ids (default: all)"),
    "--iou-threshold": ("run", "iou_threshold", "association threshold"),
    "--out": ("run", "output_dir", "output directory"),
    "--trials": ("sim", "trials", "Monte Carlo trials"),
    "--seed": ("sim", "seed", "master seed"),
    "--dropout": ("sim", "dropout", "simulated detection dropout: real or none"),
    "--filter": ("filters", "names", "comma-separated filters (kf2d, bot, ukf3d)"),
    "--guessed-height": ("run", "guessed_height_m", "body height for 3D truth, m"),
}


def _add_key_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, help=_KEY_FLAGS[flag][2])


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file")
    _add_key_flags(parser, "--seq", "--gt", "--det")
    parser.add_argument("--name", help="sequence name used in output file names")
    parser.add_argument("--image-size", help="image size as WIDTHxHEIGHT")
    _add_key_flags(
        parser, "--frame-rate", "--gamma", "--track-id", "--iou-threshold", "--out"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monotrack",
        description="Monocular pedestrian tracking filters and their evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="filter tracks and write estimates and metrics")
    _add_input_args(run)
    _add_key_flags(
        run, "--trials", "--seed", "--dropout", "--filter", "--guessed-height"
    )

    simulate = sub.add_parser("simulate", help="write simulated detection files")
    _add_input_args(simulate)
    _add_key_flags(simulate, "--trials", "--seed", "--dropout")

    evaluate = sub.add_parser("evaluate", help="recompute metrics from an estimates CSV")
    _add_input_args(evaluate)
    evaluate.add_argument("--estimates", required=True, help="estimates CSV from run")
    _add_key_flags(evaluate, "--guessed-height")

    inspect = sub.add_parser("inspect", help="summarize the parsed tracks")
    _add_input_args(inspect)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the sequence's seqinfo.ini,
    then flags; the output directory takes MONOTRACK_OUT before --out."""
    cfg = RunConfig()
    if args.config:
        apply_config_file(cfg, read_config_file(args.config))
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        apply_setting(cfg, "run", "output_dir", env_out)
    flags = {
        (section, key): raw
        for flag, (section, key, _) in _KEY_FLAGS.items()
        if (raw := getattr(args, flag[2:].replace("-", "_"), None)) is not None
    }
    if args.image_size is not None:
        width, x, height = args.image_size.lower().partition("x")
        if not x:
            raise ConfigError(
                f"--image-size must be WIDTHxHEIGHT, got {args.image_size!r}"
            )
        flags["run", "image_width"] = width
        flags["run", "image_height"] = height
    if ("run", "sequence") in flags:
        apply_setting(cfg, "run", "sequence", flags.pop(("run", "sequence")))
    resolve_sequence(cfg)
    if args.name:
        cfg.seq_name = args.name
    for (section, key), raw in flags.items():
        apply_setting(cfg, section, key, raw)
    return cfg


def _load_annotations(cfg: RunConfig) -> dict[int, TrackSequence]:
    """The annotated tracks that survive ingestion, limited to ``track_ids``."""
    if cfg.gt_path is None:
        raise ConfigError("no annotation file: pass --gt or --seq")
    rows = parse_mot_file(cfg.gt_path, "annotation")
    tracks = build_tracks(rows, cfg.class_ids, cfg.min_visibility)
    if not tracks:
        raise ConfigError(f"no tracks survive ingestion filters in {cfg.gt_path}")
    if cfg.track_ids is not None:
        missing = [i for i in cfg.track_ids if i not in tracks]
        if missing:
            raise ConfigError(
                f"track ids {missing} not in {sorted(tracks)} from {cfg.gt_path}"
            )
        tracks = {i: tracks[i] for i in cfg.track_ids}
    return tracks


def _load_tracks(cfg: RunConfig) -> dict[int, TrackSequence]:
    """The annotated tracks with the detection file's boxes, if there is one."""
    tracks = _load_annotations(cfg)
    if cfg.det_path is not None:
        det_rows = parse_mot_file(cfg.det_path, "detection")
        attach_detections(tracks, det_rows, cfg.iou_threshold)
    return tracks


def _detections(cfg: RunConfig, track: TrackSequence, bundle: ModelBundle) -> Detections:
    """The track's real detections, or its ``cfg.trials`` simulated trials.

    Simulated trials drop the frames the detector missed under
    ``dropout = real``, unless it missed every frame.
    """
    if cfg.trials == 0:
        return real_detections(track)
    kept = [box is not None for box in track.detections]
    if cfg.dropout != "real" or not any(kept):
        kept = [True] * len(kept)
    sim = SimConfig(cfg.trials, cfg.seed, bundle.model2d.R, tuple(kept))
    return [i for i, keep in enumerate(kept) if keep], simulate_detections(track, sim)


def _summary_line(
    label: str, series: tuple[EvalSeries, EvalSeries], track: TrackSequence
) -> str:
    """One scored (filter, space) as ``run`` and ``evaluate`` print it."""
    rmse_series, anees_series = series
    return (
        f"{label}: median_rmse={rmse_series.median:.6g} "
        f"median_anees={anees_series.median:.6g} "
        f"frames={len(rmse_series.frames)}/{len(track.frames)} "
        f"trials={rmse_series.n_trials}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.trials == 0 and cfg.det_path is None:
        raise ConfigError(
            "a real-detection run needs a detection file; "
            "pass --det or simulate with --trials"
        )
    tracks = [track for _, track in sorted(_load_tracks(cfg).items())]
    bundle = cfg.bundle()
    # A group shares one pass per filter: every track of a real-detection
    # run, or one track with its simulated trials.
    groups = [tracks] if cfg.trials == 0 else [[track] for track in tracks]
    n_failures = 0
    for group in groups:
        detections = [_detections(cfg, track, bundle) for track in group]
        for result in run_track(
            group, detections, bundle, cfg.filters, cfg.guessed_height_m,
            cfg.output_dir, cfg.seq_name,
        ):
            n_failures += result.n_failures
            for (name, space), series in sorted(result.metrics.items()):
                label = f"{cfg.seq_name} id{result.track.object_id} {name} {space}"
                print(_summary_line(label, series, result.track))
    print(f"wrote outputs for {len(tracks)} track(s) to {cfg.output_dir}")
    if n_failures:
        print(f"{n_failures} filter run(s) stopped early", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.trials <= 0:
        raise ConfigError("simulate needs --trials >= 1")
    tracks = _load_tracks(cfg)
    bundle = cfg.bundle()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    n_files = 0
    for object_id in sorted(tracks):
        track = tracks[object_id]
        detected, trials = _detections(cfg, track, bundle)
        for t, draws in enumerate(trials):
            rows = detection_rows(
                [
                    (track.first_frame + track.frames[i], BoundingBox(*z))
                    for i, z in zip(detected, draws)
                ]
            )
            path = cfg.output_dir / f"{cfg.seq_name}_id{object_id}_trial{t:03d}.txt"
            write_mot_file(path, rows, "detection")
            n_files += 1
    print(f"wrote {n_files} detection file(s) to {cfg.output_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    tracks = _load_annotations(cfg)
    if len(tracks) != 1:
        raise ConfigError(
            f"evaluate needs exactly one track; pass --track-id (have {sorted(tracks)})"
        )
    track = next(iter(tracks.values()))
    estimates_path = Path(args.estimates)
    space, stack = read_estimates_csv(estimates_path)
    series = score_trials(track, space, stack, cfg.camera(), cfg.guessed_height_m)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / f"{estimates_path.stem}_metrics.csv"
    write_metrics_csv(out_path, *series)
    print(_summary_line(f"{estimates_path.name} {series[0].space}", series, track))
    print(f"wrote {out_path}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    tracks = _load_tracks(cfg)
    print(f"{cfg.seq_name}: {len(tracks)} track(s), image {cfg.image_size[0]}x{cfg.image_size[1]}, {cfg.frame_rate} fps")
    for object_id in sorted(tracks):
        track = tracks[object_id]
        n = len(track.frames)
        gaps = sum(b - a - 1 for a, b in zip(track.frames, track.frames[1:]))
        n_det = sum(1 for b in track.detections if b is not None)
        heights = sorted(box.h for box in track.annotations)
        median = (heights[(n - 1) // 2] + heights[n // 2]) / 2
        print(
            f"  id {object_id}: {n} frames "
            f"[{track.first_frame}..{track.first_frame + track.frames[-1]}], "
            f"{gaps} gap frame(s), {n_det} detection(s), "
            f"median height {median:.6g} px"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "run": cmd_run,
        "simulate": cmd_simulate,
        "evaluate": cmd_evaluate,
        "inspect": cmd_inspect,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (EstimationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
