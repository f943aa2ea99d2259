"""Run configuration: flat key-value files with one section per module.

A config file is INI-style text; every key has a built-in default, named
after the symbol it sets, so an empty file is a valid pedestrian setup:

    [camera]
    focal_length_m = 1e-3
    pixel_size_m = 1e-6
    # principal_point_px = 960, 540   (default: image center)

    [models]
    q_x_dot = 0.011
    tau_h = 4.0
    ...

    [filters]
    names = kf2d, bot, ukf3d
    mean_height_m = 1.65

    [sim]
    trials = 200
    seed = 7
    dropout = real

    [run]
    sequence = /data/MOT17/train/MOT17-02-FRCNN
    track_ids = 2
    guessed_height_m = 1.66
    output_dir = results

Command-line flags override file values; the MONOTRACK_OUT environment
variable overrides the configured output directory (flags still win).
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .camera import CameraIntrinsics
from .exceptions import ConfigError
from .filters import InitConstants2D, InitConstants3D
from .models import BoTParams, PedestrianParams
from .pipeline import FILTER_NAMES, ModelBundle, build_bundle

OUTPUT_DIR_ENV = "MONOTRACK_OUT"

_MODEL_KEYS = {f.name for f in dataclasses.fields(PedestrianParams)}
_SCHEMA: dict[str, set[str]] = {
    "camera": {"focal_length_m", "pixel_size_m", "principal_point_px"},
    "models": _MODEL_KEYS | {"zeta_r", "zeta_rdot"},
    "filters": {"names", "mean_height_m", "max_speed_mps", "max_extent_rate_mps"},
    "sim": {"trials", "seed", "dropout"},
    "run": {
        "sequence",
        "gt",
        "det",
        "image_width",
        "image_height",
        "frame_rate",
        "gamma",
        "guessed_height_m",
        "track_ids",
        "iou_threshold",
        "class_ids",
        "min_visibility",
        "output_dir",
    },
}


@dataclass
class RunConfig:
    """Everything a run needs, after defaults, file, env and flags merge."""

    seq_dir: Path | None = None
    gt_path: Path | None = None
    det_path: Path | None = None
    seq_name: str = "seq"
    image_size: tuple[int, int] = (1920, 1080)
    frame_rate: float = 30.0
    gamma: float | None = None
    focal_length_m: float = 1e-3
    pixel_size_m: float = 1e-6
    principal_point_px: tuple[float, float] | None = None
    params: PedestrianParams = dataclasses.field(default_factory=PedestrianParams)
    bot_params: BoTParams = dataclasses.field(default_factory=BoTParams)
    init2d: InitConstants2D = dataclasses.field(default_factory=InitConstants2D)
    init3d: InitConstants3D = dataclasses.field(default_factory=InitConstants3D)
    filters: tuple[str, ...] = FILTER_NAMES
    track_ids: tuple[int, ...] | None = None
    guessed_height_m: float = 1.65
    iou_threshold: float = 0.5
    class_ids: frozenset[int] = frozenset({1})
    min_visibility: float = 0.0
    trials: int = 0
    seed: int = 0
    dropout: str = "real"
    output_dir: Path = Path("results")

    def camera(self) -> CameraIntrinsics:
        try:
            if self.principal_point_px is None:
                return CameraIntrinsics.for_image(
                    self.image_size, self.focal_length_m, self.pixel_size_m
                )
            return CameraIntrinsics(
                self.focal_length_m, self.pixel_size_m, self.principal_point_px
            )
        except ValueError as exc:
            raise ConfigError(f"invalid camera: {exc}") from exc

    def bundle(self) -> ModelBundle:
        return build_bundle(
            self.image_size,
            self.frame_rate,
            cam=self.camera(),
            gamma=self.gamma,
            params=self.params,
            bot_params=self.bot_params,
            init2d=self.init2d,
            init3d=self.init3d,
        )


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _parse_pair(section: str, key: str, raw: str) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"[{section}] {key}: expected two comma-separated values")
    return (
        _parse_float(section, key, parts[0]),
        _parse_float(section, key, parts[1]),
    )


def _parse_int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(_parse_int(section, key, p) for p in parts)


def parse_filter_names(raw: str) -> tuple[str, ...]:
    """Filter names from a comma-separated list, each one checked."""
    names = tuple(p.strip() for p in raw.split(",") if p.strip())
    for name in names:
        if name not in FILTER_NAMES:
            raise ConfigError(f"unknown filter {name!r}")
    return names


def read_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    """Read an INI config file, rejecting unknown sections or keys."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        out[section] = dict(parser[section])
    return out


def apply_config_file(cfg: RunConfig, file_cfg: dict[str, dict[str, str]]) -> None:
    """Fold file values into a config record (in place)."""
    camera = file_cfg.get("camera", {})
    if "focal_length_m" in camera:
        cfg.focal_length_m = _parse_float("camera", "focal_length_m", camera["focal_length_m"])
    if "pixel_size_m" in camera:
        cfg.pixel_size_m = _parse_float("camera", "pixel_size_m", camera["pixel_size_m"])
    if "principal_point_px" in camera:
        cfg.principal_point_px = _parse_pair(
            "camera", "principal_point_px", camera["principal_point_px"]
        )

    models = file_cfg.get("models", {})
    overrides = {
        key: _parse_float("models", key, raw)
        for key, raw in models.items()
        if key in _MODEL_KEYS
    }
    if overrides:
        cfg.params = dataclasses.replace(cfg.params, **overrides)
    if "zeta_r" in models or "zeta_rdot" in models:
        cfg.bot_params = BoTParams(
            zeta_r=_parse_float("models", "zeta_r", models.get("zeta_r", str(cfg.bot_params.zeta_r))),
            zeta_rdot=_parse_float(
                "models", "zeta_rdot", models.get("zeta_rdot", str(cfg.bot_params.zeta_rdot))
            ),
        )

    filters = file_cfg.get("filters", {})
    if "names" in filters:
        cfg.filters = parse_filter_names(filters["names"])
    init_kwargs = {}
    for key in ("mean_height_m", "max_speed_mps", "max_extent_rate_mps"):
        if key in filters:
            init_kwargs[key] = _parse_float("filters", key, filters[key])
    if init_kwargs:
        cfg.init2d = dataclasses.replace(cfg.init2d, **init_kwargs)
        if "max_speed_mps" in init_kwargs:
            cfg.init3d = InitConstants3D(max_speed_mps=init_kwargs["max_speed_mps"])

    sim = file_cfg.get("sim", {})
    if "trials" in sim:
        cfg.trials = _parse_int("sim", "trials", sim["trials"])
    if "seed" in sim:
        cfg.seed = _parse_int("sim", "seed", sim["seed"])
    if "dropout" in sim:
        if sim["dropout"] not in ("real", "none"):
            raise ConfigError(f"[sim] dropout must be 'real' or 'none', got {sim['dropout']!r}")
        cfg.dropout = sim["dropout"]

    run = file_cfg.get("run", {})
    if "sequence" in run:
        cfg.seq_dir = Path(run["sequence"])
    if "gt" in run:
        cfg.gt_path = Path(run["gt"])
    if "det" in run:
        cfg.det_path = Path(run["det"])
    if "image_width" in run or "image_height" in run:
        width = _parse_int("run", "image_width", run.get("image_width", str(cfg.image_size[0])))
        height = _parse_int("run", "image_height", run.get("image_height", str(cfg.image_size[1])))
        cfg.image_size = (width, height)
    if "frame_rate" in run:
        cfg.frame_rate = _parse_float("run", "frame_rate", run["frame_rate"])
    if "gamma" in run:
        cfg.gamma = _parse_float("run", "gamma", run["gamma"])
    if "guessed_height_m" in run:
        cfg.guessed_height_m = _parse_float("run", "guessed_height_m", run["guessed_height_m"])
    if "track_ids" in run:
        ids = _parse_int_list("run", "track_ids", run["track_ids"])
        cfg.track_ids = ids or None
    if "iou_threshold" in run:
        cfg.iou_threshold = _parse_float("run", "iou_threshold", run["iou_threshold"])
    if "class_ids" in run:
        cfg.class_ids = frozenset(_parse_int_list("run", "class_ids", run["class_ids"]))
    if "min_visibility" in run:
        cfg.min_visibility = _parse_float("run", "min_visibility", run["min_visibility"])
    if "output_dir" in run:
        cfg.output_dir = Path(run["output_dir"])


def read_seqinfo(seq_dir: Path) -> tuple[tuple[int, int] | None, float | None, str]:
    """Image size, frame rate and name from a sequence's seqinfo.ini."""
    name = seq_dir.name
    info = seq_dir / "seqinfo.ini"
    if not info.is_file():
        return None, None, name
    parser = configparser.ConfigParser()
    try:
        parser.read(info, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"malformed {info}: {exc}") from exc
    section = parser["Sequence"] if parser.has_section("Sequence") else {}
    if "name" in section:
        name = section["name"]
    size = None
    if "imwidth" in section and "imheight" in section:
        size = (int(section["imwidth"]), int(section["imheight"]))
    rate = float(section["framerate"]) if "framerate" in section else None
    return size, rate, name


def resolve_sequence(cfg: RunConfig) -> None:
    """Resolve gt/det paths and image metadata from a sequence directory."""
    if cfg.seq_dir is None:
        return
    if not cfg.seq_dir.is_dir():
        raise ConfigError(f"sequence directory not found: {cfg.seq_dir}")
    size, rate, name = read_seqinfo(cfg.seq_dir)
    cfg.seq_name = name
    if size is not None:
        cfg.image_size = size
    if rate is not None:
        cfg.frame_rate = rate
    if cfg.gt_path is None:
        gt = cfg.seq_dir / "gt" / "gt.txt"
        if gt.is_file():
            cfg.gt_path = gt
    if cfg.det_path is None:
        det = cfg.seq_dir / "det" / "det.txt"
        if det.is_file():
            cfg.det_path = det
