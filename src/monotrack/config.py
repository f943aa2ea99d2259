"""Run configuration: INI files with one section per module, and the
command-line flags that set the same fields.

Every key has a built-in default, named after the symbol it sets, so an
empty file is a valid pedestrian setup; README's "Config file" section
shows one.  Each key is declared once, in ``SETTINGS``: the parser of
its text and the ``RunConfig`` field it sets.  To add a setting, add its
field to ``RunConfig`` and its entry to ``SETTINGS``.  ``read_config_file``
accepts the keys of that table, and ``apply_setting`` parses a value from
a file, the environment or a flag alike; a bad value raises
``ConfigError`` as ``[section] key: reason``.

Command-line flags override file values; the MONOTRACK_OUT environment
variable overrides the configured output directory (flags still win).
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from .camera import CameraIntrinsics
from .exceptions import ConfigError
from .filters import InitConstants
from .models import BoTParams, PedestrianParams
from .pipeline import FILTER_NAMES, ModelBundle, build_bundle

OUTPUT_DIR_ENV = "MONOTRACK_OUT"


@contextmanager
def _invalid(what: str) -> Iterator[None]:
    """Turn a parser's or a record's ``ValueError`` into ``ConfigError``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


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
    init: InitConstants = dataclasses.field(default_factory=InitConstants)
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
        with _invalid("invalid camera"):
            if self.principal_point_px is None:
                return CameraIntrinsics.for_image(
                    self.image_size, self.focal_length_m, self.pixel_size_m
                )
            return CameraIntrinsics(
                self.focal_length_m, self.pixel_size_m, self.principal_point_px
            )

    def bundle(self) -> ModelBundle:
        cam = self.camera()
        with _invalid("invalid model"):
            return build_bundle(
                self.image_size,
                self.frame_rate,
                cam=cam,
                gamma=self.gamma,
                params=self.params,
                bot_params=self.bot_params,
                init=self.init,
            )


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _in_range(
    parse: Callable[[str], Any], ok: Callable[[Any], bool], what: str
) -> Callable[[str], Any]:
    """``parse``, then a check that the value is ``what``."""

    def checked(raw: str) -> Any:
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"expected {what}, got {value}")
        return value

    return checked


_count = _in_range(_int, lambda v: v >= 0, "a non-negative integer")
_size = _in_range(_int, lambda v: v > 0, "a positive integer")
_positive = _in_range(_float, lambda v: v > 0, "a positive number")
_fraction = _in_range(_float, lambda v: 0 < v <= 1, "a number in (0, 1]")


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(_int(p.strip()) for p in raw.split(",") if p.strip())


def _point(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated values: {raw!r}")
    return _float(parts[0].strip()), _float(parts[1].strip())


def _filter_names(raw: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not names:
        raise ValueError(f"expected at least one filter name, got {raw!r}")
    for name in names:
        if name not in FILTER_NAMES:
            raise ValueError(f"unknown filter {name!r}")
    return names


def _dropout(raw: str) -> str:
    if raw not in ("real", "none"):
        raise ValueError(f"expected 'real' or 'none', got {raw!r}")
    return raw


# (section, key) -> (parser of the text, the RunConfig field it sets).
# A field ``name.attr`` is one field of a record, or one index of a
# tuple, that RunConfig holds.
SETTINGS: dict[tuple[str, str], tuple[Callable[[str], Any], str]] = {
    ("camera", "focal_length_m"): (_float, "focal_length_m"),
    ("camera", "pixel_size_m"): (_float, "pixel_size_m"),
    ("camera", "principal_point_px"): (_point, "principal_point_px"),
    **{
        ("models", f.name): (_float, f"params.{f.name}")
        for f in dataclasses.fields(PedestrianParams)
    },
    ("models", "zeta_r"): (_float, "bot_params.zeta_r"),
    ("models", "zeta_rdot"): (_float, "bot_params.zeta_rdot"),
    ("filters", "names"): (_filter_names, "filters"),
    ("filters", "mean_height_m"): (_float, "init.mean_height_m"),
    ("filters", "max_speed_mps"): (_float, "init.max_speed_mps"),
    ("filters", "max_extent_rate_mps"): (_float, "init.max_extent_rate_mps"),
    ("sim", "trials"): (_count, "trials"),
    ("sim", "seed"): (_count, "seed"),
    ("sim", "dropout"): (_dropout, "dropout"),
    ("run", "sequence"): (Path, "seq_dir"),
    ("run", "gt"): (Path, "gt_path"),
    ("run", "det"): (Path, "det_path"),
    ("run", "image_width"): (_size, "image_size.0"),
    ("run", "image_height"): (_size, "image_size.1"),
    ("run", "frame_rate"): (_positive, "frame_rate"),
    ("run", "gamma"): (_positive, "gamma"),
    ("run", "guessed_height_m"): (_positive, "guessed_height_m"),
    ("run", "track_ids"): (lambda raw: _ints(raw) or None, "track_ids"),
    ("run", "iou_threshold"): (_fraction, "iou_threshold"),
    ("run", "class_ids"): (lambda raw: frozenset(_ints(raw)), "class_ids"),
    ("run", "min_visibility"): (_float, "min_visibility"),
    ("run", "output_dir"): (Path, "output_dir"),
}


def apply_setting(cfg: RunConfig, section: str, key: str, raw: str) -> None:
    """Parse one key's text and set its field (in place)."""
    parse, field = SETTINGS[section, key]
    with _invalid(f"[{section}] {key}"):
        value = parse(raw)
        name, _, attr = field.partition(".")
        held = getattr(cfg, name)
        if not attr:
            held = value
        elif isinstance(held, tuple):
            held = tuple(value if str(i) == attr else v for i, v in enumerate(held))
        else:
            held = dataclasses.replace(held, **{attr: value})
        setattr(cfg, name, held)


def read_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    """Read an INI config file, rejecting unknown sections or keys."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    sections = {section for section, _ in SETTINGS}
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in SETTINGS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        out[section] = dict(parser[section])
    return out


def apply_config_file(cfg: RunConfig, file_cfg: dict[str, dict[str, str]]) -> None:
    """Fold file values into a config record (in place)."""
    for section, values in file_cfg.items():
        for key, raw in values.items():
            apply_setting(cfg, section, key, raw)


def read_seqinfo(seq_dir: Path) -> tuple[tuple[int, int] | None, float | None, str]:
    """Image size, frame rate and name from a sequence's seqinfo.ini.

    A size or frame rate that is not a positive number raises
    ``ConfigError`` naming the file and the key.
    """
    name = seq_dir.name
    info = seq_dir / "seqinfo.ini"
    if not info.is_file():
        return None, None, name
    parser = configparser.ConfigParser()
    try:
        parser.read(info, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed {info}: {exc}") from exc
    section = parser["Sequence"] if parser.has_section("Sequence") else {}
    if "name" in section:
        name = section["name"]

    def read(key: str, parse: Callable[[str], Any]) -> Any:
        with _invalid(f"malformed {info}: {key}"):
            return parse(section[key])

    size = None
    if "imWidth" in section and "imHeight" in section:
        size = (read("imWidth", _size), read("imHeight", _size))
    rate = read("frameRate", _positive) if "frameRate" in section else None
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
