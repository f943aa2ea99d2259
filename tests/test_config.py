"""Configuration tests: strict INI reading, value folding, sequence
directory resolution, and the derived camera/model bundle.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from monotrack.cli import _KEY_FLAGS
from monotrack.config import (
    SETTINGS,
    RunConfig,
    apply_config_file,
    apply_setting,
    read_config_file,
    read_seqinfo,
    resolve_sequence,
)
from monotrack.exceptions import ConfigError
from monotrack.models import measurement_noise


def write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_read_config_file_accepts_known_keys(tmp_path):
    path = write(
        tmp_path,
        "[camera]\nfocal_length_m = 2e-3\n\n"
        "[sim]\ntrials = 50\nseed = 9\n\n"
        "[run]\noutput_dir = out\n",
    )
    cfg = read_config_file(path)
    assert cfg["camera"]["focal_length_m"] == "2e-3"
    assert cfg["sim"] == {"trials": "50", "seed": "9"}


def test_read_config_file_rejects_unknown_section(tmp_path):
    path = write(tmp_path, "[detector]\nthreshold = 0.5\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_read_config_file_rejects_unknown_key(tmp_path):
    path = write(tmp_path, "[sim]\ntrails = 50\n")
    with pytest.raises(ConfigError):
        read_config_file(path)
    # The thread pool across tracks is gone, and so is its key.
    path = write(tmp_path, "[run]\nworkers = 2\n")
    with pytest.raises(ConfigError, match="unknown key 'workers'"):
        read_config_file(path)


def test_read_config_file_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "absent.ini")
    path = write(tmp_path, "trials = 50\n")  # key before any section
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_apply_config_file_folds_values(tmp_path):
    path = write(
        tmp_path,
        "[camera]\nfocal_length_m = 2e-3\nprincipal_point_px = 320, 240\n\n"
        "[models]\ntau_h = 2.0\nzeta_r = 0.1\n\n"
        "[filters]\nnames = ukf3d\nmax_speed_mps = 6.0\n\n"
        "[sim]\ntrials = 25\nseed = 3\ndropout = none\n\n"
        "[run]\nimage_width = 640\nimage_height = 480\nframe_rate = 25\n"
        "gamma = 480\ntrack_ids = 2, 5\nclass_ids = 1, 7\n"
        "min_visibility = 0.25\noutput_dir = out\n"
        "guessed_height_m = 1.7\niou_threshold = 0.4\n",
    )
    cfg = RunConfig()
    apply_config_file(cfg, read_config_file(path))
    assert cfg.focal_length_m == 2e-3
    assert cfg.principal_point_px == (320.0, 240.0)
    assert cfg.params.tau_h == 2.0
    assert cfg.bot_params.zeta_r == 0.1
    assert cfg.filters == ("ukf3d",)
    assert cfg.init.max_speed_mps == 6.0
    assert (cfg.trials, cfg.seed, cfg.dropout) == (25, 3, "none")
    assert cfg.image_size == (640, 480) and cfg.frame_rate == 25.0
    assert cfg.gamma == 480.0
    assert cfg.track_ids == (2, 5) and cfg.class_ids == frozenset({1, 7})
    assert cfg.min_visibility == 0.25
    assert cfg.output_dir == Path("out")
    assert cfg.guessed_height_m == 1.7 and cfg.iou_threshold == 0.4
    camera = cfg.camera()
    assert camera.focal_length_m == 2e-3
    assert camera.principal_point_px == (320.0, 240.0)


def test_apply_config_file_rejects_bad_values(tmp_path):
    cfg = RunConfig()
    path = write(tmp_path, "[sim]\ntrials = many\n")
    with pytest.raises(ConfigError):
        apply_config_file(cfg, read_config_file(path))
    path = write(tmp_path, "[filters]\nnames = ekf\n")
    with pytest.raises(ConfigError):
        apply_config_file(cfg, read_config_file(path))
    path = write(tmp_path, "[sim]\ndropout = sometimes\n")
    with pytest.raises(ConfigError):
        apply_config_file(cfg, read_config_file(path))


# A valid text for each key that is not a plain number, different from
# the key's default; every other key takes "0.5".
_VALID_TEXTS = {
    ("camera", "principal_point_px"): "320, 240",
    ("filters", "names"): "ukf3d",
    ("sim", "trials"): "5",
    ("sim", "seed"): "7",
    ("sim", "dropout"): "none",
    ("run", "sequence"): "seq",
    ("run", "gt"): "gt.txt",
    ("run", "det"): "det.txt",
    ("run", "image_width"): "640",
    ("run", "image_height"): "480",
    ("run", "track_ids"): "2, 5",
    ("run", "iou_threshold"): "0.4",
    ("run", "class_ids"): "1, 7",
    ("run", "output_dir"): "out",
}


@pytest.mark.parametrize("section,key", list(SETTINGS))
def test_every_setting_sets_its_declared_field(section, key):
    cfg = RunConfig()
    name, _, attr = SETTINGS[section, key][1].partition(".")

    def declared():
        held = getattr(cfg, name)
        if not attr:
            return held
        return held[int(attr)] if isinstance(held, tuple) else getattr(held, attr)

    before = declared()
    apply_setting(cfg, section, key, _VALID_TEXTS.get((section, key), "0.5"))
    assert declared() != before
    cfg.bundle()


def test_default_camera_centers_on_image():
    cfg = RunConfig(image_size=(640, 480))
    assert cfg.camera().principal_point_px == (320.0, 240.0)


def test_bundle_uses_overrides():
    cfg = RunConfig(image_size=(640, 480), gamma=100.0)
    bundle = cfg.bundle()
    assert np.array_equal(bundle.model2d.R, measurement_noise(100.0))
    assert bundle.cam.principal_point_px == (320.0, 240.0)


def test_read_seqinfo(synthetic_sequence):
    size, rate, name = read_seqinfo(synthetic_sequence.seq_dir)
    assert size == (1920, 1080)
    assert rate == 30.0
    assert name == "SYN-01"


def test_read_seqinfo_rejects_malformed_values(tmp_path):
    seq = tmp_path / "BAD-01"
    seq.mkdir()
    info = "[Sequence]\nimWidth = {}\nimHeight = 1080\nframeRate = {}\n"
    for width, rate in (("wide", "30"), ("1920", "fast")):
        (seq / "seqinfo.ini").write_text(info.format(width, rate), encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed .*seqinfo.ini"):
            read_seqinfo(seq)


def test_read_seqinfo_without_file(tmp_path):
    seq = tmp_path / "BARE-01"
    seq.mkdir()
    assert read_seqinfo(seq) == (None, None, "BARE-01")


def test_resolve_sequence(synthetic_sequence):
    cfg = RunConfig(seq_dir=synthetic_sequence.seq_dir, image_size=(1, 1))
    resolve_sequence(cfg)
    assert cfg.seq_name == "SYN-01"
    assert cfg.image_size == (1920, 1080)
    assert cfg.frame_rate == 30.0
    assert cfg.gt_path == synthetic_sequence.gt_path
    assert cfg.det_path == synthetic_sequence.det_path


def test_resolve_sequence_keeps_explicit_paths(synthetic_sequence, tmp_path):
    other = tmp_path / "custom.txt"
    other.write_text("")
    cfg = RunConfig(seq_dir=synthetic_sequence.seq_dir, gt_path=other)
    resolve_sequence(cfg)
    assert cfg.gt_path == other
    assert cfg.det_path == synthetic_sequence.det_path


def test_resolve_sequence_rejects_missing_directory(tmp_path):
    cfg = RunConfig(seq_dir=tmp_path / "nowhere")
    with pytest.raises(ConfigError):
        resolve_sequence(cfg)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_example_folds(tmp_path):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", text, flags=re.DOTALL)
    cfg = RunConfig()
    apply_config_file(cfg, read_config_file(write(tmp_path, block)))
    assert cfg.params.tau_h == 4.0 and cfg.init.mean_height_m == 1.65
    assert (cfg.trials, cfg.seed, cfg.dropout) == (200, 7, "real")
    assert cfg.track_ids == (2,) and cfg.output_dir == Path("results")


def test_readme_lists_every_flag_with_its_key():
    text = README.read_text(encoding="utf-8")
    for flag, (section, key, _) in _KEY_FLAGS.items():
        assert f"| `{flag}` | `[{section}] {key}` |" in text
