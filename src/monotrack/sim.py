"""Monte Carlo detection simulator.

Draws noisy detections around a track's annotations:

    z[trial, k] = a[k] + v,   v ~ N(0, noise_cov)

Each (trial, frame) pair seeds its own generator from the configured seed
and that pair alone, so any detection can be regenerated in isolation and
the draw order never matters.  An optional dropout mask marks frames that
yield no detection in any trial, mimicking a detector losing the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataio import TrackSequence
from .exceptions import DimensionMismatch, EmptyTrack
from .filters import sqrt_psd


@dataclass(frozen=True)
class SimConfig:
    """Trial count, master seed, detector noise, optional dropout mask."""

    trials: int
    seed: int
    noise_cov: np.ndarray
    dropout_mask: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if not self.trials >= 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        cov = np.asarray(self.noise_cov, dtype=float)
        if cov.shape != (4, 4):
            raise DimensionMismatch(f"noise covariance must be 4x4, got {cov.shape}")
        object.__setattr__(self, "noise_cov", cov)
        if self.dropout_mask is not None:
            object.__setattr__(self, "dropout_mask", tuple(self.dropout_mask))


def _trial_noise(seed: int, trial: int, frame: int, root: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, frame)))
    return root @ rng.standard_normal(4)


def simulate_detections(track: TrackSequence, cfg: SimConfig) -> np.ndarray:
    """Simulated detections of ``cfg.trials`` trials at the kept frames.

    Returns an (M, D, 4) array: trial t's detections at the D frames of
    ``track.frames`` that the dropout mask keeps (every frame without a
    mask), in frame order.  Each is the annotation plus one seeded noise
    draw.
    """
    if not track.frames:
        raise EmptyTrack(f"track {track.object_id} has no frames")
    mask: Sequence[bool]
    if cfg.dropout_mask is None:
        mask = [True] * len(track.frames)
    else:
        mask = cfg.dropout_mask
        if len(mask) != len(track.frames):
            raise DimensionMismatch(
                f"dropout mask length {len(mask)} does not match "
                f"{len(track.frames)} track frames"
            )
    root = sqrt_psd(cfg.noise_cov)
    kept = [
        (box.as_vector(), k)
        for box, k, keep in zip(track.annotations, track.frames, mask)
        if keep
    ]
    out = np.empty((cfg.trials, len(kept), 4))
    for trial in range(cfg.trials):
        for d, (center, k) in enumerate(kept):
            out[trial, d] = center + _trial_noise(cfg.seed, trial, k, root)
    return out
