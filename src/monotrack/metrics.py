"""Estimation-quality metrics: RMSE and the average normalized estimation
error squared (ANEES).

Both aggregate over M Monte Carlo trials at one frame:

    RMSE  = sqrt( (1/M) sum_i ||mean_i - truth||^2 )
    ANEES = (1/(M n)) sum_i (mean_i - truth)^T P_i^{-1} (mean_i - truth)

ANEES measures covariance credibility: 1 is consistent, above 1 the
filter is overconfident (errors exceed its covariance), below 1 it is
pessimistic.  If the errors truly follow the reported Gaussians, M n
times the ANEES is a chi-square variable with M n degrees of freedom.
Covariances enter through a factorized solve, never an explicit inverse.

A stack of trials stores each estimate as one packed row: the mean's n
entries, then the covariance's row-major upper triangle, the numeric
columns of an estimates file.  ``packed_layout`` defines where each
entry sits, ``pack`` and ``unpack`` convert, and ``evaluate_track``
holds the rule that decides which trials and frames of a stack are
scored, and scores them, gathering a bounded number of rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatch, FrameMisalignment, SingularCovariance

# Most (frame, trial) rows ``evaluate_track`` gathers and scores in one
# stacked call.  Set by measurement: it bounds the memory of scoring a
# large stack, and it keeps one call per track up to 600 frames at M = 6.
_SCORE_BLOCK = 4096


def rmse(truth: np.ndarray, means: np.ndarray) -> float | np.ndarray:
    """Root-mean-square error of M estimate means against one truth.

    With a (K, n) truth and (K, M, n) means it scores K frames at once
    and returns their K values, each reduced in the same order as a
    single-frame call.
    """
    truth = np.asarray(truth, dtype=float)
    means = np.asarray(means, dtype=float)
    if means.ndim == truth.ndim:
        means = means[..., None, :]
    if means.ndim != truth.ndim + 1 or (
        means.shape[:-2] + means.shape[-1:] != truth.shape
    ):
        raise DimensionMismatch(
            f"means {means.shape} do not match truth {truth.shape}"
        )
    errors = means - truth[..., None, :]
    values = np.sqrt(np.mean(np.sum(errors * errors, axis=-1), axis=-1))
    return float(values) if truth.ndim == 1 else values


def anees(
    truth: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> float | np.ndarray:
    """Average normalized estimation error squared of M (mean, cov) pairs.

    Like ``rmse``, a (K, n) truth with (K, M, n) means and (K, M, n, n)
    covariances gives the K per-frame values.  A singular covariance, or
    a negative value (a covariance that is not positive definite), raises
    ``SingularCovariance``.
    """
    truth = np.asarray(truth, dtype=float)
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    if means.ndim == truth.ndim:
        means = means[..., None, :]
    if covs.ndim == truth.ndim + 1:
        covs = covs[..., None, :, :]
    lead = truth.shape[:-1]
    n = truth.shape[-1]
    m = means.shape[-2] if means.ndim == truth.ndim + 1 else -1
    if means.shape != (*lead, m, n) or covs.shape != (*lead, m, n, n):
        raise DimensionMismatch(
            f"means {means.shape} / covariances {covs.shape} do not match "
            f"truth {truth.shape}"
        )
    errors = means - truth[..., None, :]
    try:
        solved = np.linalg.solve(covs, errors[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("a reported covariance is singular") from exc
    # One sum over each frame's M n products, as a whole-array sum of a
    # single frame would take it.
    products = (errors * solved).reshape(*lead, m * n)
    values = np.sum(products, axis=-1) / (m * n)
    if np.any(values < 0):
        raise SingularCovariance(
            "a reported covariance is not positive definite: "
            "the normalized error squared is negative"
        )
    return float(values) if truth.ndim == 1 else values


@dataclass(frozen=True)
class EvalSeries:
    """One metric over the frames where it is defined."""

    frames: tuple[int, ...]
    values: np.ndarray
    space: str
    n_trials: int
    n_skipped: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) != values.shape[0]:
            raise FrameMisalignment(
                f"{len(self.frames)} frames but {values.shape[0]} values"
            )
        if np.any(values < 0):
            raise ValueError("metric values must be nonnegative")

    @property
    def median(self) -> float:
        """Median over the defined frames; nan when every frame was skipped.

        The same float as ``np.median`` (nan if any value is nan), from a
        sort: ``np.median``'s first call imports ``numpy.ma``.
        """
        ordered = np.sort(self.values).tolist()
        if not ordered or math.isnan(ordered[-1]):
            return math.nan
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2


@lru_cache(maxsize=None)
def packed_layout(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Where an n-state estimate's entries sit in a packed row.

    A packed row holds the mean's n entries, then the covariance's
    row-major upper triangle: column n + c holds the entry ``(i[c],
    j[c])`` of the first result, ``(i, j)``.  The second result maps
    each entry (i, j), and so (j, i), to its column.  Both are read-only.
    """
    upper = np.triu_indices(n)
    columns = np.empty((n, n), dtype=np.intp)
    columns[upper] = columns[upper[::-1]] = n + np.arange(upper[0].size)
    for index in (*upper, columns):
        index.setflags(write=False)
    return upper, columns


def _state_dim(width: int) -> int:
    """The n of a packed row of ``width`` = n + n (n + 1) / 2 columns."""
    return (math.isqrt(9 + 8 * width) - 3) // 2


def pack(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Packed rows of (..., n) means and (..., n, n) covariances.

    Only each covariance's upper triangle is read, so a row unpacks to
    its estimate bit for bit when the covariance is exactly symmetric,
    as every covariance a filter step emits is.
    """
    (i, j), _ = packed_layout(means.shape[-1])
    return np.concatenate([means, covs[..., i, j]], axis=-1)


def unpack(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (..., n) means and (..., n, n) covariances of packed rows; the
    means are a view."""
    n = _state_dim(values.shape[-1])
    return values[..., :n], values[..., packed_layout(n)[1]]


@dataclass(frozen=True)
class TrialStack:
    """Estimates of M trials along a track, one packed row per frame.

    ``values`` is (M, K, n + n (n + 1) / 2), laid out as ``packed_layout``
    says; row k of every trial belongs to frame ``frames[k]``.  Trial t
    holds its first ``ends[t]`` rows: a trial that stopped early leaves
    the rows after its end undefined, and one with end 0 has no
    estimates.
    """

    frames: list[int]
    values: np.ndarray
    ends: np.ndarray


def evaluate_track(
    truths: np.ndarray,
    frames: Sequence[int],
    stack: TrialStack,
    rows: Sequence[int],
    space: str,
) -> tuple[EvalSeries, EvalSeries]:
    """Per-frame RMSE and ANEES series of a stack of trials over a track.

    ``truths`` is the track's (K, r) truth at its K ``frames``, and the
    stack's frames must be consecutive entries of ``frames``.  ``rows``
    are the r state rows compared with the truth.  Trials with no rows
    are left out; of the rest, only the frames that every trial holds
    are scored, so the trial count stays constant, and the other frames
    are counted in ``n_skipped``.  The scored rows' entries are gathered
    from the packed stack into (K', M', r) means and (K', M', r, r)
    covariances, frame-major and contiguous as a per-frame stack of the
    trials is, and scored with one stacked ``rmse`` and one stacked
    ``anees`` call per block of at most ``_SCORE_BLOCK`` (frame, trial)
    rows (at least one frame).  Every frame's values are those of a call
    on that frame alone, so the blocks change no value.
    """
    k = len(truths)
    if len(frames) != k:
        raise FrameMisalignment(f"{k} truth frames but {len(frames)} frame labels")
    frames = list(frames)
    live = np.flatnonzero(stack.ends)
    start = stop = 0
    rmse_values = anees_values = np.empty(0)
    if live.size:
        first = stack.frames[0]
        start = frames.index(first) if first in frames else 0
        if frames[start : start + len(stack.frames)] != list(stack.frames):
            raise FrameMisalignment(
                f"estimate frames {stack.frames[0]}..{stack.frames[-1]} are not "
                "consecutive frames of the track"
            )
        stop = int(stack.ends[live].min())
        picked = np.asarray(rows)
        columns = packed_layout(_state_dim(stack.values.shape[-1]))[1]
        columns = columns[picked[:, None], picked]
        truth = np.asarray(truths, dtype=float)[start : start + stop]
        # Index arrays that broadcast to (B, M', r) and (B, M', r, r): one
        # gather each per block, with no copy of the stack before it.
        trial = live[None, :, None]
        size = max(1, _SCORE_BLOCK // live.size)
        rmse_parts, anees_parts = [], []
        for lo in range(0, stop, size):
            row = np.arange(lo, min(lo + size, stop))[:, None, None]
            means = stack.values[trial, row, picked]
            covs = stack.values[trial[..., None], row[..., None], columns]
            rmse_parts.append(rmse(truth[lo : lo + size], means))
            anees_parts.append(anees(truth[lo : lo + size], means, covs))
        rmse_values = np.concatenate(rmse_parts)
        anees_values = np.concatenate(anees_parts)
    scored = tuple(frames[start : start + stop])
    skipped = k - stop
    return (
        EvalSeries(scored, rmse_values, space, live.size, skipped),
        EvalSeries(scored, anees_values, space, live.size, skipped),
    )
