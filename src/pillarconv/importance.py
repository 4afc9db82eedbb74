"""Pillar importance scoring, selection, and threshold calibration.

Each active pillar gets a scalar importance score in two steps: a per-pillar
measure over its feature vector (mean or max of absolute values), then an
optional aggregation over the active 3x3 neighborhood (identity, average, or
max). Pooling reduces over the submanifold rulebook of a 3x3 kernel, whose
tuples are the active-neighbour pairs: one weighted `bincount` (average) or
one `np.maximum.at` (max). Average pooling divides by the number of active
neighbors only, so isolated pillars are not diluted by empty cells.

Selection picks the pillars to dilate. Top-k selection takes the highest
ceil(t% * n) scores with ties broken by (row, col) ascending, which makes the
selected set deterministic and, for a fixed score map, nested as t grows.
Threshold selection keeps every pillar scoring at or above a calibrated
cutoff; `calibrate_threshold` pools score sets and returns the k-th largest
pooled score for k = ceil(t% * pool size), so that on the calibration pool
the threshold rate matches the top-k rate to within one pillar per set on
average.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .conv import Kernel, build_rulebook_subm
from .errors import EmptyCalibrationPoolError, NonFiniteValueError, SpecMismatchError
from .tensor import Coord, PillarTensor, _owned, as_coords_array, as_tuples, selection_mask


class Measure(str, Enum):
    MEAN_ABS = "mean_abs"
    MAX_ABS = "max_abs"


class Aggregate(str, Enum):
    IDENTITY = "identity"
    AVG_POOL = "avg_pool_3x3"
    MAX_POOL = "max_pool_3x3"


@dataclass(frozen=True)
class ImportanceConfig:
    measure: Measure = Measure.MEAN_ABS
    aggregate: Aggregate = Aggregate.IDENTITY


@dataclass(frozen=True)
class Selection:
    """A selected subset of active coordinates.

    `rc` takes any collection of unique (row, col) pairs, kept in the order
    given (the selectors keep their scores' entry order) as a read-only
    (m, 2) int64 copy; `selected` is its frozenset view, built on first use.
    """

    rc: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rc", _owned(as_coords_array(self.rc), np.int64))

    @cached_property
    def selected(self) -> frozenset[Coord]:
        return frozenset(as_tuples(self.rc))


_POOL_KERNEL = Kernel(3, 3, 1, 1, 1, np.zeros((9, 1, 1)), np.zeros(1))


class Scores(Mapping):
    """Per-pillar scores: a read-only coord -> score mapping backed by arrays.

    `rc` holds the (n, 2) coordinates and `score` the float64 scores in the
    same order. Selection reads the arrays; the dict view is built only
    when a caller looks scores up by coordinate.
    """

    def __init__(self, rc: np.ndarray, score: np.ndarray) -> None:
        self.rc = rc
        self.score = score

    @cached_property
    def _by_coord(self) -> dict[Coord, float]:
        return dict(zip(as_tuples(self.rc), self.score.tolist()))

    def __getitem__(self, coord: Coord) -> float:
        return self._by_coord[coord]

    def __iter__(self):
        return iter(self._by_coord)

    def __len__(self) -> int:
        return self.rc.shape[0]


def _score_arrays(scores: Mapping[Coord, float]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(scores, Scores):
        return scores.rc, scores.score
    return (
        as_coords_array(list(scores)),
        np.fromiter(scores.values(), dtype=np.float64, count=len(scores)),
    )


def pillar_importance(t: PillarTensor, cfg: ImportanceConfig | None = None) -> Scores:
    """Score every active pillar. Returns a coord -> score map in entry order."""
    cfg = cfg or ImportanceConfig()
    absf = np.abs(t.features.astype(np.float64))
    base = absf.mean(axis=1) if cfg.measure is Measure.MEAN_ABS else absf.max(axis=1)
    if cfg.aggregate is Aggregate.IDENTITY:
        return Scores(t.rc, base)
    # one (in, out) tuple per active neighbour, in = out - offset(w): read back
    # to front, the offset-major tuples reach each pillar's neighbours in
    # row-major order, the order the pooled sum accumulates in
    rb = build_rulebook_subm(t.rc, _POOL_KERNEL, bounds=(t.height, t.width))
    n = t.n_active
    if cfg.aggregate is Aggregate.AVG_POOL:
        total = np.bincount(rb.out_idx[::-1], base[rb.in_idx[::-1]], n)
        pooled = total / np.bincount(rb.out_idx, minlength=n)
    else:
        pooled = np.full(n, -np.inf)
        with np.errstate(invalid="ignore"):  # NaN carries through, as np.maximum's does
            np.maximum.at(pooled, rb.out_idx, base[rb.in_idx])
    return Scores(t.rc, pooled)


def topk_count(n: int, t_percent: float) -> int:
    """Number of pillars selected at t percent out of n: ceil(t% * n), clamped.

    t <= 0 counts none and t >= 100 all. Raises NonFiniteValueError for a NaN
    or infinite t.
    """
    if not math.isfinite(t_percent):
        raise NonFiniteValueError(f"top-k percent must be finite, got {t_percent}")
    if n == 0 or t_percent <= 0:
        return 0
    if t_percent >= 100:  # before the product, which overflows for t near the float max
        return n
    # tiny slack so exact products like 50% of 4 do not ceil up on float noise
    k = math.ceil(t_percent * n / 100.0 - 1e-9)
    return max(1, min(n, k))


def _require_percent(t_percent: float) -> None:
    """Selections take a top-k percent >= 0 (topk_count rejects non-finite ones)."""
    if t_percent < 0:
        raise SpecMismatchError(f"top-k percent must be >= 0, got {t_percent}")


def select_topk(scores: Mapping[Coord, float], t_percent: float) -> Selection:
    """Select the top ceil(t% * n) scores, ties broken by (row, col), rows in entry order."""
    _require_percent(t_percent)
    rc, score = _score_arrays(scores)
    k = topk_count(score.size, t_percent)
    ranked = np.lexsort((rc[:, 1], rc[:, 0], -score))
    return Selection(rc[np.sort(ranked[:k])])


def select_threshold(scores: Mapping[Coord, float], theta: float) -> Selection:
    """Select every pillar scoring at or above theta (+inf selects none; NaN raises)."""
    if math.isnan(theta):
        raise NonFiniteValueError("threshold theta must not be NaN")
    rc, score = _score_arrays(scores)
    return Selection(rc[score >= theta])


def calibrate_threshold(score_sets: Sequence[Sequence[float]], t_percent: float) -> float:
    """Calibrate a dilation threshold from pooled score sets.

    Returns the k-th largest pooled score for k = ceil(t% * N) over the N
    pooled scores, i.e. the smallest score still inside the top t percent.
    t = 0 returns +inf (selects nothing); t >= 100 returns the pool minimum.
    Raises NonFiniteValueError if any pooled score or t is NaN or infinite,
    and SpecMismatchError for a negative t.
    """
    _require_percent(t_percent)
    pool = np.concatenate([np.zeros(0), *(np.asarray(s, dtype=np.float64) for s in score_sets)])
    n = pool.size
    if n == 0:
        raise EmptyCalibrationPoolError("no scores to calibrate from")
    bad = np.count_nonzero(~np.isfinite(pool))
    if bad:
        raise NonFiniteValueError(f"{bad} of {n} pooled scores are not finite")
    k = topk_count(n, t_percent)
    if k == 0:
        return math.inf
    if k >= n:
        return float(pool.min())
    return float(np.partition(pool, n - k)[n - k])


def selection_flags(t: PillarTensor, selection: Selection) -> np.ndarray:
    """Per-entry boolean flags for a selection; raises if not a subset."""
    return selection_mask(t.rc, selection.rc, t.height, t.width)
