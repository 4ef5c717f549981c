"""Robust anomaly scores from the sparse tensor.

Each mode-3 fiber (a fixed hour/day/zone traced across weeks) is fit with an
exact univariate minimum covariance determinant estimator; elements are
scored by their squared robustly-standardized distance.  The top-K mask
turns scores into binary detections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: scales at or below this are treated as degenerate
ZERO_SCALE_TOL = 1e-12
#: finite stand-in score for a nonzero deviation at zero scale
LARGE_SCORE = 1e12


@dataclass
class FiberScoreField:
    """Per-element scores plus the per-fiber robust fit statistics.

    ``loc`` and ``scale`` have one entry per mode-3 fiber: the tensor's shape without mode 3.
    """

    scores: np.ndarray
    loc: np.ndarray
    scale: np.ndarray


def _consistency_factor(h, n):
    # scale correction so fits with the same subset fraction are comparable;
    # no truncation when the subset is the whole sample
    if h == n:
        return 1.0
    # 1 / sqrt of the chi-square(1) quantile at h/n; chi-square(1) is a
    # squared standard normal, so that root is the normal quantile below
    return 1.0 / NormalDist().inv_cdf((1 + h / n) / 2)


def _mcd_rows(rows, h):
    """Exact univariate MCD for each row of a 2-D array.

    The minimizing h-subset of a univariate sample is contiguous in sorted
    order, so only the n-h+1 sorted windows are scanned; ties go to the
    lowest window start.  Returns (loc, scale) arrays, scale already
    consistency-corrected.
    """
    n = rows.shape[1]
    if n < 2:
        raise ValueError("need at least two samples")
    if not 2 <= h <= n:
        raise ValueError(f"h must be in [2, {n}], got {h}")
    srt = np.sort(rows, axis=1)
    windows = sliding_window_view(srt, h, axis=1)
    variances = windows.var(axis=2, ddof=1)
    best = variances.argmin(axis=1)
    chosen = windows[np.arange(rows.shape[0]), best]
    loc = chosen.mean(axis=1)
    raw = chosen.std(axis=1, ddof=1)
    # a window of identical values has exactly that location and zero scale;
    # don't let summation rounding blur either
    constant = chosen[:, 0] == chosen[:, -1]
    loc = np.where(constant, chosen[:, 0], loc)
    raw = np.where(constant, 0.0, raw)
    return loc, raw * _consistency_factor(h, n)


def univariate_mcd(x, h):
    """Robust (location, scale) of a 1-D sample from its min-variance h-subset."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be 1-D")
    loc, scale = _mcd_rows(x[None, :], h)
    return float(loc[0]), float(scale[0])


def score_sparse_tensor(S, h_fraction=0.75):
    """Score each element of a tensor of order >= 3 along its mode-3 fiber.

    The subset size is ``max(2, floor(h_fraction * I3))``, h_fraction in
    (0, 1].  A fiber with degenerate scale scores 0 where the value equals
    the robust location and ``LARGE_SCORE`` elsewhere, keeping all scores
    finite and sortable.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 3:
        raise ValueError(f"expected a tensor of order 3 or more, got order {S.ndim}")
    i3 = S.shape[2]
    if i3 < 4:
        raise ValueError(f"mode-3 length must be at least 4, got {i3}")
    if not 0 < h_fraction <= 1:  # NaN fails too
        raise ValueError(f"h_fraction must be in (0, 1], got {h_fraction}")
    h = max(2, math.floor(h_fraction * i3))

    fibers = np.moveaxis(S, 2, -1)          # (I1, I2, I4, ..., IN, I3)
    flat = fibers.reshape(-1, i3)
    loc, scale = _mcd_rows(flat, h)

    dev = flat - loc[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        sc = (dev / scale[:, None]) ** 2
    degenerate = scale <= ZERO_SCALE_TOL
    if degenerate.any():
        sc[degenerate] = np.where(dev[degenerate] == 0.0, 0.0, LARGE_SCORE)

    scores = np.moveaxis(sc.reshape(fibers.shape), -1, 2)
    return FiberScoreField(
        scores=scores,
        loc=loc.reshape(fibers.shape[:-1]),
        scale=scale.reshape(fibers.shape[:-1]),
    )


def _percent_count(k_percent, n):
    """ceil(k% of n), but a count within 1e-12 of a whole number is that number (7% of
    100 is 7, not ceil(7.000000000000001)), and a k% of n that underflows is 1, not 0."""
    x = k_percent * n
    whole = round(x / 100)
    return whole if math.isclose(x, 100 * whole, rel_tol=1e-12) else int(-(-x // 100))


def top_k_mask(scores, k_percent):
    """Boolean mask of the ceil(k% of all elements) (:func:`_percent_count`) highest scores.

    Ties at the cutoff are broken by lexicographic index order, so the mask
    is deterministic and its size exact.
    """
    scores = np.asarray(scores)
    if not 0 < k_percent <= 100:
        raise ValueError(f"K percent must be in (0, 100], got {k_percent}")
    count = _percent_count(k_percent, scores.size)
    flat = scores.ravel()                   # C order == lexicographic indices
    order = np.argsort(-flat, kind="stable")
    mask = np.zeros(scores.size, dtype=bool)
    mask[order[:count]] = True
    return mask.reshape(scores.shape)
