"""ROC/AUC evaluation, event detection at top-K, and the timing harness."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .scoring import top_k_mask


@dataclass
class LabeledScores:
    """Paired score/label vectors over the observed elements."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float).ravel()
        labels = np.asarray(self.labels).ravel()
        if self.scores.shape != labels.shape:
            raise ValueError("scores and labels must have the same length")
        # checked before the cast, which would make 0.5 a 0 and NaN anything
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not np.isfinite(self.scores).all():  # a NaN would rank above every score
            raise ValueError("scores must be finite, not NaN or infinite")
        self.labels = labels.astype(int)

    @property
    def n_pos(self):
        return int(self.labels.sum())

    @property
    def n_neg(self):
        return int(self.labels.size - self.labels.sum())


def labeled_scores(scores, labels, observed=None):
    """Flatten scores/labels into a :class:`LabeledScores`, optionally
    restricted to the observed support; all of them must have one shape."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    shapes = [np.shape(a) for a in (scores, labels, observed) if a is not None]
    if len(set(shapes)) > 1:
        raise ValueError(f"scores, labels and mask must have one shape, got {shapes}")
    if observed is not None:
        keep = np.asarray(observed, dtype=bool)
        return LabeledScores(scores[keep], labels[keep])
    return LabeledScores(scores, labels)


def roc_auc(ls):
    """Area under the ROC curve via the rank (Mann-Whitney) statistic.

    Ties get midranks, so the result equals the pairwise count
    ``(#{pos > neg} + 0.5 #{ties}) / (n_pos * n_neg)`` exactly.
    """
    if ls.n_pos == 0 or ls.n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    _, inverse, counts = np.unique(ls.scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    ranks = (upper - (counts - 1) / 2.0)[inverse]
    pos_ranks = ranks[ls.labels == 1].sum()
    return float(
        (pos_ranks - ls.n_pos * (ls.n_pos + 1) / 2.0) / (ls.n_pos * ls.n_neg)
    )


def roc_points(ls):
    """ROC curve corners (fpr, tpr) from (0, 0) to (1, 1).

    The full curve has one vertex per distinct threshold.  A run of
    same-label thresholds traces a horizontal (negatives) or vertical
    (positives) line, so only its ends are kept; a threshold shared by both
    labels gives a diagonal segment, whose ends are always kept.  The
    dropped vertices lie on the returned polyline, so its trapezoid area is
    :func:`roc_auc`.
    """
    if ls.n_pos == 0 or ls.n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    order = np.argsort(-ls.scores, kind="stable")
    labels = ls.labels[order]
    scores = ls.scores[order]
    # counts at the last element of each tied-score run, after the origin
    last = np.r_[scores[1:] != scores[:-1], True]
    tp = np.r_[0, np.cumsum(labels)[last]]
    fp = np.r_[0, np.cumsum(1 - labels)[last]]
    flat = np.diff(tp) == 0
    upright = np.diff(fp) == 0
    straight = (flat[:-1] & flat[1:]) | (upright[:-1] & upright[1:])
    keep = np.r_[True, ~straight, True]
    return fp[keep] / ls.n_neg, tp[keep] / ls.n_pos


def detection_at_k(scores, events, k_list):
    """Number of events hit by the top-K score mask, for each K percent.

    ``events`` is a list of (name, set of element index tuples) pairs.  An
    event is detected when any of its element indices falls inside the
    mask; counts are non-decreasing in K because the masks are nested.
    """
    if not events:
        raise ValueError("event list is empty")
    if not k_list:
        raise ValueError("K list is empty")
    shape = np.shape(scores)
    for name, indices in events:
        for idx in indices:
            if len(idx) != len(shape) or any(not 0 <= i < d for i, d in zip(idx, shape)):
                raise ValueError(f"event {name!r}: index {idx} out of bounds {shape}")
    counts = {}
    for k in k_list:
        mask = top_k_mask(scores, k)
        counts[k] = sum(
            1
            for _, indices in events
            if any(mask[idx] for idx in indices)
        )
    return counts


def benchmark_timing(solvers, instance, repeats):
    """Wall time and AUC statistics for each scoring method on one instance.

    ``solvers`` is a list of (name, fn) where ``fn(Y, observed) -> scores``
    returns an elementwise score tensor; ``instance`` is (Y, observed,
    labels).  Failures are excluded from the stats; each failed repeat's
    ``"{type}: {message}"`` is kept in the row's ``errors`` list.
    """
    if repeats < 2:
        raise ValueError("need at least 2 repeats")
    Y, observed, labels = instance
    rows = []
    for name, fn in solvers:
        times, aucs, errors = [], [], []
        for _ in range(repeats):
            start = time.perf_counter()
            try:
                scores = fn(Y, observed)
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            aucs.append(roc_auc(labeled_scores(scores, labels, observed)))
        def stats(v):
            if not v:
                return None, None
            std = float(np.std(v, ddof=1)) if len(v) >= 2 else 0.0
            return float(np.mean(v)), std
        auc_mean, auc_std = stats(aucs)
        time_mean, time_std = stats(times)
        rows.append(
            {
                "method": name,
                "auc_mean": auc_mean,
                "auc_std": auc_std,
                "time_mean_s": time_mean,
                "time_std_s": time_std,
                "failures": len(errors),
                "errors": errors,
            }
        )
    return rows
