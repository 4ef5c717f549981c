"""Counters for expensive spectral operations.

Every singular value thresholding and every graph eigendecomposition
performed by this package goes through :func:`record`, so tests can assert
where the spectral work happens (graph construction vs. solver iterations).
``"svd"`` counts one per thresholding, whichever factorisation it takes (the
eigendecomposition of its small Gram matrix, or an SVD); ``"eig"`` counts the
graphs' eigendecompositions only.
"""

from __future__ import annotations

import threading

_counts = {"svd": 0, "eig": 0}
_lock = threading.Lock()  # a solver's worker thread records SVDs too


def record(kind):
    with _lock:
        _counts[kind] += 1


def snapshot():
    """Current cumulative counts as a plain dict."""
    return dict(_counts)
