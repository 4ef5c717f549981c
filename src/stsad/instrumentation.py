"""Counters for expensive spectral operations.

Every dense SVD and symmetric eigendecomposition performed by this package
goes through :func:`record`, so tests can assert where the spectral work
happens (graph construction vs. solver iterations).
"""

from __future__ import annotations

_counts = {"svd": 0, "eig": 0}


def record(kind):
    _counts[kind] += 1


def snapshot():
    """Current cumulative counts as a plain dict."""
    return dict(_counts)
