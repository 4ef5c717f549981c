"""Output checks that do not rely on stsad's own readers or metrics."""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np


def auc_mann_whitney(scores, labels):
    """ROC AUC with midranks for ties, computed from scratch."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    midranks = upper - (counts - 1) / 2.0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    pos_rank_sum = float(midranks[inverse][labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def read_text_tensor(path):
    """Values of a ``dims:`` text tensor, checked for count and finiteness."""
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "dims:":
            raise ValueError(f"{os.path.basename(path)}: no dims header")
        dims = [int(t) for t in header[1:]]
        values = np.array(fh.read().split(), dtype=float)
    if values.size != math.prod(dims):
        raise ValueError(f"{os.path.basename(path)}: {values.size} values for dims {dims}")
    if not np.isfinite(values).all():
        raise ValueError(f"{os.path.basename(path)}: non-finite values")
    return values.reshape(dims, order="F")


def read_csv_columns(path, ncols):
    """Numeric body of a comma-separated file with a header row."""
    with open(path) as fh:
        fh.readline()
        values = np.array(fh.read().replace(",", " ").split(), dtype=float)
    if values.size % ncols:
        raise ValueError(f"{os.path.basename(path)}: ragged rows")
    values = values.reshape(-1, ncols)
    if not np.isfinite(values).all():
        raise ValueError(f"{os.path.basename(path)}: non-finite values")
    return values


def dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def dir_hashes(path):
    """sha256 of every file under ``path``, keyed by relative name."""
    out = {}
    for root, _, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out
