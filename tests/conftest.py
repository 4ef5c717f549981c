"""Shared builders for solver test instances."""

import bisect
import itertools
import math
import warnings

import numpy as np

from stsad import logss
from stsad.graphs import ModeGraph, build_mode_graphs
from stsad.logss import LogssParams, SolverState
from stsad.synth import builtin_template
from stsad.tensor import mode_n_product


def stub_graphs(dims, ranks, seed=0):
    """Mode graphs with random orthonormal eigenbases and ascending eigvals."""
    rng = np.random.default_rng(seed)
    graphs = []
    for mode, (size, rank) in enumerate(zip(dims, ranks), start=1):
        Q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        eigvals = np.sort(rng.uniform(0.0, 2.0, size=size))
        eigvals[0] = 0.0
        graphs.append(
            ModeGraph(
                mode=mode,
                weights=np.zeros((size, size)),
                laplacian=np.zeros((size, size)),
                eigvals=eigvals,
                eigvecs=Q,
                rank=rank,
            )
        )
    return graphs


def random_state(dims, params, graphs, seed=0, Y=None, observed=None):
    """SolverState filled with random iterates (for single-update oracles).

    Y defaults to zeros and observed to full support.
    """
    rng = np.random.default_rng(seed)
    Y = np.zeros(dims) if Y is None else Y
    observed = np.ones(dims, dtype=bool) if observed is None else observed
    state = SolverState.zeros(Y, observed, params, graphs)
    state.L = rng.normal(size=dims)
    state.S = rng.normal(size=dims)
    state.W = rng.normal(size=dims)
    state.Z = rng.normal(size=dims)
    state.gamma1 = rng.normal(size=dims)
    state.gamma2 = rng.normal(size=dims)
    state.gamma3 = rng.normal(size=dims)
    state.gamma4 = [rng.normal(size=dims) for _ in state.gamma4]  # one for LOGSS
    state.G = [rng.normal(size=g.shape) for g in state.G]
    return state


def spike_instance(dims=(12, 6, 8, 5), spike=50.0, seed=0):
    """Exactly graph-low-frequency tensor plus one large spike.

    Graphs are built on the smooth base; the base is then projected onto the
    retained eigenbases so it is representable without residual, and a single
    spike is added at a fixed interior entry.
    """
    base = builtin_template(dims)
    noise = np.random.default_rng(seed).normal(0, 0.05 * base.std(), size=dims)
    graphs = build_mode_graphs(base + noise, k=5)
    low = base
    for g in graphs:
        projector = g.basis @ g.basis.T
        low = mode_n_product(low, projector, g.mode)
    spike_idx = tuple(d // 2 for d in dims)
    Y = low.copy()
    Y[spike_idx] += spike
    return Y, graphs, spike_idx, low


# run as two parts when the threshold is forced down.  Mode 1 has 2904
# columns, halved at column 1472, and the flat index is halved at 36,296
PARTS_DIMS = (25, 6, 22, 22)
# 2415 columns, not a multiple of 8: OpenBLAS rounds the last columns of the
# two halves' products differently from those of the whole product
ODD_COLUMNS_DIMS = (24, 5, 21, 23)


def force_parts(monkeypatch, parts, cpus=2):
    """Make the solves that follow run every block as ``parts`` (1 or 2)
    parts, whatever the tensor size, as if the process may use ``cpus``."""
    monkeypatch.setattr(logss, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(logss, "_TWO_PARTS_MIN", 0 if parts == 2 else math.inf)


def break_sparse_update(monkeypatch, iteration):
    """Make the solvers' S update write inf at one iteration of the next run."""
    real = logss.update_sparse
    calls = itertools.count(1)

    def patched(state):
        real(state)
        if next(calls) == iteration:
            state.S[...] = np.inf

    monkeypatch.setattr(logss, "update_sparse", patched)


def reference_bad_line(path, width, delimiter=None, check=lambda rows: True, newline=None):
    """The line ``path:line: bad row`` names, found as the table reader once
    found it: bisecting body prefixes, each parsed whole by np.loadtxt."""
    def table(lines):  # None if a line is bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
            except ValueError:
                return None
        if rows.size == 0:
            return np.empty((0, width))
        good = rows.shape[1] == width and np.isfinite(rows).all()
        return rows if good and check(rows) else None

    with open(path, newline=newline) as fh:
        lines = fh.readlines()[1:]
    fails = lambda k: table(lines[:k]) is None
    return bisect.bisect_left(range(len(lines) + 1), True, key=fails) + 1
