"""Nuclear-norm baselines: LOSS (low-rank + temporally smooth sparse) and
HoRPCA (LOSS with the temporal term switched off).

Both run the graph solver's ADMM loop with a different low-rank block:
per-mode auxiliary low-rank tensors updated by singular value thresholding
instead of the spectral-projection consensus.  That puts N dense SVDs in
every iteration, which is exactly the cost the graph solver avoids; the
instrumentation counters make the asymmetry testable.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import instrumentation
from .logss import LogssParams, _admm
from .tensor import fold, unfold

__all__ = ["svt", "solve_loss", "solve_horpca"]


def svt(M, tau):
    """Singular value thresholding, the proximal operator of the nuclear norm."""
    out, _ = _svt_with_norm(M, tau)
    return out


def _svt_with_norm(M, tau):
    # returns the thresholded matrix and its nuclear norm (a free byproduct)
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    instrumentation.record("svd")
    U, s, Vt = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt, float(s.sum())


def _svt_block(state):
    """LOSS low-rank block: one full-shape tensor per mode, updated by SVT.

    Its penalty is the sum of the nuclear norms, which fall out of the
    thresholding, so the objective costs no extra SVDs.
    """
    diff = state.scratch[0]
    tau = state.params.theta / state.params.beta4
    penalty = 0
    before = instrumentation.snapshot()["svd"]
    for n, G in enumerate(state.G, start=1):
        np.subtract(state.L, state.gamma4[n - 1], out=diff)
        low, nuc = _svt_with_norm(unfold(diff, n), tau)
        np.copyto(G, fold(low, n, G.shape))
        penalty += nuc
    state.svd_history.append(instrumentation.snapshot()["svd"] - before)
    return penalty


def solve_loss(Y, observed, params=None):
    """ADMM for the nuclear-norm objective with temporal smoothness.

    Each mode keeps its own full-shape low-rank tensor tied to L by a
    consensus constraint and updated by :func:`svt` with threshold
    theta/beta4; the S/W/Z blocks and the stopping rule are the graph
    solver's, so that accuracy differences isolate the low-rank surrogate.
    Diagnostics additionally record the SVD count per iteration.
    """
    return _admm(Y, observed, params, _svt_block)


def solve_horpca(Y, observed, params=None):
    """LOSS with the temporal-variation weight forced to zero.

    With gamma = 0 the TV block is inert (Z tracks the mode-1 differences
    exactly from the first iteration), leaving the plain higher-order RPCA
    objective.
    """
    if params is None:
        params = LogssParams.defaults(Y, observed)
    return solve_loss(Y, observed, dataclasses.replace(params, gamma=0.0))
