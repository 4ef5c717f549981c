"""Nuclear-norm baselines: LOSS (low-rank + temporally smooth sparse) and
HoRPCA (LOSS with the temporal term switched off).

Both run the graph solver's ADMM loop with a different low-rank block:
per-mode auxiliary low-rank tensors updated by singular value thresholding
instead of the spectral-projection consensus.  That puts N dense SVDs in
every iteration, which is exactly the cost the graph solver avoids; the
instrumentation counters make the asymmetry testable.  Each SVD is taken of
the tall side of its wide mode-n unfolding, which LAPACK reduces by QR first
(Chan, ACM TOMS 1982): 1.4-2.6x faster here than the wide side's LQ path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import instrumentation
from .logss import LogssParams, _admm, _fold, _per_mode
from .tensor import fold

__all__ = ["svt", "solve_loss", "solve_horpca"]


def svt(M, tau):
    """Singular value thresholding, the proximal operator of the nuclear norm."""
    out, _ = _svt_with_norm(M, tau)
    return out


def _svt_with_norm(M, tau, out=None):
    # returns the thresholded matrix, into out if given, and its nuclear norm
    # (a free byproduct)
    if not tau >= 0:  # NaN fails too
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    instrumentation.record("svd")
    M = np.asarray(M, dtype=float)
    if M.shape[0] >= M.shape[1]:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    else:  # of M.T, whose QR-first path is faster than M's LQ-first one
        Vt, s, U = (f.T for f in np.linalg.svd(M.T, full_matrices=False))
    s = np.maximum(s - tau, 0.0)
    return np.matmul(U * s, Vt, out=out), float(s.sum())


def _svt_block(state):
    """LOSS low-rank block: one full-shape tensor per mode, updated by SVT.

    Its penalty is the sum of the nuclear norms, which fall out of the
    thresholding, so the objective costs no extra SVDs.  The parts take the
    modes largest first (:func:`_per_mode`); then :func:`_fold` takes each
    mode's consensus dual step and makes G^1, the state's ``lift_sum``, the
    sum of all G^n in mode order.  Returns the penalty and the steps' sums of
    squares, one per mode.
    """
    tau = state.params.theta / state.params.beta4

    def mode(n, work):
        G = state.G[n - 1]
        # L - gamma4 written straight into its mode-n unfolding: no copy
        diff = work.reshape(-1).reshape((G.shape[n - 1], -1), order="F")
        np.subtract(state.L, state.gamma4[n - 1], out=fold(diff, n, G.shape))
        # the SVD copies diff, so the result may overwrite it
        low, nuclear = _svt_with_norm(diff, tau, out=work.reshape(diff.shape))
        np.copyto(G, fold(low, n, G.shape))
        return nuclear

    return sum(_per_mode(state, mode)), _fold(state, list(enumerate(state.G, start=1)))


def solve_loss(Y, observed, params=None):
    """ADMM for the nuclear-norm objective with temporal smoothness.

    Each mode keeps its own full-shape low-rank tensor tied to L by a
    consensus constraint and updated by :func:`svt` with threshold
    theta/beta4; the S/W/Z blocks and the stopping rule are the graph
    solver's, so that accuracy differences isolate the low-rank surrogate.
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
