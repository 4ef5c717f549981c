"""Nuclear-norm baselines: LOSS (low-rank + temporally smooth sparse) and
HoRPCA (LOSS with the temporal term switched off).

Both run the graph solver's ADMM loop with a different low-rank block:
per-mode auxiliary low-rank tensors updated by singular value thresholding
instead of the spectral-projection consensus.  That puts N singular value
thresholdings (SVTs) in every iteration, which is exactly the cost the graph
solver avoids; the instrumentation counters make the asymmetry testable.
Each SVT of an m x n unfolding works on its small Gram matrix, m x m for the
wide ones the solver builds: one symmetric eigendecomposition gives the
singular values and the left vectors, and the thresholded matrix is P M with
P = U diag((s - tau)+ / s) U'.  Squaring the spectrum costs accuracy, about
eps s_max^2 / tau, so a threshold below ``_GRAM_CUT`` s_max (tau = 0 among
them) takes the SVD of the tall side instead, as does an M that is not
finite or whose squares overflow or underflow.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import instrumentation
from .logss import LogssParams, _admm, _fold, _per_mode
from .tensor import fold

__all__ = ["svt", "solve_loss", "solve_horpca"]

# The Gram route's error in the thresholded matrix is about eps s_max^2 / tau:
# near 1e-13 s_max at this cut, inside the tests' 1e-12 ||M|| bound
_GRAM_CUT = 1e-3
# a Gram trace below this (s_max near 1e-140) has lost digits to underflow
_GRAM_FLOOR = 1e-280


def svt(M, tau):
    """Singular value thresholding, the proximal operator of the nuclear norm."""
    out, _ = _svt_with_norm(M, tau)
    return out


def _svt_with_norm(M, tau, out=None):
    # returns the thresholded matrix, into out if given, and its nuclear norm
    # (a free byproduct).  Recorded as one "svd" whichever route it takes
    if not tau >= 0:  # NaN fails too
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    instrumentation.record("svd")
    M = np.asarray(M, dtype=float)
    wide = M.shape[0] <= M.shape[1]
    with np.errstate(over="ignore"):  # an overflow makes the trace inf
        gram = M @ M.T if wide else M.T @ M
    # the trace, ||M||_F^2, is finite for a finite M whose squares do not
    # overflow, and at least _GRAM_FLOOR where they do not underflow either
    if _GRAM_FLOOR <= gram.trace() < np.inf:
        lam, U = np.linalg.eigh(gram)
        s = np.sqrt(np.maximum(lam, 0.0))
        if tau >= _GRAM_CUT * s[-1]:
            kept = np.maximum(s - tau, 0.0)
            P = (U * np.divide(kept, s, out=np.zeros_like(s), where=kept > 0)) @ U.T
            low = np.matmul(P, M, out=out) if wide else np.matmul(M, P, out=out)
            return low, float(kept.sum())
    return _svt_by_svd(M, tau, out)


def _svt_by_svd(M, tau, out):
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
        # the SVT reads diff before it writes, so the result may overwrite it
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
