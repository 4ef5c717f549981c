"""Per-mode similarity graphs, Laplacians, spectral bases and the graph
stationarity diagnostic.

For each tensor mode a k-nearest-neighbour graph is built on the rows of the
mode unfolding with a self-tuning Gaussian kernel.  The Laplacian eigenbasis
(ascending eigenvalues) is truncated at a rank picked by an eigenvalue-ratio
rule; the retained low-frequency eigenvectors are what the decomposition
solver projects onto.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instrumentation
from .tensor import unfold

#: eigenvalues at or below this magnitude are treated as zero
ZERO_EIG_TOL = 1e-12


@dataclass
class ModeGraph:
    """Similarity graph for one tensor mode and its spectral decomposition.

    ``rank`` is the number of retained low-frequency eigenpairs; ``basis``
    and ``low_eigvals`` expose the truncated quantities the solver needs.
    """

    mode: int
    weights: np.ndarray
    laplacian: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int

    @property
    def basis(self):
        return self.eigvecs[:, : self.rank]

    @property
    def low_eigvals(self):
        return self.eigvals[: self.rank]


def build_knn_graph(X, k):
    """Symmetric k-NN similarity matrix with a self-tuning Gaussian kernel.

    Parameters
    ----------
    X : ndarray, shape (I, M)
        One sample per row.
    k : int
        Number of neighbours, ``1 <= k <= I - 1``.

    Returns
    -------
    ndarray, shape (I, I)
        ``W[i, j] = exp(-d(i,j)^2 / (sigma_i * sigma_j))`` for j among i's k
        nearest rows (Euclidean), symmetrised by elementwise max, zero
        diagonal.  ``sigma_i`` is the distance from row i to its k-th
        neighbour; pairs at zero distance get weight 1.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D array of row samples")
    n = X.shape[0]
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n - 1:
        raise ValueError(f"k must be an integer in [1, {n - 1}], got {k}")

    # exact row differences, upper triangle then mirrored: the Gram form
    # |x|^2 + |y|^2 - 2 x.y would leave rounding noise where rows coincide
    # and so break the zero-distance rule
    dist = np.zeros((n, n))
    buf = np.empty_like(X)
    for i in range(n - 1):
        diff = buf[i + 1:]
        np.subtract(X[i + 1:], X[i], out=diff)
        np.square(diff, out=diff)
        dist[i, i + 1:] = np.sqrt(diff.sum(axis=1))
    dist += dist.T
    ranked = dist.copy()
    np.fill_diagonal(ranked, np.inf)  # a point is never its own neighbour
    order = np.argsort(ranked, axis=1, kind="stable")
    neighbors = order[:, :k]
    sigma = ranked[np.arange(n), neighbors[:, -1]]

    rows = np.arange(n)[:, None]
    d = dist[rows, neighbors]
    denom = sigma[:, None] * sigma[neighbors]
    W = np.zeros((n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        W[rows, neighbors] = np.where(denom <= 0.0, d == 0.0, np.exp(-d**2 / denom))
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return W


def build_laplacian(W):
    """Combinatorial Laplacian ``D - W`` of a symmetric similarity matrix."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be square")
    if not np.array_equal(W, W.T):
        raise ValueError("W must be symmetric")
    if (W < 0).any():
        raise ValueError("W must be nonnegative")
    return np.diag(W.sum(axis=1)) - W


def sym_eig(phi):
    """Full symmetric eigendecomposition, eigenvalues ascending.

    Returns ``(eigvals, eigvecs)`` with orthonormal columns aligned to the
    ascending eigenvalues.  Counts as one "eig" in the instrumentation.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("input must be square")
    if not np.allclose(phi, phi.T, atol=1e-10 * max(1.0, np.abs(phi).max())):
        raise ValueError("input must be symmetric")
    instrumentation.record("eig")
    eigvals, eigvecs = np.linalg.eigh(phi)
    return eigvals, eigvecs


def select_rank(eigvals, ratio=0.9):
    """Truncation rank from the eigenvalue-ratio rule.

    Returns the smallest index i (1-based) with ``eigvals[i] / eigvals[i+1] >
    ratio``; the ratio of two near-zero eigenvalues counts as 1 (qualifies),
    so zero-eigenvalue multiplicities truncate early.  If no index qualifies
    the fallback is ``len(eigvals) - 1``.
    """
    eigvals = np.asarray(eigvals, dtype=float)
    if eigvals.size < 2:
        raise ValueError("need at least two eigenvalues")
    for i in range(eigvals.size - 1):
        a, b = eigvals[i], eigvals[i + 1]
        if a <= ZERO_EIG_TOL and b <= ZERO_EIG_TOL:
            r = 1.0
        else:
            r = a / b
        if r > ratio:
            return i + 1
    return eigvals.size - 1


def stationarity(X, graph):
    """Stationarity ratio of the mode samples on the graph eigenbasis.

    ``Gamma = P^T C P`` with C the unbiased sample covariance of the rows of
    X (each column is one observation).  The ratio
    ``||diag(Gamma)||_2 / ||Gamma||_F`` is 1 exactly when the covariance is
    diagonalised by the graph eigenvectors.
    """
    X = np.asarray(X, dtype=float)
    C = np.cov(X)
    if not np.linalg.norm(C) > 0:
        raise ValueError(
            f"mode {graph.mode}: zero covariance, stationarity ratio undefined"
        )
    gamma = graph.eigvecs.T @ C @ graph.eigvecs
    return float(np.linalg.norm(np.diag(gamma)) / np.linalg.norm(gamma))


def build_mode_graphs(Y, k=10, ratio=0.9):
    """One :class:`ModeGraph` per tensor mode, built on the mode unfoldings.

    ``k`` is clamped per mode to ``I_n - 1``.
    """
    if not 0 <= ratio < 1:  # eigenvalue ratios lie in [0, 1]; NaN fails too
        raise ValueError(f"rank ratio must be in [0, 1), got {ratio}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k}")
    Y = np.asarray(Y, dtype=float)
    for mode, size in enumerate(Y.shape, start=1):
        if size < 2:
            raise ValueError(f"mode {mode} has length {size}; a k-NN graph needs at least 2 rows")
    graphs = []
    for mode in range(1, Y.ndim + 1):
        X = unfold(Y, mode)
        k_n = min(k, X.shape[0] - 1)
        W = build_knn_graph(X, k_n)
        phi = build_laplacian(W)
        eigvals, eigvecs = sym_eig(phi)
        rank = select_rank(eigvals, ratio)
        graphs.append(ModeGraph(mode, W, phi, eigvals, eigvecs, rank))
    return graphs


def stationarity_report(Y, graphs):
    """Stationarity ratio of every mode of Y as JSON-ready rows
    ``{"mode": n, "s_r": ratio}``, in the order of ``graphs``."""
    Y = np.asarray(Y, dtype=float)
    return [{"mode": g.mode, "s_r": stationarity(unfold(Y, g.mode), g)} for g in graphs]
