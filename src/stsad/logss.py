"""ADMM solver for the graph-regularized low-rank plus temporally smooth
sparse decomposition (LOGSS).

Observed data Y is split as L + S on the support: L is constrained to be a
low graph-frequency signal on every mode (via projections G^n onto the
truncated Laplacian eigenbases), S is sparse with small total variation
along mode 1.  Auxiliary variables W (copy of S) and Z (mode-1 differences
of W) decouple the two sparsity terms; scaled dual tensors enforce all
constraints.  Every update below is the exact minimizer / proximal map of
its block of the augmented Lagrangian, so one sweep per iteration needs no
inner loops and no spectral decompositions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .tensor import mode_n_product, project_support, soft_threshold


class NumericalError(RuntimeError):
    """Raised when a solver produces non-finite values."""


@dataclass
class LogssParams:
    """Weights, penalties and stopping rule for the ADMM solvers.

    theta weighs the graph-smoothness (or, for the nuclear-norm baselines,
    low-rank) term, lam the sparsity of S, gamma the temporal total
    variation; beta1..beta4 are the constraint penalty parameters.
    """

    theta: float = 1.0
    lam: float = 0.1
    gamma: float = 0.1
    beta1: float = 1.0
    beta2: float = 1.0
    beta3: float = 1.0
    beta4: float = 1.0
    max_iter: int = 300
    tol: float = 1e-5
    circular: bool = True

    def __post_init__(self):
        for name in ("theta", "lam", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("beta1", "beta2", "beta3", "beta4"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")

    @classmethod
    def defaults(cls, Y, observed=None, **overrides):
        """Data-driven defaults: lam = gamma = 1/sqrt(max dim), all betas
        1/(5 * std of the observed entries).  Keyword overrides win."""
        Y = np.asarray(Y, dtype=float)
        values = Y if observed is None else Y[np.asarray(observed, dtype=bool)]
        scale = float(np.std(values))
        beta = 1.0 / (5.0 * scale) if scale > 0 else 1.0
        lam = 1.0 / math.sqrt(max(Y.shape))
        params = {
            "theta": 1.0,
            "lam": lam,
            "gamma": lam,
            "beta1": beta,
            "beta2": beta,
            "beta3": beta,
            "beta4": beta,
        }
        params.update(overrides)
        return cls(**params)


@dataclass
class DecompositionResult:
    L: np.ndarray
    S: np.ndarray
    iterations: int
    residual_history: list[dict]
    objective_history: list[float]
    wall_time: float
    svd_history: list[int] = field(default_factory=list)
    converged: bool = False

    def diagnostics_rows(self):
        """One JSON-ready dict per iteration."""
        rows = []
        for t, (res, obj) in enumerate(
            zip(self.residual_history, self.objective_history), start=1
        ):
            row = {"iter": t, **res, "objective": obj}
            if self.svd_history:
                row["svd_count"] = self.svd_history[t - 1]
            rows.append(row)
        return rows


@dataclass
class SolverState:
    """All primal and dual iterates of one ADMM run.

    ``G`` holds the per-mode spectral coefficient tensors (mode-n dimension
    J_n); the dual tensors are all full shape.  ``w_inv`` is the precomputed
    inverse used by the W update.  For the baselines ``graphs`` is None and
    ``G`` holds full-shape per-mode low-rank tensors instead.
    """

    L: np.ndarray
    S: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    G: list[np.ndarray]
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    gamma4: list[np.ndarray]
    delta: np.ndarray
    w_inv: np.ndarray
    graphs: list | None = None

    @classmethod
    def zeros(cls, Y, params, graphs=None):
        dims = Y.shape
        delta = build_diff_operator(dims[0], circular=params.circular)
        w_inv = np.linalg.inv(
            params.beta3 * np.eye(dims[0]) + params.beta2 * delta.T @ delta
        )
        if graphs is not None:
            G = []
            for n, g in enumerate(graphs, start=1):
                gdims = list(dims)
                gdims[n - 1] = g.rank
                G.append(np.zeros(gdims))
        else:
            G = [np.zeros(dims) for _ in dims]
        zero = lambda: np.zeros(dims)
        return cls(
            L=zero(), S=zero(), W=zero(), Z=zero(), G=G,
            gamma1=zero(), gamma2=zero(), gamma3=zero(),
            gamma4=[np.zeros(dims) for _ in dims],
            delta=delta, w_inv=w_inv, graphs=graphs,
        )


def build_diff_operator(I1, circular=True):
    """First-order discrete differencing matrix along mode 1 (square).

    Circular by default (row i: +1 at i, -1 at the next hour, wrapping);
    with ``circular=False`` the last row is zero instead of wrapping.
    """
    if I1 < 2:
        raise ValueError("differencing needs a mode-1 length of at least 2")
    delta = np.eye(I1) - np.eye(I1, k=1)
    if circular:
        delta[I1 - 1, 0] = -1.0
    else:
        delta[I1 - 1, I1 - 1] = 0.0
    return delta


def _total(arrays):
    out = arrays[0].copy()
    for a in arrays[1:]:
        out += a
    return out


def _lifted_graph_terms(state):
    # G^n lifted back to full shape: G^n x_n P_hat_n
    return [
        mode_n_product(G, g.basis, n)
        for n, (G, g) in enumerate(zip(state.G, state.graphs), start=1)
    ]


def update_low_rank(state, Y, observed, params, lifted=None):
    """Exact minimizer of the L block.

    On the support the data-fit and the N graph-consensus penalties mix; off
    the support only the graph terms act, giving the plain average of the
    lifted contributions.
    """
    N = Y.ndim
    if lifted is None:
        lifted = _lifted_graph_terms(state)
    T1 = Y - state.S + state.gamma1
    T2 = _total(lifted + state.gamma4)
    on = (params.beta1 * T1 + params.beta4 * T2) / (params.beta1 + N * params.beta4)
    if observed.all():
        return on
    return np.where(observed, on, T2 / N)


def update_graph_coeffs(state, params, graphs):
    """Per-mode spectral coefficient updates.

    Each mode solves an independent ridge problem in the truncated eigenbasis;
    the matrix inverse is diagonal, so it is applied as a row scaling of the
    projected unfolding.
    """

    def one_mode(n, g):
        scale = 1.0 / (2.0 * params.theta / params.beta4 * g.low_eigvals + 1.0)
        return mode_n_product(
            state.L - state.gamma4[n - 1], scale[:, None] * g.basis.T, n
        )

    return [one_mode(n, g) for n, g in enumerate(graphs, start=1)]


def update_sparse(state, Y, observed, params):
    """Proximal update of S (exact on both the support and its complement)."""
    T3 = Y - state.L + state.gamma1
    T4 = state.W + state.gamma3
    on = soft_threshold(params.beta1 * T3 + params.beta3 * T4, params.lam) / (
        params.beta1 + params.beta3
    )
    if observed.all():
        return on
    off = soft_threshold(T4, params.lam / params.beta3)
    return np.where(observed, on, off)


def update_smooth_aux(state, params):
    """Exact solve of the W block via the precomputed mode-1 inverse."""
    rhs = params.beta3 * (state.S - state.gamma3) + params.beta2 * mode_n_product(
        state.gamma2 + state.Z, state.delta.T, 1
    )
    return mode_n_product(rhs, state.w_inv, 1)


def update_tv_aux(state, params, w_diff=None):
    """Shrinkage update of the mode-1 difference variable Z."""
    if w_diff is None:
        w_diff = mode_n_product(state.W, state.delta, 1)
    return soft_threshold(w_diff - state.gamma2, params.gamma / params.beta2)


def update_duals(state, Y, observed, lifted=None, w_diff=None):
    """Dual ascent on all constraints.

    Returns the new dual tensors together with the primal residual norms
    used both for the stopping rule and the diagnostics.
    """
    if lifted is None:
        lifted = _lifted_graph_terms(state)
    if w_diff is None:
        w_diff = mode_n_product(state.W, state.delta, 1)
    r_data = project_support(state.L + state.S - Y, observed)
    r_tv = w_diff - state.Z
    r_sw = state.S - state.W
    r_graph = [state.L - lift for lift in lifted]
    duals = {
        "gamma1": state.gamma1 - r_data,
        "gamma2": state.gamma2 - r_tv,
        "gamma3": state.gamma3 - r_sw,
        "gamma4": [g - r for g, r in zip(state.gamma4, r_graph)],
    }
    residuals = {
        "r_data": float(np.linalg.norm(r_data)),
        "r_tv": float(np.linalg.norm(r_tv)),
        "r_sw": float(np.linalg.norm(r_sw)),
        "r_graph_max": max(float(np.linalg.norm(r)) for r in r_graph),
    }
    return duals, residuals


def objective_value(S, low_rank_penalty, params, delta):
    """Objective value at the current primal iterates.

    ``low_rank_penalty`` is the low-rank block's own term as returned by its
    update (graph energy of G for LOGSS, summed nuclear norms for the
    baselines); recorded for diagnostics only, since ADMM is not monotone.
    """
    sparse = float(np.abs(S).sum())
    tv = float(np.abs(mode_n_product(S, delta, 1)).sum())
    return params.theta * low_rank_penalty + params.lam * sparse + params.gamma * tv


def _check_finite(residuals, iteration):
    # every entry of L, S, W and Z enters r_graph, r_sw or r_tv, so finite
    # residual norms imply finite iterates
    for name, value in residuals.items():
        if not math.isfinite(value):
            raise NumericalError(f"non-finite {name} at iteration {iteration}")


class _GraphBlock:
    """LOGSS low-rank block: ridge projections onto the graph eigenbases."""

    def __init__(self, graphs):
        self.graphs = graphs
        self.svd_history = []  # stays empty: this block performs no SVDs

    def update(self, state, params):
        """New coefficients G and their graph energy sum_n tr(G^n' Lambda_n G^n)."""
        G = update_graph_coeffs(state, params, self.graphs)
        energy = 0.0
        for n, g in enumerate(self.graphs, start=1):
            sq = G[n - 1] ** 2
            energies = sq.sum(axis=tuple(a for a in range(sq.ndim) if a != n - 1))
            energy += float(g.low_eigvals @ energies)
        return G, energy

    def lift(self, state):
        return _lifted_graph_terms(state)


def _admm(Y, observed, params, block, graphs=None):
    """Scaled-form ADMM loop shared by every solver.

    ``block`` is the low-rank block (:class:`_GraphBlock`, or the SVT block
    of the baselines): ``update(state, params)`` returns the new G and its
    penalty term, ``lift(state)`` the consensus terms tied to L.  The L, S,
    W, Z and dual updates, the histories and the stopping rule are common.
    ``graphs`` sizes G in the initial state (None: full shape per mode).
    """
    Y = np.asarray(Y, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != Y.shape:
        raise ValueError("mask shape does not match tensor shape")
    if not np.isfinite(Y).all():
        raise NumericalError("non-finite values in Y at iteration 0")
    if params is None:
        params = LogssParams.defaults(Y, observed)

    state = SolverState.zeros(Y, params, graphs)
    norm_y = max(1.0, float(np.linalg.norm(Y)))
    residual_history, objective_history = [], []
    converged = False
    lifted = [np.zeros(Y.shape) for _ in range(Y.ndim)]  # G starts at zero
    start = time.perf_counter()

    for t in range(1, params.max_iter + 1):
        state.L = update_low_rank(state, Y, observed, params, lifted=lifted)
        state.G, penalty = block.update(state, params)
        state.S = update_sparse(state, Y, observed, params)
        state.W = update_smooth_aux(state, params)
        w_diff = mode_n_product(state.W, state.delta, 1)
        state.Z = update_tv_aux(state, params, w_diff=w_diff)
        lifted = block.lift(state)
        duals, residuals = update_duals(
            state, Y, observed, lifted=lifted, w_diff=w_diff
        )
        state.gamma1 = duals["gamma1"]
        state.gamma2 = duals["gamma2"]
        state.gamma3 = duals["gamma3"]
        state.gamma4 = duals["gamma4"]

        _check_finite(residuals, t)
        residual_history.append(residuals)
        objective_history.append(
            objective_value(state.S, penalty, params, state.delta)
        )
        if max(residuals.values()) / norm_y < params.tol:
            converged = True
            break

    return DecompositionResult(
        L=state.L,
        S=state.S,
        iterations=len(residual_history),
        residual_history=residual_history,
        objective_history=objective_history,
        wall_time=time.perf_counter() - start,
        svd_history=block.svd_history,
        converged=converged,
    )


def solve(Y, observed, graphs, params=None):
    """Run the full ADMM loop from the all-zero initialization.

    Parameters
    ----------
    Y : ndarray
        Data tensor (any order >= 2; unobserved entries arbitrary).
    observed : ndarray of bool
        Support mask, same shape as Y.
    graphs : list of ModeGraph
        One per mode, in mode order.
    params : LogssParams, optional
        Defaults to :meth:`LogssParams.defaults` on (Y, observed).

    Returns
    -------
    DecompositionResult
        Final (L, S) with residual and objective histories.

    Stops when every primal residual, normalized by ``max(1, ||Y||_F)``,
    falls below ``params.tol`` (``converged`` is then True), or at
    ``max_iter``.
    """
    if len(graphs) != np.ndim(Y):
        raise ValueError(f"need {np.ndim(Y)} mode graphs, got {len(graphs)}")
    return _admm(Y, observed, params, _GraphBlock(graphs), graphs)
