"""ADMM solver for the graph-regularized low-rank plus temporally smooth
sparse decomposition (LOGSS).

Observed data Y is split as L + S on the support: L is constrained to be a
low graph-frequency signal on every mode (the lift of a small core C through
the truncated Laplacian eigenbases), S is sparse with small total variation
along mode 1.  Auxiliary variables W (copy of S) and Z (mode-1 differences
of W) decouple the two sparsity terms; scaled dual tensors enforce all
constraints.  Every update below is the exact minimizer / proximal map of
its block of the augmented Lagrangian, so one sweep per iteration needs no
inner loops and no spectral decompositions.  Each takes only the solver
state and overwrites its own variable in it.

A block runs as one part, or, on a tensor of at least ``_TWO_PARTS_MIN``
elements, as two parts, split by the tensor's shape alone (:func:`_in_parts`).
Where the process may use two CPUs the second part runs on a worker thread
that the solve starts and joins before it returns, otherwise on the caller
after the first, so a run does the same operations in the same order, and
gives the same bits, on any CPU count.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .tensor import mode_n_product, project_support, soft_threshold


class NumericalError(RuntimeError):
    """Raised when a solver produces non-finite values."""


@dataclass
class LogssParams:
    """Weights, penalties and stopping rule for the ADMM solvers.

    theta weighs the graph-smoothness (or, for the nuclear-norm baselines,
    low-rank) term, lam the sparsity of S, gamma the temporal total
    variation; beta1..beta4 are the constraint penalty parameters (LOGSS
    weighs its one core constraint, in place of N per-mode ones, by N * beta4).
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

    def __post_init__(self):
        # written so that NaN fails every rule
        for name in ("theta", "lam", "gamma", "tol"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        for name in ("beta1", "beta2", "beta3", "beta4"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter}")

    @classmethod
    def defaults(cls, Y, observed=None, **overrides):
        """Data-driven defaults: lam = gamma = 1/sqrt(max dim), all betas
        1/(5 * std of the observed entries).  Keyword overrides win."""
        Y = np.asarray(Y, dtype=float)
        if observed is not None and np.shape(observed) != Y.shape:
            raise ValueError("mask shape does not match tensor shape")
        values = Y if observed is None else Y[np.asarray(observed, dtype=bool)]
        if values.size == 0:
            raise ValueError("no observed entries")
        scale = float(np.std(values))
        beta = 1.0 / (5.0 * scale) if scale > 0 else 1.0
        lam = 1.0 / math.sqrt(max(Y.shape))
        params = {
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
    residual_history: list[dict]
    objective_history: list[float]
    wall_time: float
    converged: bool = False
    params: LogssParams | None = None  # as the run used them

    @property
    def iterations(self):
        return len(self.residual_history)

    def diagnostics_rows(self):
        """One JSON-ready dict per iteration."""
        rows = zip(self.residual_history, self.objective_history)
        return [{"iter": t, **res, "objective": obj} for t, (res, obj) in enumerate(rows, 1)]


@dataclass
class SolverState:
    """Everything one ADMM run reads and writes, allocated once.  Each block
    takes only the state and overwrites its own variable in it, so an
    iteration allocates no tensor of Y's size.

    ``Y``, ``params`` and ``missing`` (the unobserved entries, inverted once;
    None on full support) are fixed for the run, and ``w_inv`` (W update),
    ``core_eigvals`` and ``core_scale`` (core update) are precomputed from
    them.  For LOGSS, ``G[n - 1]`` is the projection-lift chain's tensor with
    ranks in its first n modes, the last the core C; ``lift_sum`` holds the
    lift K of C, which the L update turns into K + gamma4 in place.  The
    state holds no residual: the blocks that take dual steps return their
    sums of squares to :func:`_admm`.  LOGSS holds 12 tensors of Y's size
    for any N: Y, L, S, W, Z, gamma1..gamma3, the one gamma4, ``lift_sum``
    and two ``scratch`` work tensors.  For the baselines ``graphs`` and the
    core arrays are None, ``G`` holds full-shape per-mode low-rank tensors,
    of which the first is also ``lift_sum``, and ``gamma4`` one per mode
    (18 tensors at N = 4).  ``flat`` and ``columns`` hold one view function
    per part a block runs as (see :func:`_in_parts`): the whole tensor, or
    the halves of its flat index and the column halves of its mode-1
    unfolding.  ``worker`` runs second parts during a solve, if it is not
    None (:func:`_admm`).  ``Y``, ``missing`` and every tensor the state
    allocates are C-ordered and start on a 64-byte boundary
    (:func:`_aligned_zeros`); ``Y`` is always the state's own copy.
    """

    Y: np.ndarray
    params: LogssParams
    missing: np.ndarray | None
    L: np.ndarray
    S: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    G: list[np.ndarray]
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    gamma4: list[np.ndarray]
    w_inv: np.ndarray
    lift_sum: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    flat: tuple
    columns: tuple
    graphs: list | None = None
    core_eigvals: np.ndarray | None = None
    core_scale: np.ndarray | None = None
    worker: object = None

    @classmethod
    def zeros(cls, Y, observed, params, graphs=None):
        dims = Y.shape
        flat = columns = (lambda a: a,)
        if Y.size >= _TWO_PARTS_MIN:
            # the flat index is halved where numpy's pairwise sum splits it, so
            # per-part sums add up to the whole sum bit for bit; the mode-1
            # unfolding, of Y or G[0], on a multiple of 64 columns (an unaligned
            # split changed some entries of the products by 1 ulp)
            n, rows = Y.size, dims[0]
            h, c = n // 2 - n // 2 % 8, round(n // rows / 128) * 64
            flat = tuple(lambda a, s=s: a.reshape(-1)[s] for s in (slice(h), slice(h, n)))
            columns = tuple(lambda a, s=s: a.reshape(len(a), -1)[:, s]
                            for s in (slice(c), slice(c, None)))
        zero = lambda shape=dims: _aligned_zeros(shape)
        # parts view every tensor through its C-order layout, and np.putmask
        # reads its mask in C order, so the state keeps its own Y and mask
        Y, caller = zero(), Y
        Y[...] = caller
        missing = None if observed.all() else np.invert(observed, out=_aligned_zeros(dims, bool))
        delta = build_diff_operator(dims[0])
        w_inv = np.linalg.inv(
            params.beta3 * np.eye(dims[0]) + params.beta2 * delta.T @ delta
        )
        if graphs is None:
            G = [zero() for _ in dims]
            lift_sum, duals, core_eigvals, core_scale = G[0], len(dims), None, None
        else:
            ranks = tuple(g.rank for g in graphs)
            G = [zero(ranks[:n] + dims[n:]) for n in range(1, len(dims) + 1)]
            lift_sum, duals = zero(), 1
            # the eigenvalues of the Kronecker sum of the mode Laplacians on
            # the core, where the core update's ridge inverse is diagonal
            core_eigvals = functools.reduce(np.add.outer, [g.low_eigvals for g in graphs])
            weight = 2.0 * params.theta / (len(dims) * params.beta4)
            core_scale = 1.0 / (weight * core_eigvals + 1.0)
        # gamma4 after gamma1..gamma3: the allocation order sets which freed
        # buffers glibc reuses, and so the peak RSS of a process of many solves
        return cls(
            Y=Y, params=params, missing=missing,
            L=zero(), S=zero(), W=zero(), Z=zero(), G=G, gamma1=zero(), gamma2=zero(),
            gamma3=zero(), gamma4=[zero() for _ in range(duals)], w_inv=w_inv,
            lift_sum=lift_sum, scratch=(zero(), zero()), flat=flat, columns=columns,
            graphs=graphs, core_eigvals=core_eigvals, core_scale=core_scale,
        )


def _aligned_zeros(shape, dtype=float):
    """Zeros whose data start on a 64-byte boundary.  numpy aligns its
    buffers to 16 bytes only, and its AVX-512 loops run at about half speed
    when their 64-byte loads and stores straddle two cache lines."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.zeros(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(shape)


def build_diff_operator(I1):
    """Circular first-order differencing matrix along mode 1 (square): row i
    has +1 at i and -1 at the next hour, and the last hour wraps to the first.
    """
    if I1 < 2:
        raise ValueError("differencing needs a mode-1 length of at least 2")
    delta = np.eye(I1) - np.eye(I1, k=1)
    delta[I1 - 1, 0] = -1.0
    return delta


# Smallest tensor (in elements) whose blocks run as two parts.  On 2 vCPUs
# with BLAS on one thread, LOGSS with two parts lost up to 104,832 elements
# and won from 122,304 on; a hand-off to the worker costs 35-60 us.
_TWO_PARTS_MIN = 1 << 17


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_parts(work, parts, worker):
    """``[work(part) for part in parts]`` for one or two parts, run in order
    on the caller's thread for one part or where ``worker`` is None.
    Otherwise the second part runs on ``worker``, under the caller's context
    (so its ``np.errstate``), while the caller runs the first; if the worker
    has not started it by then (its CPU is busy), the caller runs it too.
    Then it returns, or raises the first part's exception before the
    second's, only once both are done."""
    if worker is None or len(parts) == 1:
        return [work(part) for part in parts]
    second = worker.submit(contextvars.copy_context().run, work, parts[1])
    try:
        first = work(parts[0])
    finally:
        if not second.cancel():
            second.exception()  # waits: no part may outlive its block
    return [first, work(parts[1]) if second.cancelled() else second.result()]


def _product(x, matrix, out):
    # matrix times the mode-1 unfolding of x, a tensor or a column slab of one
    np.matmul(matrix, x.reshape(len(x), -1), out=out.reshape(len(out), -1))
    return out


def _differences(x, out, transpose=False):
    # build_diff_operator's circular delta (or delta') times the mode-1 unfolding
    # of x, a tensor or a column slab of one: each row of delta holds one +1 and
    # one -1, so each entry is one rounded subtraction, as the product's sum is
    x, d = x.reshape(len(x), -1), out.reshape(len(out), -1)
    if transpose:
        np.subtract(x[1:], x[:-1], out=d[1:])
        np.subtract(x[0], x[-1], out=d[0])
    else:
        np.subtract(x[:-1], x[1:], out=d[:-1])
        np.subtract(x[-1], x[0], out=d[-1])
    return out


def _per_mode(state, work):
    """``[work(n, scratch) for n in 1..N]`` for the baselines' SVT block, in
    mode order.  Each part of the block (:func:`_in_parts`) has its own
    scratch tensor and takes the next mode from one queue, largest mode
    first, when it is free (``next()`` on a list iterator is atomic under the
    GIL).  One part, or the first of two on one CPU, takes every mode.  A
    mode is never split: a split inside its SVD changed its bits."""
    modes = range(1, state.Y.ndim + 1)
    queue, results = iter(sorted(modes, key=lambda n: -state.Y.shape[n - 1])), {}

    def part(scratch):
        for n in queue:
            results[n] = work(n, scratch)

    _in_parts(part, state.scratch[:len(state.flat)], state.worker)
    return [results[n] for n in modes]


def _fold(state, terms):
    """Adds the full-shape ``terms``, ``(n, tensor)`` pairs in mode order, to
    ``state.lift_sum`` (mode 1 copies) and takes each term's consensus dual
    step, gamma4_n -= L - term, with the residual in ``state.scratch[0]``,
    over the flat parts (:func:`_in_parts`).  Each step reads its term before
    the next term is added, so mode 1's term may be ``lift_sum`` itself.
    Returns each mode's sum of squares of its residual; two parts add theirs,
    as every block that takes a dual step does."""
    def part(v):
        total, r, squares = v(state.lift_sum), v(state.scratch[0]), []
        for n, term in terms:
            if n == 1:
                np.copyto(total, v(term))
            else:
                total += v(term)
            np.subtract(v(state.L), v(term), out=r)
            gamma4 = v(state.gamma4[n - 1])
            gamma4 -= r
            squares.append(float(np.vdot(r, r)))
        return squares

    return list(map(sum, zip(*_in_parts(part, state.flat, state.worker))))


def _lifted_graph_terms(state):
    """Lifts the core back to full shape, K = C x_N P_N ... x_1 P_1, into
    ``state.lift_sum`` through the chain ``state.G``, mode 1's full-size
    product last and over the column parts, and takes the consensus dual
    step gamma4 -= L - K (:func:`_fold`).  Returns its sum of squares."""
    G, graphs = state.G, state.graphs
    for n in range(len(G), 1, -1):
        mode_n_product(G[n - 1], graphs[n - 1].basis, n, out=G[n - 2])
    last = lambda v: _product(v(G[0]), graphs[0].basis, v(state.lift_sum))
    _in_parts(last, state.columns, state.worker)
    return _fold(state, [(1, state.lift_sum)])


def update_low_rank(state):
    """Exact minimizer of the L block.

    On the support the data-fit and the consensus penalties mix; off the
    support only the consensus terms act, giving the plain average of the
    m = ``len(state.gamma4)`` terms: the baselines' N per-mode ones, or
    LOGSS's one, weighted N * beta4.  Adds the gamma4, in mode order, into
    ``state.lift_sum`` in place, which the low-rank block rewrites.
    """
    p = state.params
    N, m = state.Y.ndim, len(state.gamma4)

    def part(v):
        T2, work = v(state.lift_sum), v(state.scratch[0])
        for dual in state.gamma4:
            T2 += v(dual)
        L = np.subtract(v(state.Y), v(state.S), out=v(state.L))  # T1 = Y - S + gamma1
        L += v(state.gamma1)
        L *= p.beta1
        L += np.multiply(T2, p.beta4 * (N / m), out=work)
        L /= p.beta1 + N * p.beta4
        if state.missing is not None:
            T2 /= m
            np.putmask(L, v(state.missing), T2)

    _in_parts(part, state.flat, state.worker)


def update_graph_coeffs(state):
    """Core update, a ridge problem whose inverse is diagonal in the
    Kronecker product of the eigenbases: C = (L - gamma4) x_1 P_1' ...
    x_N P_N' scaled by ``state.core_scale``, through the chain ``state.G``
    (the core last).  Returns the graph energy sum_i w_i c_i^2.  Mode 1's
    product, the one of full size, goes first, over the column parts."""
    G, graphs = state.G, state.graphs

    def first(v):
        diff = np.subtract(v(state.L), v(state.gamma4[0]), out=v(state.scratch[0]))
        _product(diff, graphs[0].basis.T, v(G[0]))

    _in_parts(first, state.columns, state.worker)
    for n in range(2, len(G) + 1):
        mode_n_product(G[n - 2], graphs[n - 1].basis.T, n, out=G[n - 1])
    G[-1] *= state.core_scale
    return float(np.vdot(state.core_eigvals * G[-1], G[-1]))


def update_sparse(state):
    """Proximal update of S (exact on both the support and its complement)."""
    p = state.params

    def part(v):
        T3, T4 = map(v, state.scratch)
        np.subtract(v(state.Y), v(state.L), out=T3)  # T3 = Y - L + gamma1
        T3 += v(state.gamma1)
        T3 *= p.beta1
        np.add(v(state.W), v(state.gamma3), out=T4)  # T4 = W + gamma3
        S = np.multiply(T4, p.beta3, out=v(state.S))
        T3 += S
        soft_threshold(T3, p.lam, out=S)
        S /= p.beta1 + p.beta3
        if state.missing is not None:
            off = soft_threshold(T4, p.lam / p.beta3, out=T3)
            np.putmask(S, v(state.missing), off)

    _in_parts(part, state.flat, state.worker)


def update_smooth_aux(state):
    """Exact solve of the W block via the precomputed mode-1 inverse."""
    p = state.params

    def part(v):
        rhs, z_sum = map(v, state.scratch)
        np.subtract(v(state.S), v(state.gamma3), out=rhs)
        rhs *= p.beta3
        np.add(v(state.gamma2), v(state.Z), out=z_sum)
        W = _differences(z_sum, v(state.W), transpose=True)
        W *= p.beta2
        rhs += W
        _product(rhs, state.w_inv, W)

    _in_parts(part, state.columns, state.worker)


def update_tv_aux(state):
    """Shrinkage update of the mode-1 difference variable Z, then the dual
    step of its constraint Z = delta W: forms delta W in ``state.scratch[1]``,
    leaves the residual delta W - Z there, and returns its sum of squares,
    taken over the flat halves as :func:`update_duals` takes its own."""
    p = state.params

    def part(v):
        w_diff = _differences(v(state.W), v(state.scratch[1]))
        arg = np.subtract(w_diff, v(state.gamma2), out=v(state.scratch[0]))
        Z = soft_threshold(arg, p.gamma / p.beta2, out=v(state.Z))
        gamma2 = v(state.gamma2)
        gamma2 -= np.subtract(w_diff, Z, out=w_diff)

    def squares(v):
        r = v(state.scratch[1])
        return float(np.vdot(r, r))

    _in_parts(part, state.columns, state.worker)
    return sum(_in_parts(squares, state.flat, state.worker))


def update_duals(state):
    """Dual ascent on the data and S = W constraints, in place on gamma1 and
    gamma3 (the low-rank block and :func:`update_tv_aux` take the other
    steps, where their residuals are formed).  Returns the two residuals'
    sums of squares, ``[r_data^2, r_sw^2]``; two parts add theirs.
    """
    def part(v):
        # each residual is written to r, subtracted from its dual, then its
        # sum of squares is taken
        r = v(state.scratch[0])
        np.add(v(state.L), v(state.S), out=r)
        r -= v(state.Y)
        if state.missing is not None:
            np.putmask(r, v(state.missing), 0.0)
        gamma1 = v(state.gamma1)
        gamma1 -= r
        squares = [float(np.vdot(r, r))]
        gamma3 = v(state.gamma3)
        gamma3 -= np.subtract(v(state.S), v(state.W), out=r)
        squares.append(float(np.vdot(r, r)))
        return squares

    return [sum(sq) for sq in zip(*_in_parts(part, state.flat, state.worker))]


def objective_value(state, low_rank_penalty):
    """Objective value at the current primal iterates.

    ``low_rank_penalty`` is the low-rank block's own term as returned by its
    update (graph energy of the core for LOGSS, summed nuclear norms for the
    baselines); recorded for diagnostics only, since ADMM is not monotone.
    """
    p = state.params
    abs_s, abs_tv = state.scratch

    def tv_part(v):
        tv = _differences(v(state.S), v(abs_tv))
        np.abs(tv, out=tv)

    def sums_part(v):
        return float(np.abs(v(state.S), out=v(abs_s)).sum()), float(v(abs_tv).sum())

    _in_parts(tv_part, state.columns, state.worker)
    sparse, tv = map(sum, zip(*_in_parts(sums_part, state.flat, state.worker)))
    return p.theta * low_rank_penalty + p.lam * sparse + p.gamma * tv


def _check_finite(residuals, iteration):
    # every entry of L, S, W and Z enters r_graph, r_sw or r_tv, so finite
    # residual norms imply finite iterates
    for name, value in residuals.items():
        if not math.isfinite(value):
            raise NumericalError(f"non-finite {name} at iteration {iteration}")


def _graph_block(state):
    """LOGSS low-rank block: the core's ridge projection onto the graph
    eigenbases and its lift.  Writes the chain G and the lift and takes the
    gamma4 step; returns the graph energy and the step's sum of squares."""
    return update_graph_coeffs(state), _lifted_graph_terms(state)


def _admm(Y, observed, params, low_rank_block, graphs=None):
    """Scaled-form ADMM loop shared by every solver.

    ``low_rank_block(state)`` (:func:`_graph_block`, or the baselines' SVT
    block) writes ``state.G`` and the sum of the consensus terms tied to L
    to ``state.lift_sum``, takes the consensus dual step of each tensor in
    ``state.gamma4`` and returns its penalty term and the steps' sums of
    squares, one per dual; ``graphs`` sizes G (None: full shape per mode).
    All other blocks, the histories and the stopping rule are common.  The
    loop forms each iteration's residual record, which they read, from the
    sums of squares that the blocks taking dual steps return (sqrt(r.r) is
    np.linalg.norm(r) bit for bit), the largest consensus norm as r_graph_max.
    """
    Y = np.asarray(Y, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if not np.isfinite(Y).all():
        raise NumericalError("non-finite values in Y at iteration 0")
    if params is None:
        params = LogssParams.defaults(Y, observed)

    norm_y = max(1.0, float(np.linalg.norm(project_support(Y, observed))))
    state = SolverState.zeros(Y, observed, params, graphs)
    residual_history, objective_history = [], []
    converged = False
    start = time.perf_counter()

    # the solve's own thread for second parts, joined when the solve ends;
    # None for one part or one usable CPU, and the caller runs every part
    worker = contextlib.nullcontext()
    if len(state.flat) == 2 and _usable_cpus() >= 2:
        from concurrent.futures import ThreadPoolExecutor  # 13 ms to import

        worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="stsad")
    with worker as state.worker:
        for t in range(1, params.max_iter + 1):
            update_low_rank(state)
            penalty, graph = low_rank_block(state)
            update_sparse(state)
            update_smooth_aux(state)
            tv = update_tv_aux(state)
            data, sw = update_duals(state)
            residuals = {"r_data": math.sqrt(data), "r_tv": math.sqrt(tv),
                         "r_sw": math.sqrt(sw), "r_graph_max": max(map(math.sqrt, graph))}

            _check_finite(residuals, t)
            residual_history.append(residuals)
            objective_history.append(objective_value(state, penalty))
            if max(residuals.values()) / norm_y < params.tol:
                converged = True
                break

    return DecompositionResult(
        L=state.L,
        S=state.S,
        residual_history=residual_history,
        objective_history=objective_history,
        wall_time=time.perf_counter() - start,
        converged=converged,
        params=params,
    )


def solve(Y, observed, graphs, params=None):
    """Run the full ADMM loop from the all-zero initialization.

    Parameters
    ----------
    Y : ndarray
        Data tensor (any order >= 2; unobserved entries finite, otherwise arbitrary).
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

    Stops when every primal residual, normalized by ``max(1, ||P_Omega(Y)||_F)``
    (Y on the support, as in the residuals), falls below ``params.tol`` (``converged`` is then True), or at
    ``max_iter``.
    """
    if len(graphs) != np.ndim(Y):
        raise ValueError(f"need {np.ndim(Y)} mode graphs, got {len(graphs)}")
    for n, (size, g) in enumerate(zip(np.shape(Y), graphs), start=1):
        if np.ndim(g.eigvecs) != 2:
            raise ValueError(f"mode {n} graph: eigenvectors {g.eigvecs.shape} are not a matrix")
        if g.basis.shape != (size, g.rank):
            raise ValueError(f"mode {n} graph: eigenbasis {g.basis.shape} is not "
                             f"(mode size, rank) {(size, g.rank)}")
        if not 1 <= g.rank <= size:
            raise ValueError(f"mode {n} graph: rank {g.rank} is not in [1, {size}]")
        if np.ndim(g.eigvals) != 1 or g.low_eigvals.shape != (g.rank,):
            raise ValueError(f"mode {n} graph: eigenvalues {np.shape(g.eigvals)} are not a "
                             f"vector of at least rank {g.rank}")
        if g.mode != n:
            raise ValueError(f"mode {n} graph: built for mode {g.mode}")
    return _admm(Y, observed, params, _graph_block, graphs)
