"""ADMM solver for the graph-regularized low-rank plus temporally smooth
sparse decomposition (LOGSS).

Observed data Y is split as L + S on the support: L is constrained to be a
low graph-frequency signal on every mode (via projections G^n onto the
truncated Laplacian eigenbases), S is sparse with small total variation
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
import math
import os
import threading
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
    iterations: int
    residual_history: list[dict]
    objective_history: list[float]
    wall_time: float
    svd_history: list[int] = field(default_factory=list)
    converged: bool = False
    params: LogssParams | None = None  # as the run used them

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
    """Everything one ADMM run reads and writes, allocated once.  Each block
    takes only the state and overwrites its own variable in it, so an
    iteration allocates no tensor.

    ``Y``, ``params`` and ``missing`` (the unobserved entries, inverted once;
    None on full support) are fixed for the run, and ``w_inv`` (W update) and
    ``projectors`` (G update) are precomputed from them.
    ``G`` holds the per-mode spectral coefficients (mode-n dimension J_n).
    ``lift_sum`` holds the sum of their lifts to full shape, which the L
    update turns into the sum of the lifts and the gamma4 in place.  Each lift
    lives only in its part's ``scratch`` tensor (two work tensors), where its
    consensus dual step is taken; the low-rank block and :func:`update_tv_aux`
    record the sums of squares of the residuals whose dual steps they take in
    ``squares`` (``r_graph``, one per mode, and ``r_tv``), which
    :func:`update_duals` reads.  For LOGSS that is 15 tensors of Y's size: Y,
    L, S, W, Z, gamma1..gamma3, N = 4 gamma4, ``lift_sum`` and the scratch.
    For the baselines ``graphs`` and ``projectors`` are None and ``G``
    holds full-shape per-mode low-rank tensors, of which the first is also
    ``lift_sum`` (18 tensors); their block appends its SVD count per
    iteration to ``svd_history``.  ``flat`` and ``columns`` hold one view
    function per part a block runs as (see :func:`_in_parts`): the whole
    tensor, or the halves of its flat index and the column halves of its
    mode-1 unfolding.  ``worker`` runs second parts during a solve, if it is
    not None (:func:`_admm`).  ``Y``, ``missing`` and every tensor the
    state allocates are C-ordered and start on a 64-byte boundary
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
    projectors: list[np.ndarray] | None = None
    squares: dict = field(default_factory=dict)
    svd_history: list[int] = field(default_factory=list)
    worker: object = None

    @classmethod
    def zeros(cls, Y, observed, params, graphs=None):
        dims = Y.shape
        flat = columns = (lambda a: a,)
        if Y.size >= _TWO_PARTS_MIN:
            # the flat index is halved where numpy's pairwise sum splits it, so
            # per-part sums add up to the whole sum bit for bit; the mode-1
            # unfolding on a multiple of 64 columns (an unaligned split changed
            # some entries of the products by 1 ulp against the whole tensor's)
            n, rows = Y.size, dims[0]
            h, c = n // 2 - n // 2 % 8, round(n // rows / 128) * 64
            flat = tuple(lambda a, s=s: a.reshape(-1)[s] for s in (slice(h), slice(h, n)))
            columns = tuple(lambda a, s=s: a.reshape(rows, -1)[:, s]
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
        if graphs is not None:
            G = [zero(dims[:n] + (g.rank,) + dims[n + 1:]) for n, g in enumerate(graphs)]
            lift_sum = zero()
            # the G update's ridge inverse is diagonal in the eigenbasis
            weight = 2.0 * params.theta / params.beta4
            scales = [1.0 / (weight * g.low_eigvals + 1.0) for g in graphs]
            projectors = [s[:, None] * g.basis.T for s, g in zip(scales, graphs)]
        else:
            G = [zero() for _ in dims]
            lift_sum, projectors = G[0], None
        return cls(
            Y=Y, params=params, missing=missing,
            L=zero(), S=zero(), W=zero(), Z=zero(), G=G, gamma1=zero(), gamma2=zero(),
            gamma3=zero(), gamma4=[zero() for _ in dims], w_inv=w_inv,
            lift_sum=lift_sum, scratch=(zero(), zero()), flat=flat,
            columns=columns, graphs=graphs, projectors=projectors,
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
    on the caller's thread where ``worker`` is None.  Otherwise the second
    part runs on ``worker``, under the caller's context (so its
    ``np.errstate``), while the caller runs the first; if the worker has not
    started it by then (its CPU is busy), the caller runs it too.  Then it
    returns, or raises the first part's exception before the second's, only
    once both are done."""
    if worker is None:
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


def _per_mode(state, work, largest_first=False):
    """``[work(n, scratch) for n in 1..N]`` for a per-mode block, in mode order.
    Each part of the block (:func:`_in_parts`) has its own scratch tensor and
    takes the next mode from one iterator over the modes when it is free
    (``next()`` on a list iterator is atomic under the GIL): in mode order,
    or largest first (by the extent of ``state.G`` along the mode).  One
    part, or the first of two on one CPU, takes every mode.  A mode is never
    split: a split inside its product changed its bits."""
    modes = range(1, state.Y.ndim + 1)
    key = (lambda n: -state.G[n - 1].shape[n - 1]) if largest_first else None
    queue, results = iter(sorted(modes, key=key)), {}

    def part(scratch):
        for n in queue:
            results[n] = work(n, scratch)

    _in_parts(part, state.scratch[:len(state.flat)], state.worker)
    return [results[n] for n in modes]


def _consensus_step(state, n, lift, out):
    """Mode n's consensus dual step, gamma4_n -= L - lift, with the residual
    written to ``out`` (which may be ``lift``); returns the residual's sum of
    squares, taken over the flat halves as :func:`update_duals` takes its own."""
    r = np.subtract(state.L, lift, out=out)
    state.gamma4[n - 1] -= r
    return sum(float(np.vdot(v(r), v(r))) for v in state.flat)


def _lifted_graph_terms(state):
    """Lifts each G^n back to full shape, G^n x_n P_hat_n, into its part's
    scratch tensor and adds it to ``state.lift_sum`` (mode 1 copies), then
    takes mode n's consensus dual step in that scratch and records its sum
    of squares in ``state.squares["r_graph"]``.

    The lifts are added in mode order, so the sum has the bits of lift_1 +
    ... + lift_N: the parts take the modes in mode order, and a part whose
    lift of mode n is done waits until modes 1..n-1 are in.  A part that
    raises ends the other's wait, so that one returns and the block raises
    (:func:`_in_parts`) instead of hanging."""
    added = threading.Condition()
    count, failed = 0, False  # modes in the sum; whether a part has raised

    def mode(n, lift):
        nonlocal count, failed
        try:
            mode_n_product(state.G[n - 1], state.graphs[n - 1].basis, n, out=lift)
            with added:
                added.wait_for(lambda: count == n - 1 or failed)
            if failed:
                return None
            if n == 1:
                np.copyto(state.lift_sum, lift)
            else:
                state.lift_sum += lift
        except BaseException:
            with added:
                failed = True
                added.notify_all()
            raise
        with added:
            count = n
            added.notify_all()
        return _consensus_step(state, n, lift, out=lift)

    state.squares["r_graph"] = _per_mode(state, mode)


def update_low_rank(state):
    """Exact minimizer of the L block.

    On the support the data-fit and the N graph-consensus penalties mix; off
    the support only the graph terms act, giving the plain average of the
    lifted contributions.  Adds the gamma4, in mode order, into
    ``state.lift_sum`` in place, which the low-rank block rewrites.
    """
    p = state.params
    N = state.Y.ndim

    def part(v):
        T2, work = v(state.lift_sum), v(state.scratch[0])
        for dual in state.gamma4:
            T2 += v(dual)
        L = np.subtract(v(state.Y), v(state.S), out=v(state.L))  # T1 = Y - S + gamma1
        L += v(state.gamma1)
        L *= p.beta1
        L += np.multiply(T2, p.beta4, out=work)
        L /= p.beta1 + N * p.beta4
        if state.missing is not None:
            T2 /= N
            np.putmask(L, v(state.missing), T2)

    _in_parts(part, state.flat, state.worker)


def update_graph_coeffs(state):
    """Per-mode spectral coefficient updates; returns the graph energy
    sum_n tr(G^n' Lambda_n G^n), summed in mode order.

    Each mode solves an independent ridge problem in the truncated eigenbasis;
    the matrix inverse is diagonal, so it is applied as a row scaling of the
    projected unfolding (``state.projectors``).
    """
    def mode(n, diff):
        np.subtract(state.L, state.gamma4[n - 1], out=diff)
        G = mode_n_product(diff, state.projectors[n - 1], n, out=state.G[n - 1])
        g = state.graphs[n - 1]
        c = G.reshape(-1, g.rank, math.prod(G.shape[n:]))
        return float(g.low_eigvals @ np.einsum("arb,arb->r", c, c))

    return sum(_per_mode(state, mode))


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
    leaves the residual delta W - Z there, and records its sum of squares,
    taken over the flat halves as :func:`update_duals` takes its own, in
    ``state.squares["r_tv"]``."""
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
    state.squares["r_tv"] = sum(_in_parts(squares, state.flat, state.worker))


def update_duals(state):
    """Dual ascent on the data and S = W constraints, in place on gamma1 and
    gamma3 (the low-rank block and :func:`update_tv_aux` take the other
    steps, where their residuals are formed, and record their sums of
    squares in ``state.squares``).

    Returns the primal residual norms used both for the stopping rule and
    the diagnostics.
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

    # sqrt(r.r) is np.linalg.norm(r) bit for bit; two parts add their sums
    r_data, r_sw = (sum(sq) for sq in zip(*_in_parts(part, state.flat, state.worker)))
    return {
        "r_data": math.sqrt(r_data),
        "r_tv": math.sqrt(state.squares["r_tv"]),
        "r_sw": math.sqrt(r_sw),
        "r_graph_max": max(map(math.sqrt, state.squares["r_graph"])),
    }


def objective_value(state, low_rank_penalty):
    """Objective value at the current primal iterates.

    ``low_rank_penalty`` is the low-rank block's own term as returned by its
    update (graph energy of G for LOGSS, summed nuclear norms for the
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
    """LOGSS low-rank block: ridge projections onto the graph eigenbases.  Writes
    G and the sum of its lifts and takes the gamma4 steps; returns the graph
    energy."""
    energy = update_graph_coeffs(state)
    _lifted_graph_terms(state)
    return energy


def _admm(Y, observed, params, low_rank_block, graphs=None):
    """Scaled-form ADMM loop shared by every solver.

    ``low_rank_block(state)`` (:func:`_graph_block`, or the baselines' SVT
    block) writes ``state.G`` and the sum of the consensus terms tied to L
    to ``state.lift_sum``, takes each mode's consensus dual step on
    ``state.gamma4``, records the steps' sums of squares in
    ``state.squares["r_graph"]`` and returns its penalty term; ``graphs``
    sizes G (None: full shape per mode).  All other blocks, the histories and
    the stopping rule are common.
    """
    Y = np.asarray(Y, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != Y.shape:
        raise ValueError("mask shape does not match tensor shape")
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
            penalty = low_rank_block(state)
            update_sparse(state)
            update_smooth_aux(state)
            update_tv_aux(state)
            residuals = update_duals(state)

            _check_finite(residuals, t)
            residual_history.append(residuals)
            objective_history.append(objective_value(state, penalty))
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
        svd_history=state.svd_history,
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
