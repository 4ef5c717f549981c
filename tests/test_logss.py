import collections
import dataclasses
import functools
import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import (
    ODD_COLUMNS_DIMS,
    PARTS_DIMS,
    break_sparse_update,
    force_parts,
    random_state,
    spike_instance,
    stub_graphs,
)

import stsad
from stsad import baselines, instrumentation, logss
from stsad.baselines import _svt_with_norm, solve_loss, svt
from stsad.logss import (
    LogssParams,
    NumericalError,
    SolverState,
    _lifted_graph_terms,
    build_diff_operator,
    solve,
    update_duals,
    update_graph_coeffs,
    update_low_rank,
    update_smooth_aux,
    update_sparse,
    update_tv_aux,
)
from stsad.tensor import fold, mode_n_product, project_support, soft_threshold, unfold

DIMS = (4, 3, 5, 2)
RANKS = (2, 2, 3, 1)


def make_params(**kw):
    base = dict(theta=0.7, lam=0.3, gamma=0.2, beta1=1.1, beta2=0.9,
                beta3=1.3, beta4=0.8)
    base.update(kw)
    return LogssParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(beta2=0.0)
    with pytest.raises(ValueError):
        make_params(lam=-1.0)
    with pytest.raises(ValueError):
        make_params(max_iter=0)
    with pytest.raises(ValueError):
        make_params(tol=-1e-3)


@pytest.mark.parametrize("value", [2.5, np.nan, "3"])
def test_params_reject_a_max_iter_that_is_not_an_integer(value):
    message = f"^max_iter must be an integer of at least 1, got {value}$"
    with pytest.raises(ValueError, match=message):
        make_params(max_iter=value)
    assert make_params(max_iter=np.int64(3)).max_iter == 3  # numpy integers are integers


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "name", ["theta", "lam", "gamma", "beta1", "beta2", "beta3", "beta4", "tol"]
)
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make_params(**{name: value})


def test_params_defaults_scale_with_data():
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(9, 4, 4, 4))
    observed = np.ones(Y.shape, dtype=bool)
    p = LogssParams.defaults(Y, observed)
    assert p.lam == pytest.approx(1 / 3.0)
    assert p.gamma == p.lam
    assert p.beta1 == pytest.approx(1.0 / (5.0 * Y.std()))
    assert p.beta1 == p.beta2 == p.beta3 == p.beta4
    q = LogssParams.defaults(Y, observed, lam=0.05, max_iter=10)
    assert q.lam == 0.05 and q.max_iter == 10


def test_diff_operator_small():
    assert np.array_equal(build_diff_operator(2), [[1.0, -1.0], [-1.0, 1.0]])
    delta = build_diff_operator(6)
    assert np.allclose(delta @ np.ones(6), 0.0)
    assert np.array_equal(
        build_diff_operator(2).T @ build_diff_operator(2), [[2.0, -2.0], [-2.0, 2.0]]
    )
    with pytest.raises(ValueError):
        build_diff_operator(1)


def test_params_have_no_choice_of_difference_operator():
    with pytest.raises(TypeError):
        LogssParams(circular=True)


def test_update_low_rank_zero_case():
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS)
    Y = np.random.default_rng(1).normal(size=DIMS)
    state = SolverState.zeros(Y, np.ones(DIMS, dtype=bool), params, graphs)
    state.S = Y.copy()
    update_low_rank(state)
    assert np.allclose(state.L, 0.0)


def lift(core, graphs):
    """The core's lift to full shape, one mode-n product per mode."""
    for g in graphs:
        core = mode_n_product(core, g.basis, g.mode)
    return core


def test_update_low_rank_unobserved_average():
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS)
    Y = np.zeros(DIMS)
    state = SolverState.zeros(Y, np.zeros(DIMS, dtype=bool), params, graphs)
    state.G[-1][...] = np.random.default_rng(2).normal(size=RANKS)
    lifted = lift(state.G[-1], graphs)
    _lifted_graph_terms(state)
    # the lift's consensus step, gamma4 -= L - K at L = 0, leaves gamma4 = K,
    # and off the support L is the one consensus term K + gamma4
    assert np.allclose(state.gamma4[0], lifted)
    update_low_rank(state)
    assert np.allclose(state.L, lifted + lifted)


def test_update_low_rank_zeroes_gradient():
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS, seed=3)
    rng = np.random.default_rng(5)
    Y = rng.normal(size=DIMS)
    observed = rng.random(DIMS) < 0.8
    state = random_state(DIMS, params, graphs, seed=4, Y=Y, observed=observed)
    _lifted_graph_terms(state)
    K, gamma4 = state.lift_sum.copy(), state.gamma4[0].copy()
    update_low_rank(state)
    # the one core constraint L = K is weighted N * beta4
    L = state.L
    g = (params.beta1 * project_support(L + state.S - Y - state.gamma1, observed)
         + len(DIMS) * params.beta4 * (L - K - gamma4))
    assert np.abs(g).max() <= 1e-8


def project(x, graphs):
    """The projection of a full-shape tensor onto the eigenbases, the core's
    shape, one mode-n product per mode."""
    for g in graphs:
        x = mode_n_product(x, g.basis.T, g.mode)
    return x


def test_update_graph_coeffs_theta_zero():
    params = make_params(theta=0.0)
    graphs = stub_graphs(DIMS, RANKS, seed=6)
    state = random_state(DIMS, params, graphs, seed=7)
    update_graph_coeffs(state)
    assert np.allclose(state.G[-1], project(state.L - state.gamma4[0], graphs))


def test_update_graph_coeffs_zero_frequencies():
    params = make_params(theta=2.0)
    graphs = stub_graphs(DIMS, RANKS, seed=8)
    for g in graphs:
        g.eigvals[:] = 0.0
    state = random_state(DIMS, params, graphs, seed=9)
    assert update_graph_coeffs(state) == 0.0
    assert np.allclose(state.G[-1], project(state.L - state.gamma4[0], graphs))


def test_update_graph_coeffs_scalar_scaling():
    # one retained frequency per mode, each with eigenvalue 2, so w = 2N = 8;
    # with theta/beta4 = 1 the projected core is scaled by 1/(2 * 8/N + 1) = 1/5
    params = make_params(theta=0.8, beta4=0.8)
    graphs = stub_graphs(DIMS, (1, 1, 1, 1), seed=10)
    for g in graphs:
        g.eigvals[:] = 2.0
    state = random_state(DIMS, params, graphs, seed=11)
    penalty = update_graph_coeffs(state)
    core = project(state.L - state.gamma4[0], graphs) / 5.0
    assert np.allclose(state.G[-1], core)
    assert penalty == pytest.approx(8.0 * float(core.ravel()[0]) ** 2)


def test_update_graph_coeffs_zeroes_gradient():
    # the core minimizes theta sum_i w_i c_i^2 + N beta4/2 ||L - gamma4 - lift(C)||^2
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS, seed=12)
    state = random_state(DIMS, params, graphs, seed=13)
    update_graph_coeffs(state)
    C = state.G[-1]
    gradient = (2 * params.theta * state.core_eigvals * C
                - len(DIMS) * params.beta4 * project(state.L - state.gamma4[0] - lift(C, graphs),
                                                     graphs))
    assert np.abs(gradient).max() <= 1e-8


def kronecker_sum(graphs):
    """The eigenvalues of the Kronecker sum of the mode Laplacians, one per
    column of the Kronecker basis."""
    return sum(
        functools.reduce(np.kron, [g.low_eigvals if g is h else np.ones(g.rank) for g in graphs])
        for h in graphs
    )


@pytest.mark.parametrize("parts", [1, 2], ids=["one_part", "two_parts"])
@pytest.mark.parametrize("dims, ranks", [((6, 20, 13), (3, 4, 2)),
                                         ((5, 8, 6, 7), (2, 3, 2, 2))],
                         ids=["order-3", "order-4"])
@pytest.mark.parametrize("theta, eigvals", [(0.7, "one-zero"), (0.0, "one-zero"),
                                            (0.7, "all-zero")],
                         ids=["ridge", "theta-zero", "zero-eigvals"])
def test_core_step_matches_the_dense_kronecker_ridge_in_one_part_and_two(
        monkeypatch, parts, dims, ranks, theta, eigvals):
    # with B the Kronecker basis (x)_n P_n and w the Kronecker sum's
    # eigenvalues, the core minimizes theta w.c^2 + N beta4/2 ||L - gamma4 - B c||^2
    force_parts(monkeypatch, parts)
    graphs = stub_graphs(dims, ranks, seed=12)
    for g in graphs:
        if eigvals == "all-zero":
            g.eigvals[:] = 0.0
    params = make_params(theta=theta)
    state = SolverState.zeros(np.zeros(dims), np.ones(dims, dtype=bool), params, graphs)
    assert len(state.columns) == parts
    rng = np.random.default_rng(13)
    for a in (state.L, state.gamma4[0]):
        a[...] = rng.normal(size=dims)
    L, gamma4 = state.L.copy(), state.gamma4[0].copy()
    B, w = functools.reduce(np.kron, [g.basis for g in graphs]), kronecker_sum(graphs)
    ridge = np.diag(2 * theta * w / (len(dims) * params.beta4)) + np.eye(len(w))
    core = np.linalg.solve(ridge, B.T @ (L - gamma4).ravel())
    K = (B @ core).reshape(dims)

    with ThreadPoolExecutor(max_workers=1) as state.worker:
        penalty = update_graph_coeffs(state)
        squares = _lifted_graph_terms(state)
    # relative to each tensor's largest entry: an entry of a sum may cancel
    for got, want in [(state.G[-1].ravel(), core), (state.lift_sum, K),
                      (state.gamma4[0], gamma4 - (L - K))]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert penalty == pytest.approx(w @ core**2, rel=1e-12)
    assert squares == pytest.approx([np.linalg.norm(L - K) ** 2], rel=1e-12)


def test_update_sparse_no_threshold():
    params = make_params(lam=0.0)
    graphs = stub_graphs(DIMS, RANKS, seed=14)
    rng = np.random.default_rng(16)
    Y = rng.normal(size=DIMS)
    observed = rng.random(DIMS) < 0.5
    state = random_state(DIMS, params, graphs, seed=15, Y=Y, observed=observed)
    update_sparse(state)
    S = state.S
    T3 = Y - state.L + state.gamma1
    T4 = state.W + state.gamma3
    on = (params.beta1 * T3 + params.beta3 * T4) / (params.beta1 + params.beta3)
    assert np.allclose(S[observed], on[observed])
    assert np.allclose(S[~observed], T4[~observed])


def test_update_sparse_full_shrinkage():
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS, seed=17)
    Y = np.random.default_rng(19).normal(size=DIMS)
    state = random_state(DIMS, params, graphs, seed=18, Y=Y)
    T3 = Y - state.L + state.gamma1
    T4 = state.W + state.gamma3
    lam = float(
        max(
            np.abs(params.beta1 * T3 + params.beta3 * T4).max(),
            params.beta3 * np.abs(T4).max(),
        )
    ) + 1.0
    big = make_params(lam=lam)
    for observed in (np.ones(DIMS, dtype=bool), np.zeros(DIMS, dtype=bool)):
        # the same random iterates, under the larger lam
        state = random_state(DIMS, big, graphs, seed=18, Y=Y, observed=observed)
        update_sparse(state)
        assert np.allclose(state.S, 0.0)


def test_update_sparse_matches_grid_prox():
    rng = np.random.default_rng(20)
    grid = np.arange(-8.0, 8.0, 1e-3)
    for _ in range(20):
        t3, t4 = rng.uniform(-3, 3, size=2)
        lam, b1, b3 = rng.uniform(0.1, 2, size=3)
        params = make_params(lam=lam, beta1=b1, beta3=b3)
        graphs = stub_graphs((2, 2, 4, 2), (1, 1, 1, 1), seed=21)
        Y = np.full((2, 2, 4, 2), t3)  # with L = gamma1 = 0: T3 = t3
        for observed in (True, False):
            mask = np.full((2, 2, 4, 2), observed)
            state = SolverState.zeros(Y, mask, params, graphs)
            state.W = np.full((2, 2, 4, 2), t4)  # with gamma3 = 0: T4 = t4
            update_sparse(state)
            S = state.S
            if observed:
                obj = lam * np.abs(grid) + b1 / 2 * (grid - t3) ** 2 + b3 / 2 * (grid - t4) ** 2
            else:
                obj = lam * np.abs(grid) + b3 / 2 * (grid - t4) ** 2
            assert abs(S.ravel()[0] - grid[np.argmin(obj)]) <= 1e-3 + 1e-12


def test_update_smooth_aux_decoupled_limit():
    params = make_params(beta2=1e-12, beta3=1.5)
    graphs = stub_graphs(DIMS, RANKS, seed=22)
    state = random_state(DIMS, params, graphs, seed=23)
    state.Z = np.zeros(DIMS)
    state.gamma2 = np.zeros(DIMS)
    delta = build_diff_operator(DIMS[0])
    state.w_inv = np.linalg.inv(params.beta3 * np.eye(DIMS[0]) + params.beta2 * delta.T @ delta)
    update_smooth_aux(state)
    W = state.W
    assert np.allclose(W, state.S - state.gamma3, atol=1e-9)


def test_w_inv_is_inverse_of_penalty_matrix():
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS, seed=50)
    state = SolverState.zeros(np.zeros(DIMS), np.ones(DIMS, dtype=bool), params, graphs)
    delta = build_diff_operator(DIMS[0])
    system = params.beta3 * np.eye(DIMS[0]) + params.beta2 * delta.T @ delta
    assert np.abs(state.w_inv @ system - np.eye(DIMS[0])).max() <= 1e-10


def test_update_smooth_aux_hand_inverse():
    dims = (2, 3, 4, 2)
    params = make_params(beta2=1.0, beta3=1.0)
    graphs = stub_graphs(dims, (1, 1, 1, 1), seed=24)
    state = random_state(dims, params, graphs, seed=25)
    w_inv_hand = np.array([[3.0, 2.0], [2.0, 3.0]]) / 5.0
    assert np.allclose(state.w_inv, w_inv_hand)
    update_smooth_aux(state)
    W = state.W
    rhs = unfold(state.S - state.gamma3, 1) + build_diff_operator(dims[0]).T @ unfold(
        state.gamma2 + state.Z, 1
    )
    assert np.allclose(unfold(W, 1), w_inv_hand @ rhs)


def test_update_smooth_aux_zeroes_gradient():
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS, seed=26)
    state = random_state(DIMS, params, graphs, seed=27)
    update_smooth_aux(state)
    W = state.W
    W1 = unfold(W, 1)
    delta = build_diff_operator(DIMS[0])
    g = params.beta2 * delta.T @ (
        delta @ W1 - unfold(state.Z + state.gamma2, 1)
    ) + params.beta3 * (W1 - unfold(state.S - state.gamma3, 1))
    assert np.abs(g).max() <= 1e-8


def test_update_tv_aux():
    params = make_params(gamma=0.0)
    graphs = stub_graphs(DIMS, RANKS, seed=28)
    state = random_state(DIMS, params, graphs, seed=29)
    gamma2 = state.gamma2.copy()
    r_tv = update_tv_aux(state)
    w_diff = mode_n_product(state.W, build_diff_operator(DIMS[0]), 1)
    assert np.allclose(state.Z, w_diff - gamma2)
    # then the dual step of Z = delta W, whose residual stays in scratch[1]
    residual = w_diff - state.Z
    assert np.array_equal(state.scratch[1], residual)
    assert np.array_equal(state.gamma2, gamma2 - residual)
    assert r_tv == pytest.approx(np.vdot(residual, residual))

    # constant along mode 1: circular differences vanish
    state = random_state(DIMS, make_params(gamma=2.0), graphs, seed=29)
    state.W = np.ones(DIMS) * 3.7
    state.gamma2 = np.zeros(DIMS)
    update_tv_aux(state)
    assert np.allclose(state.Z, 0.0)


def test_update_tv_aux_matches_grid_prox():
    rng = np.random.default_rng(30)
    grid = np.arange(-8.0, 8.0, 1e-3)
    for _ in range(10):
        a = rng.uniform(-3, 3)
        gam, b2 = rng.uniform(0.1, 2, size=2)
        prox = soft_threshold(np.array([a]), gam / b2)[0]
        obj = gam * np.abs(grid) + b2 / 2 * (grid - a) ** 2
        assert abs(prox - grid[np.argmin(obj)]) <= 1e-3 + 1e-12


def refresh_consensus_terms(state):
    # what the loop's low-rank and Z blocks do before the dual update: the
    # gamma4 and gamma2 steps; returns their residuals' sums of squares, the
    # low-rank block's list and r_tv^2
    return _lifted_graph_terms(state), update_tv_aux(state)


def test_update_duals_fixed_point_and_residuals():
    params = make_params()
    graphs = stub_graphs(DIMS, RANKS, seed=31)
    rng = np.random.default_rng(32)
    Y = rng.normal(size=DIMS)
    observed = rng.random(DIMS) < 0.7

    # a state satisfying every constraint exactly, with no TV shrinkage to
    # move Z off delta W: duals stay put
    state = SolverState.zeros(Y, observed, make_params(gamma=0.0), graphs)
    # L must equal the lifted core: use an exactly representable L
    core = Y
    for g in graphs:
        core = mode_n_product(core, g.basis.T, g.mode)
    L = lift(core, graphs)
    state.L = L
    state.G[-1][...] = core
    state.S = project_support(Y - L, observed)
    state.W = state.S.copy()
    state.Z = mode_n_product(state.W, build_diff_operator(DIMS[0]), 1)
    before = {
        "gamma1": state.gamma1.copy(),
        "gamma2": state.gamma2.copy(),
        "gamma3": state.gamma3.copy(),
        "gamma4": np.stack(state.gamma4),
    }
    graph, tv = refresh_consensus_terms(state)
    data, sw = update_duals(state)
    assert max(graph + [tv, data, sw]) <= 1e-20
    for key, val in before.items():
        assert np.allclose(np.stack(getattr(state, key)), val, atol=1e-10)

    # all-zero state: first dual step absorbs the observed data
    zero = SolverState.zeros(Y, observed, params, graphs)
    refresh_consensus_terms(zero)
    data, _ = update_duals(zero)
    assert np.allclose(zero.gamma1, project_support(Y, observed))
    assert data == pytest.approx(np.linalg.norm(project_support(Y, observed)) ** 2)

    # random state: returned sums of squares match independent recomputation
    state = random_state(DIMS, params, graphs, seed=33, Y=Y, observed=observed)
    graph, tv = refresh_consensus_terms(state)
    data, sw = update_duals(state)
    assert data == pytest.approx(
        np.linalg.norm(project_support(state.L + state.S - Y, observed)) ** 2
    )
    assert tv == pytest.approx(
        np.linalg.norm(mode_n_product(state.W, build_diff_operator(DIMS[0]), 1) - state.Z) ** 2
    )
    assert sw == pytest.approx(np.linalg.norm(state.S - state.W) ** 2)
    assert graph == pytest.approx([np.linalg.norm(state.L - lift(state.G[-1], graphs)) ** 2])


def test_solve_zero_data_is_fixed_point():
    graphs = stub_graphs(DIMS, RANKS, seed=34)
    Y = np.zeros(DIMS)
    result = solve(Y, np.ones(DIMS, dtype=bool), graphs, make_params())
    assert result.iterations == 1
    assert np.allclose(result.L, 0.0)
    assert np.allclose(result.S, 0.0)
    assert len(result.residual_history) == result.iterations


def test_solve_generalizes_beyond_order_4():
    dims = (6, 5, 4)
    graphs = stub_graphs(dims, (2, 2, 2), seed=60)
    rng = np.random.default_rng(61)
    Y = rng.normal(size=dims)
    observed = rng.random(dims) < 0.9
    result = solve(Y, observed, graphs, make_params(max_iter=30, tol=0.0))
    assert result.iterations == 30
    assert result.L.shape == dims and result.S.shape == dims
    assert np.isfinite(result.L).all() and np.isfinite(result.S).all()


def test_solve_uses_data_driven_defaults_when_params_omitted():
    dims = (6, 4, 5, 3)
    graphs = stub_graphs(dims, (2, 2, 2, 1), seed=62)
    Y = np.random.default_rng(63).uniform(1, 3, size=dims)
    result = solve(Y, np.ones(dims, dtype=bool), graphs)
    assert result.iterations >= 1
    assert np.isfinite(result.S).all()


def test_solve_rejects_bad_inputs():
    graphs = stub_graphs(DIMS, RANKS, seed=35)
    Y = np.zeros(DIMS)
    with pytest.raises(ValueError):
        solve(Y, np.ones((2, 2), dtype=bool), graphs, make_params())
    with pytest.raises(ValueError):
        solve(Y, np.ones(DIMS, dtype=bool), graphs[:2], make_params())
    bad = Y.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        solve(bad, np.ones(DIMS, dtype=bool), graphs, make_params())


def test_params_defaults_reject_a_mask_of_another_shape():
    # the defaults index Y with the mask before any solver checks its shape
    with pytest.raises(ValueError, match="mask shape does not match tensor shape"):
        LogssParams.defaults(np.zeros(DIMS), np.ones(DIMS[:3] + (1,), dtype=bool))


def test_params_defaults_reject_an_empty_support():
    # the std of no entries is NaN, with a numpy warning
    with pytest.raises(ValueError, match="^no observed entries$"):
        LogssParams.defaults(np.zeros(DIMS), np.zeros(DIMS, dtype=bool))


def test_solve_rejects_graphs_that_do_not_fit_the_tensor():
    graphs = stub_graphs(DIMS, RANKS, seed=35)
    Y = np.zeros(DIMS)
    observed = np.ones(DIMS, dtype=bool)
    too_high = [dataclasses.replace(graphs[0], rank=DIMS[0] + 1)] + graphs[1:]
    negative = [dataclasses.replace(graphs[0], rank=-1)] + graphs[1:]
    swapped = [graphs[1], graphs[0]] + graphs[2:]
    for bad in (too_high, negative, swapped):
        with pytest.raises(ValueError, match=r"^mode 1 graph: eigenbasis \(\d+, -?\d+\) is not \(mode size, rank\) \(4, "):
            solve(Y, observed, bad, make_params())
    # equal-sized modes: the swapped graphs fit in shape, but not in mode
    dims = (4, 4, 5, 2)
    graphs = stub_graphs(dims, RANKS, seed=35)
    swapped = [graphs[1], graphs[0]] + graphs[2:]
    with pytest.raises(ValueError, match=r"^mode 1 graph: built for mode 2$"):
        solve(np.zeros(dims), np.ones(dims, dtype=bool), swapped, make_params())
    # graph files of the wrong shape, as decompose may load them
    graphs = stub_graphs(DIMS, RANKS, seed=35)
    mode2 = graphs[1]
    for bad, message in [
        (dataclasses.replace(mode2, eigvecs=mode2.eigvecs.ravel()),
         r"eigenvectors \(9,\) are not a matrix"),
        (dataclasses.replace(mode2, eigvals=mode2.eigvals[:1]),
         r"eigenvalues \(1,\) are not a vector of at least rank 2"),
        (dataclasses.replace(mode2, eigvals=np.diag(mode2.eigvals)),
         r"eigenvalues \(3, 3\) are not a vector of at least rank 2"),
    ]:
        with pytest.raises(ValueError, match=rf"^mode 2 graph: {message}$"):
            solve(Y, observed, [graphs[0], bad] + graphs[2:], make_params())


def test_result_carries_the_params_the_run_used():
    graphs = stub_graphs(DIMS, RANKS, seed=36)
    Y = np.random.default_rng(37).normal(size=DIMS)
    observed = np.ones(DIMS, dtype=bool)
    params = make_params(max_iter=3, tol=0.0)
    result = solve(Y, observed, graphs, params)
    assert result.params is params
    defaults = LogssParams.defaults(Y, observed, max_iter=3)
    assert solve(Y, observed, graphs, defaults).params == defaults


def reference_admm(Y, observed, params, graphs=None):
    """The solvers' iteration written out as plain array expressions.

    ``graphs`` None runs the LOSS low-rank block (per-mode SVT); otherwise
    LOGSS's one consensus L = K, weighted N * beta4, where K lifts the core
    C through the eigenbases and w holds the Kronecker sum's eigenvalues.
    """
    p, N = params, Y.ndim
    delta = build_diff_operator(Y.shape[0])
    w_inv = np.linalg.inv(p.beta3 * np.eye(Y.shape[0]) + p.beta2 * delta.T @ delta)
    S = W = Z = gamma1 = gamma2 = gamma3 = np.zeros(Y.shape)
    m = N if graphs is None else 1
    gamma4 = lifted = [np.zeros(Y.shape)] * m
    if graphs is not None:
        w = 0.0
        for n, g in enumerate(graphs):
            w = w + g.low_eigvals.reshape((1,) * n + (-1,) + (1,) * (N - n - 1))
        scale = 1.0 / (2.0 * p.theta / (N * p.beta4) * w + 1.0)
    history, objectives = [], []
    for _ in range(p.max_iter):
        T2 = lifted[0]
        for term in lifted[1:] + gamma4:
            T2 = T2 + term
        L = (p.beta1 * (Y - S + gamma1) + p.beta4 * (N / m) * T2) / (p.beta1 + N * p.beta4)
        L = np.where(observed, L, T2 / m)
        if graphs is None:
            updated = [
                _svt_with_norm(unfold(L - gamma4[n - 1], n), p.theta / p.beta4)
                for n in range(1, N + 1)
            ]
            lifted = [fold(low, n, Y.shape) for n, (low, _) in enumerate(updated, start=1)]
            penalty = sum(nuc for _, nuc in updated)
        else:
            C = L - gamma4[0]
            for n, g in enumerate(graphs, start=1):
                C = fold(g.basis.T @ unfold(C, n), n, C.shape[:n - 1] + (g.rank,) + C.shape[n:])
            C = C * scale
            penalty = float(np.vdot(w * C, C))
            K = C
            for n, g in reversed(list(enumerate(graphs, start=1))):
                K = fold(g.basis @ unfold(K, n), n, K.shape[:n - 1] + (len(g.basis),) + K.shape[n:])
            lifted = [K]
        T3, T4 = Y - L + gamma1, W + gamma3
        S = soft_threshold(p.beta1 * T3 + p.beta3 * T4, p.lam) / (p.beta1 + p.beta3)
        S = np.where(observed, S, soft_threshold(T4, p.lam / p.beta3))
        z_term = p.beta2 * mode_n_product(gamma2 + Z, delta.T, 1)
        W = mode_n_product(p.beta3 * (S - gamma3) + z_term, w_inv, 1)
        w_diff = mode_n_product(W, delta, 1)
        Z = soft_threshold(w_diff - gamma2, p.gamma / p.beta2)
        r_data, r_tv, r_sw = np.where(observed, L + S - Y, 0.0), w_diff - Z, S - W
        r_graph = [L - lift for lift in lifted]
        gamma1, gamma2, gamma3 = gamma1 - r_data, gamma2 - r_tv, gamma3 - r_sw
        gamma4 = [dual - r for dual, r in zip(gamma4, r_graph)]
        norms = [float(np.linalg.norm(r)) for r in [r_data, r_tv, r_sw] + r_graph]
        residuals = dict(zip(("r_data", "r_tv", "r_sw"), norms))
        residuals["r_graph_max"] = max(norms[3:])
        history.append(residuals)
        tv = float(np.abs(mode_n_product(S, delta, 1)).sum())
        objectives.append(p.theta * penalty + p.lam * float(np.abs(S).sum()) + p.gamma * tv)
    return L, S, history, objectives


@pytest.mark.parametrize("solver", ["logss", "loss"])
@pytest.mark.parametrize("masked", [False, True])
def test_solvers_match_reference_loop_bit_for_bit(solver, masked):
    graphs = stub_graphs(DIMS, RANKS, seed=70)
    rng = np.random.default_rng(71)
    Y = rng.normal(size=DIMS)
    # 10 % observed: the masked copies write most of each tensor
    draws = rng.random(DIMS)
    masks = [draws < 0.7, draws < 0.1] if masked else [np.ones(DIMS, dtype=bool)]
    params = make_params(max_iter=25, tol=0.0)
    for observed in masks:
        if solver == "logss":
            result = solve(Y, observed, graphs, params)
            L, S, history, objectives = reference_admm(Y, observed, params, graphs)
        else:
            result = solve_loss(Y, observed, params)
            L, S, history, objectives = reference_admm(Y, observed, params)
        assert result.iterations == 25
        assert np.array_equal(result.L, L) and np.array_equal(result.S, S)
        assert result.residual_history == history
        assert result.objective_history == objectives


def test_back_to_back_solves_share_no_memory():
    graphs = stub_graphs(DIMS, RANKS, seed=72)
    Y = np.random.default_rng(73).normal(size=DIMS)
    observed = np.ones(DIMS, dtype=bool)
    params = make_params(max_iter=5, tol=0.0)
    first, second = (solve(Y, observed, graphs, params) for _ in range(2))
    for a in (first.L, first.S):
        for b in (second.L, second.S):
            assert not np.shares_memory(a, b)
    assert not np.shares_memory(first.L, first.S)
    assert np.array_equal(first.L, second.L) and np.array_equal(first.S, second.S)


BLOCKS = (
    "update_low_rank", "update_graph_coeffs", "_lifted_graph_terms", "update_sparse",
    "update_smooth_aux", "update_tv_aux", "update_duals", "objective_value", "_check_finite",
)


@pytest.mark.parametrize(
    "solver, dims",
    [("logss", DIMS), ("loss", DIMS), ("logss", PARTS_DIMS), ("loss", PARTS_DIMS)],
    ids=["logss", "loss", "logss-two-parts", "loss-two-parts"],
)
def test_each_block_is_called_once_per_iteration_by_its_module_name(monkeypatch, solver,
                                                                    dims):
    # a tracer times each block by wrapping its module-level name; a block
    # inlined or called under another name would silently time as zero.
    # Parts of a block must not call it again, from either thread.
    calls = collections.Counter()
    lock = threading.Lock()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            with lock:
                calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    force_parts(monkeypatch, 2 if dims == PARTS_DIMS else 1)
    for name in BLOCKS:
        count(logss, name)
    count(baselines, "_svt_with_norm")
    graphs = stub_graphs(dims, RANKS, seed=74)
    Y = np.random.default_rng(75).normal(size=dims)
    observed = np.random.default_rng(76).random(dims) < 0.8
    params = make_params(max_iter=5, tol=0.0)
    per_iteration = dict.fromkeys(BLOCKS, 1)
    if solver == "logss":
        solve(Y, observed, graphs, params)
        per_iteration["_svt_with_norm"] = 0
    else:
        solve_loss(Y, observed, params)
        per_iteration.update(update_graph_coeffs=0, _lifted_graph_terms=0,
                             _svt_with_norm=len(dims))
    assert {name: calls[name] for name in per_iteration} == {
        name: 5 * k for name, k in per_iteration.items()
    }


def parts_instance(masked, seed=80, dims=PARTS_DIMS):
    graphs = stub_graphs(dims, (3, 2, 4, 3), seed=seed)
    rng = np.random.default_rng(seed + 1)
    Y = rng.normal(size=dims)
    if not masked:
        return Y, np.ones(dims, dtype=bool), graphs
    # in the layout load_tensor and load_mask return, which parts must not see
    return np.asfortranarray(Y), np.asfortranarray(rng.random(dims) < 0.7), graphs


def run_solver(solver, Y, observed, graphs, params):
    if solver == "logss":
        return solve(Y, observed, graphs, params)
    return solve_loss(Y, observed, params)


def assert_two_parts_on_one_cpu_match_two_cpus(monkeypatch, solver, Y, observed, graphs,
                                               params):
    """Solve as two parts on one CPU and on two, check that the second part
    ran on the caller's thread, then on the worker, and that the runs agree
    in every bit; return the two-CPU run."""
    threads = set()
    real = logss.soft_threshold
    calls = meet = None

    def traced(*args, **kwargs):
        threads.add(threading.get_ident())
        if meet is not None and next(calls) < 2:
            # a worker that starts late leaves its part to the caller, so the
            # first two calls wait for each other
            meet.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(logss, "soft_threshold", traced)
    runs = []
    for cpus in (1, 2):
        threads.clear()
        if cpus == 2:
            calls, meet = itertools.count(), threading.Barrier(2, timeout=10)
        force_parts(monkeypatch, 2, cpus=cpus)
        runs.append(run_solver(solver, Y, observed, graphs, params))
        assert len(threads) == cpus
    one_cpu, two_cpus = runs
    assert np.array_equal(one_cpu.L, two_cpus.L) and np.array_equal(one_cpu.S, two_cpus.S)
    assert one_cpu.residual_history == two_cpus.residual_history
    assert one_cpu.objective_history == two_cpus.objective_history
    return two_cpus


@pytest.mark.parametrize("solver", ["logss", "loss"])
@pytest.mark.parametrize("masked", [False, True])
def test_two_parts_match_one_part(monkeypatch, solver, masked):
    Y, observed, graphs = parts_instance(masked)
    params = make_params(max_iter=5, tol=0.0)
    force_parts(monkeypatch, 1)
    one = run_solver(solver, Y, observed, graphs, params)
    two = assert_two_parts_on_one_cpu_match_two_cpus(monkeypatch, solver, Y, observed,
                                                     graphs, params)
    assert np.array_equal(one.L, two.L) and np.array_equal(one.S, two.S)
    assert one.objective_history == two.objective_history
    # two parts add their sums of squares, so the norms may differ in bits
    for a, b in zip(one.residual_history, two.residual_history, strict=True):
        assert b == pytest.approx(a, rel=1e-13, abs=0)


def at_offset(a, offset):
    """A C-ordered copy of ``a`` whose data start ``offset`` bytes past a
    64-byte boundary."""
    raw = np.zeros(a.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    copy = raw[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    copy[...] = a
    return copy


@pytest.mark.parametrize("parts", [1, 2], ids=["one_part", "two_parts"])
@pytest.mark.parametrize("solver", ["logss", "loss"])
def test_state_tensors_start_on_64_byte_boundaries_in_parts(monkeypatch, solver, parts):
    # off a 64-byte boundary, numpy's AVX-512 loops split cache lines
    graphs = stub_graphs(PARTS_DIMS, (3, 2, 4, 3), seed=82) if solver == "logss" else None
    Y, observed = parts_instance(masked=True)[:2]
    force_parts(monkeypatch, parts)
    for Y_in in (Y, at_offset(Y, 8), at_offset(Y, 16)):  # F-ordered, then C-ordered
        state = SolverState.zeros(Y_in, at_offset(observed, 8), make_params(), graphs)
        assert len(state.flat) == parts
        tensors = [state.L, state.S, state.W, state.Z, state.gamma1, state.gamma2,
                   state.gamma3, *state.gamma4, state.lift_sum, *state.scratch, state.Y]
        # LOGSS's G is the core chain, whose first tensor the column parts view
        viewed = [(a, state.flat) for a in tensors]
        if solver == "logss":
            viewed += [(state.G[0], state.columns)] + [(a, ()) for a in state.G[1:]]
        else:
            viewed += [(a, state.flat) for a in state.G]
        for a, views in viewed:
            assert a.flags.c_contiguous and a.ctypes.data % 64 == 0
            for view in views:
                assert view(a).ctypes.data % 64 == 0
        assert state.missing.flags.c_contiguous and state.missing.ctypes.data % 64 == 0
        assert np.array_equal(state.Y, Y) and np.array_equal(state.missing, ~observed)
    aligned = at_offset(Y, 0)  # already aligned and C-ordered: copied all the same
    state = SolverState.zeros(aligned, observed, make_params(), graphs)
    assert not np.shares_memory(state.Y, aligned)


@pytest.mark.parametrize("parts", [1, 2], ids=["one_part", "two_parts"])
@pytest.mark.parametrize("solver", ["logss", "loss"])
def test_unaligned_inputs_give_the_bits_of_aligned_ones_in_parts(monkeypatch, solver,
                                                                  parts):
    Y, observed, graphs = parts_instance(masked=True)
    params = make_params(max_iter=5, tol=0.0)
    force_parts(monkeypatch, parts)
    runs = [run_solver(solver, Y_in, mask, graphs, params) for Y_in, mask in [
        (at_offset(Y, 0), at_offset(observed, 0)),  # the reference: aligned, C-ordered
        (at_offset(Y, 8), at_offset(observed, 8)),
        (np.asfortranarray(Y), np.asfortranarray(observed)),
    ]]
    for run in runs[1:]:
        assert np.array_equal(run.L, runs[0].L) and np.array_equal(run.S, runs[0].S)
        assert run.residual_history == runs[0].residual_history
        assert run.objective_history == runs[0].objective_history


@pytest.mark.parametrize("solver", ["logss", "loss"])
@pytest.mark.parametrize("masked", [False, True])
def test_two_parts_on_one_cpu_match_two_cpus_at_2415_columns(monkeypatch, solver, masked):
    # at 2415 columns the halves' products round differently from the whole
    # one's, so one part and two may differ in their last digits; one CPU
    # and two run the same halves and must not
    Y, observed, graphs = parts_instance(masked, seed=84, dims=ODD_COLUMNS_DIMS)
    params = make_params(max_iter=5, tol=0.0)
    assert_two_parts_on_one_cpu_match_two_cpus(monkeypatch, solver, Y, observed, graphs,
                                               params)


# 2 rows: the wrap, where the first and last rows are each other's only neighbour
@pytest.mark.parametrize("rows", [PARTS_DIMS[0], 2])
@pytest.mark.parametrize("parts", [1, 2], ids=["one_part", "two_parts"])
def test_mode1_differences_are_the_delta_products_bits_in_parts(monkeypatch, rows, parts):
    # each entry of delta x (or delta' x) is one subtraction, which is what
    # the product's sum of one +1 and one -1 term rounds to
    force_parts(monkeypatch, parts)
    dims = (rows,) + PARTS_DIMS[1:]
    x = np.random.default_rng(85).normal(size=dims)
    x[3:6] = 0.0  # zero differences, whose sign the comparison ignores
    state = SolverState.zeros(x, np.ones(dims, dtype=bool), make_params())
    assert len(state.columns) == parts
    delta = build_diff_operator(rows)
    for matrix, transpose in ((delta, False), (delta.T, True)):
        ours, product = np.full(dims, np.nan), np.full(dims, np.nan)
        for view in state.columns:
            logss._differences(view(x), view(ours), transpose=transpose)
            logss._product(view(x), matrix, view(product))
        assert np.array_equal(ours, product)


# distinct sizes, so that a mode is known by its size
QUEUE_DIMS = (9, 5, 11, 7)


def trace_svts(monkeypatch):
    """Record ``(mode, thread)`` for each per-mode SVT that the solves which
    follow make, in the order they start."""
    calls, lock = [], threading.Lock()
    real = baselines._svt_with_norm

    def svt(M, tau, out=None):
        with lock:
            calls.append((QUEUE_DIMS.index(len(M)) + 1, threading.get_ident()))
        return real(M, tau, out=out)

    monkeypatch.setattr(baselines, "_svt_with_norm", svt)
    return calls


def queue_instance(seed):
    Y = np.random.default_rng(seed).normal(size=QUEUE_DIMS)
    return Y, np.ones(QUEUE_DIMS, dtype=bool), None


@pytest.mark.parametrize("solver", ["loss"])
def test_two_parts_work_every_mode_once_per_iteration(monkeypatch, solver):
    calls = trace_svts(monkeypatch)
    force_parts(monkeypatch, 2, cpus=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the parts take their modes from one iterator
    try:
        run_solver(solver, *queue_instance(87), make_params(max_iter=40, tol=0.0))
    finally:
        sys.setswitchinterval(interval)
    # a block's parts are done before the next block starts, so each run of
    # four calls is one block, and has each mode once
    blocks = [calls[k:k + 4] for k in range(0, len(calls), 4)]
    assert len(blocks) == 40
    for block in blocks:
        assert sorted(n for n, _ in block) == [1, 2, 3, 4]


@pytest.mark.parametrize("solver, order", [("loss", [3, 1, 4, 2])], ids=["svt-block"])
def test_parts_take_the_modes_in_their_blocks_order(monkeypatch, solver, order):
    # the SVTs take one queue, largest mode first.  One part, or the first of
    # two on one CPU, takes every mode, in that order
    Y, observed, graphs = queue_instance(89)
    calls = trace_svts(monkeypatch)
    for parts in (1, 2):
        calls.clear()
        force_parts(monkeypatch, parts, cpus=1)
        run_solver(solver, Y, observed, graphs, make_params(max_iter=2, tol=0.0))
        assert [n for n, _ in calls] == order * 2  # 2 iterations
        assert {thread for _, thread in calls} == {threading.get_ident()}
        # each part works in its own scratch tensor, and the results come back
        # in mode order, whatever order the modes ran in
        state = SolverState.zeros(Y, observed, make_params(), graphs)
        started, taken = threading.Barrier(parts, timeout=10), []

        def work(n, scratch):
            first = threading.get_ident() not in {thread for thread, _, _ in taken}
            taken.append((threading.get_ident(), n, scratch))
            if first:
                started.wait()  # no part takes a second mode before each has one
            return -n

        with ThreadPoolExecutor(max_workers=1) as worker:
            state.worker = worker if parts == 2 else None
            assert logss._per_mode(state, work) == [-1, -2, -3, -4]
        caller = [(n, s) for thread, n, s in taken if thread == threading.get_ident()]
        other = [(n, s) for thread, n, s in taken if thread != threading.get_ident()]
        if parts == 1:
            assert [n for n, _ in caller] == order and other == []
        else:
            assert sorted(n for n, _ in caller + other) == [1, 2, 3, 4]
            for share in (caller, other):  # each takes its modes in the queue's order
                modes = [n for n, _ in share]
                assert modes and sorted(modes, key=order.index) == modes
            assert all(s is state.scratch[1] for _, s in other)
        assert all(s is state.scratch[0] for _, s in caller)


@pytest.mark.parametrize("solver", ["logss", "loss"])
@pytest.mark.parametrize("dims, ranks", [((24, 7, 40), (3, 2, 4)),
                                         ((12, 5, 6, 4, 5), (3, 2, 4, 2, 3))],
                         ids=["order-3", "order-5"])
def test_two_parts_of_odd_order_tensors_match_one_cpu(monkeypatch, solver, dims, ranks):
    # an odd order leaves one part of the SVT queue a mode more than the
    # other, and gives LOGSS's projection-lift chain another length
    graphs = stub_graphs(dims, ranks, seed=89)
    rng = np.random.default_rng(90)
    Y, observed = rng.normal(size=dims), rng.random(dims) < 0.8
    params = make_params(max_iter=20, tol=0.0)
    force_parts(monkeypatch, 1)
    one = run_solver(solver, Y, observed, graphs, params)
    two = assert_two_parts_on_one_cpu_match_two_cpus(monkeypatch, solver, Y, observed,
                                                     graphs, params)
    assert np.array_equal(one.L, two.L) and np.array_equal(one.S, two.S)


@pytest.mark.parametrize("solver", ["logss", "loss"])
@pytest.mark.parametrize("flat_index", [0, -1], ids=["first-part", "second-part"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_nan_in_one_part_raises_at_its_iteration(monkeypatch, solver, flat_index):
    # within the Z block, gamma2 enters Z and so r_tv at its own entry only,
    # so the NaN is in one part's sums
    Y, observed, graphs = parts_instance(masked=False)
    force_parts(monkeypatch, 2)
    real = logss.update_tv_aux
    calls = itertools.count(1)

    def patched(state):
        if next(calls) == 3:
            state.gamma2.reshape(-1)[flat_index] = np.nan
        return real(state)

    monkeypatch.setattr(logss, "update_tv_aux", patched)
    with pytest.raises(NumericalError, match=r"^non-finite r_tv at iteration 3$"):
        run_solver(solver, Y, observed, graphs, make_params(max_iter=10, tol=0.0))


@pytest.mark.parametrize("mode", [1, 2, 3, 4])
def test_a_raising_lift_ends_a_two_part_solve_and_its_worker(monkeypatch, mode):
    # a lift that raises, on the caller (modes N..2) or on both column parts
    # (mode 1, after the other part is done with its half), ends the solve
    # with its exception and joins the solve's worker; the solve must not hang
    Y, observed, graphs = parts_instance(masked=False)
    force_parts(monkeypatch, 2, cpus=2)
    real_product, real_mode_n_product = logss._product, logss.mode_n_product
    lift_shape = graphs[mode - 1].basis.shape  # a projection's matrix is its transpose

    def raise_in_lift(n, matrix):
        if n == mode and matrix.shape == lift_shape:
            time.sleep(0.1)
            raise ZeroDivisionError(f"lift of mode {n}")

    def product(x, matrix, out):  # mode 1's products
        raise_in_lift(1, matrix)
        return real_product(x, matrix, out)

    def mode_n_product(x, matrix, n, out=None):
        raise_in_lift(n, matrix)
        return real_mode_n_product(x, matrix, n, out=out)

    monkeypatch.setattr(logss, "_product", product)
    monkeypatch.setattr(logss, "mode_n_product", mode_n_product)
    errors = []

    def run():
        try:
            solve(Y, observed, graphs, make_params(max_iter=3, tol=0.0))
        except ZeroDivisionError as exc:
            errors.append(str(exc))

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive()
    assert errors == [f"lift of mode {mode}"]
    assert not [t for t in threading.enumerate() if t.name.startswith("stsad")]


def test_concurrent_two_part_solves_sum_their_lifts_in_mode_order(monkeypatch):
    # four threads on at most two cores, switching often: a lift added to
    # the sum out of mode order would change its bits against one CPU's run
    Y, observed, graphs = parts_instance(masked=False)
    params = make_params(max_iter=5, tol=0.0)
    force_parts(monkeypatch, 2, cpus=1)
    reference = solve(Y, observed, graphs, params)
    force_parts(monkeypatch, 2, cpus=2)
    results = {}

    def run(k):
        results[k] = solve(Y, observed, graphs, params)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == 2
    for result in results.values():
        assert np.array_equal(result.L, reference.L) and np.array_equal(result.S, reference.S)
        assert result.residual_history == reference.residual_history


@pytest.mark.parametrize("parts", [1, 2], ids=["one_part", "two_parts"])
@pytest.mark.parametrize("group", [
    [(1, "scratch0")],
    [(3, "scratch0"), (4, "scratch1")],
    [(1, "lift_sum"), (2, "G1"), (3, "G2"), (4, "G3")],
], ids=["one_term", "two_terms", "first_term_is_the_sum"])
def test_fold_matches_a_plain_loop_in_one_part_and_two(monkeypatch, parts, group):
    # a term may live in the scratch, whose first tensor also takes the
    # residuals; LOGSS's one term and the SVT block's first are lift_sum
    # itself, so mode 1's step must read it before any other term is added
    force_parts(monkeypatch, parts)
    rng = np.random.default_rng(96)
    state = SolverState.zeros(np.zeros(PARTS_DIMS), np.ones(PARTS_DIMS, dtype=bool),
                              make_params(), None)
    assert len(state.flat) == parts and state.lift_sum is state.G[0]
    tensors = {"scratch0": state.scratch[0], "scratch1": state.scratch[1],
               "lift_sum": state.lift_sum, "G1": state.G[1], "G2": state.G[2],
               "G3": state.G[3]}
    for a in [state.L, *state.gamma4, *tensors.values()]:
        a[...] = rng.normal(size=PARTS_DIMS)
    terms = [(n, tensors[name]) for n, name in group]
    total, gamma4, squares = state.lift_sum.copy(), [g.copy() for g in state.gamma4], []
    for n, term in terms:
        total = term.copy() if n == 1 else total + term
        r = state.L - term
        gamma4[n - 1] -= r
        squares.append(float(np.vdot(r, r)))

    with ThreadPoolExecutor(max_workers=1) as state.worker:
        got = logss._fold(state, terms)
    assert np.array_equal(state.lift_sum, total)
    for mine, theirs in zip(state.gamma4, gamma4, strict=True):
        assert np.array_equal(mine, theirs)
    # two parts add their sums of squares
    assert got == pytest.approx(squares, rel=1e-13, abs=0)


@pytest.mark.parametrize("parts", [1, 2], ids=["one_part", "two_parts"])
@pytest.mark.parametrize("solver", ["logss", "loss"])
def test_dual_step_blocks_return_their_residual_sums_in_one_part_and_two(monkeypatch,
                                                                        solver, parts):
    # the loop forms its residual record from what the blocks return, so each
    # block's sums of squares must be those of the residuals it stepped on
    force_parts(monkeypatch, parts)
    graphs = stub_graphs(PARTS_DIMS, (3, 2, 4, 3), seed=97) if solver == "logss" else None
    rng = np.random.default_rng(98)
    state = SolverState.zeros(rng.normal(size=PARTS_DIMS), rng.random(PARTS_DIMS) < 0.7,
                              make_params(), graphs)
    assert len(state.flat) == parts
    for a in [state.L, state.S, state.W, state.Z, state.gamma2, state.gamma3,
              *state.gamma4]:
        a[...] = rng.normal(size=PARTS_DIMS)
    tau = state.params.theta / state.params.beta4
    # the SVT block's G^n, from L and gamma4 as they are before its steps
    svt_terms = [fold(svt(unfold(state.L - g, n), tau), n, PARTS_DIMS)
                 for n, g in enumerate(state.gamma4, start=1)]

    with ThreadPoolExecutor(max_workers=1) as state.worker:
        if solver == "logss":
            _, graph = logss._graph_block(state)
            terms = [lift(state.G[-1], graphs)]
        else:
            _, graph = baselines._svt_block(state)
            terms = svt_terms
        tv = update_tv_aux(state)
        data, sw = update_duals(state)

    w_diff = mode_n_product(state.W, build_diff_operator(PARTS_DIMS[0]), 1)
    expected = [
        *(np.linalg.norm(state.L - term) ** 2 for term in terms),
        np.linalg.norm(w_diff - state.Z) ** 2,
        np.linalg.norm(project_support(state.L + state.S - state.Y, ~state.missing)) ** 2,
        np.linalg.norm(state.S - state.W) ** 2,
    ]
    assert [*graph, tv, data, sw] == pytest.approx(expected, rel=1e-12, abs=0)


# a 3-iteration solve's tracemalloc peak, in tensors of Y's size, above
# which a change has added a tensor-sized buffer: the state holds 12 for
# LOGSS at any order and 18 for the baselines, and the rest is the mask,
# LOGSS's core chain (r_1/I_1 of Y and less) and, for the baselines, the
# SVDs' copies
FOOTPRINT_RANKS = {3: (4, 2, 2), 4: (4, 2, 2, 2), 5: (3, 2, 2, 2, 2)}


@pytest.mark.parametrize("solver, dims, parts, bound", [
    ("logss", (24, 7, 52, 16), 2, 13.5),
    ("logss", (24, 7, 12, 8), 1, 13.5),
    ("loss", (24, 7, 52, 16), 2, 20.5),
    ("logss", (24, 7, 40), 1, 13.5),
    ("logss", (12, 5, 6, 4, 5), 1, 13.5),
])
def test_solver_state_footprint(monkeypatch, solver, dims, parts, bound):
    force_parts(monkeypatch, parts)
    graphs = stub_graphs(dims, FOOTPRINT_RANKS[len(dims)], seed=92)
    rng = np.random.default_rng(93)
    Y = rng.normal(size=dims)
    observed = rng.random(dims) < 0.8
    params = make_params(max_iter=3, tol=0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_solver(solver, Y, observed, graphs, params)
        peak = (tracemalloc.get_traced_memory()[1] - before) / Y.nbytes
    finally:
        tracemalloc.stop()
    print(f"SOLVER MEMORY: {solver} at {'x'.join(map(str, dims))} in {parts} part(s) "
          f"peaks at {peak:.2f} tensors of Y's size (bound {bound})", flush=True)
    assert peak <= bound


def test_an_error_in_the_second_part_propagates(monkeypatch):
    Y, observed, graphs = parts_instance(masked=False)
    force_parts(monkeypatch, 2)
    caller = threading.get_ident()
    real = logss.soft_threshold

    def failing(*args, **kwargs):
        if threading.get_ident() != caller:
            raise ZeroDivisionError("in the worker")
        return real(*args, **kwargs)

    monkeypatch.setattr(logss, "soft_threshold", failing)
    with pytest.raises(ZeroDivisionError, match="in the worker"):
        solve(Y, observed, graphs, make_params(max_iter=3, tol=0.0))


def test_parts_raise_only_once_both_are_done():
    done = []
    started = threading.Event()

    def work(part):
        name, delay, error = part
        if name == "worker":
            started.set()
        else:  # the caller's part: the worker has its own part by now
            assert started.wait(10)
        time.sleep(delay)
        done.append(name)
        if error is not None:
            raise error

    with ThreadPoolExecutor(max_workers=1) as worker:
        # the caller's part fails while the worker's part still writes
        with pytest.raises(KeyError):
            logss._in_parts(work, [("caller", 0, KeyError()), ("worker", 0.2, None)], worker)
        assert done == ["caller", "worker"]
        done.clear()
        started.clear()
        with pytest.raises(KeyError):
            logss._in_parts(work, [("caller", 0.2, None), ("worker", 0, KeyError())], worker)
        assert done == ["worker", "caller"]
        done.clear()
        started.clear()
        # both fail: the first part's error is the one raised
        with pytest.raises(KeyError):
            logss._in_parts(work, [("caller", 0, KeyError()), ("worker", 0, IndexError())],
                            worker)


def test_a_second_part_the_worker_has_not_started_runs_on_the_caller():
    # the worker is busy with other work (as when its CPU is)
    release = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as worker:
        blocker = worker.submit(release.wait, 10)
        try:
            threads = logss._in_parts(lambda k: threading.get_ident(), [0, 1], worker)
        finally:
            release.set()
            blocker.result(10)
    assert threads == [threading.get_ident()] * 2


def test_the_second_part_runs_under_the_callers_errstate():
    started = threading.Event()

    def work(x):
        if x < 0:  # the worker's part
            started.set()
            return np.log(np.array(x))
        assert started.wait(10)

    with ThreadPoolExecutor(max_workers=1) as worker, np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            logss._in_parts(work, [1.0, -1.0], worker)


def stsad_threads():
    return [t for t in threading.enumerate() if t.name.startswith("stsad")]


def trace_threads(monkeypatch, meet):
    """Record the threads alive at each soft-threshold call of the solves
    that follow.  With ``meet``, the first two calls wait for each other, so
    that a worker which starts late cannot leave its part to the caller."""
    seen = []
    real = logss.soft_threshold
    calls, barrier = itertools.count(), threading.Barrier(2, timeout=10)

    def traced(*args, **kwargs):
        seen.append((threading.current_thread(), set(threading.enumerate())))
        if meet and next(calls) < 2:
            barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(logss, "soft_threshold", traced)
    return seen


@pytest.mark.parametrize("solver", ["logss", "loss"])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_no_worker_outlives_a_two_part_solve(monkeypatch, solver, fails):
    Y, observed, graphs = parts_instance(masked=False)
    force_parts(monkeypatch, 2, cpus=2)
    seen = trace_threads(monkeypatch, meet=True)
    if fails:
        break_sparse_update(monkeypatch, 2)
        with pytest.raises(NumericalError, match="at iteration 2$"):
            run_solver(solver, Y, observed, graphs, make_params(max_iter=3, tol=0.0))
    else:
        run_solver(solver, Y, observed, graphs, make_params(max_iter=3, tol=0.0))
    assert {thread.name for thread, _ in seen} == {threading.main_thread().name, "stsad_0"}
    assert stsad_threads() == []


@pytest.mark.parametrize("solver", ["logss", "loss"])
@pytest.mark.parametrize("parts, cpus", [(1, 2), (2, 1)], ids=["one_part", "two_parts-one_cpu"])
def test_parts_on_the_caller_start_no_worker(monkeypatch, solver, parts, cpus):
    Y, observed, graphs = parts_instance(masked=True)
    force_parts(monkeypatch, parts, cpus=cpus)
    seen = trace_threads(monkeypatch, meet=False)
    before = set(threading.enumerate())
    run_solver(solver, Y, observed, graphs, make_params(max_iter=3, tol=0.0))
    assert seen and all(thread is threading.main_thread() and alive <= before
                        for thread, alive in seen)


def test_a_two_part_solve_has_a_worker_only_on_two_usable_cpus(monkeypatch):
    # the CPU count unpatched, so that under a one-CPU affinity mask this
    # tests the real one
    two_cpus = logss._usable_cpus() >= 2
    Y, observed, graphs = parts_instance(masked=False)
    monkeypatch.setattr(logss, "_TWO_PARTS_MIN", 0)
    seen = trace_threads(monkeypatch, meet=two_cpus)
    before = set(threading.enumerate())
    solve(Y, observed, graphs, make_params(max_iter=3, tol=0.0))
    started = set().union(*(alive for _, alive in seen)) - before
    assert [t.name for t in started] == (["stsad_0"] if two_cpus else [])
    assert stsad_threads() == []


@pytest.mark.parametrize("solver", ["logss", "loss"])
def test_two_part_solves_in_two_threads_give_the_bits_of_serial_ones(monkeypatch, solver):
    # each solve has its own worker, which the other's parts never wait for
    Y, observed, graphs = parts_instance(masked=True)
    params = make_params(max_iter=5, tol=0.0)
    force_parts(monkeypatch, 2, cpus=2)
    serial = run_solver(solver, Y, observed, graphs, params)
    results = {}

    def run(k):
        results[k] = run_solver(solver, Y, observed, graphs, params)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for c in callers:
            c.start()
        for c in callers:
            c.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers) and len(results) == 2
    for result in results.values():
        assert np.array_equal(result.L, serial.L) and np.array_equal(result.S, serial.S)
        assert result.residual_history == serial.residual_history
        assert result.objective_history == serial.objective_history
    assert stsad_threads() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_a_child_forked_after_a_two_part_solve_can_solve(monkeypatch):
    # a worker thread does not survive a fork; reusing one in the child hung it
    Y, observed, graphs = parts_instance(masked=False)
    params = make_params(max_iter=3, tol=0.0)
    force_parts(monkeypatch, 2)
    solve(Y, observed, graphs, params)
    assert stsad_threads() == []  # the solve's worker was joined before it returned
    child = multiprocessing.get_context("fork").Process(
        target=solve, args=(Y, observed, graphs, params))
    child.start()
    try:
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_a_tensor_runs_as_two_parts_from_the_threshold_on_whatever_the_cpu_count(
        monkeypatch):
    def parts(dims, cpus):
        monkeypatch.setattr(logss, "_usable_cpus", lambda: cpus)
        Y = np.zeros(dims)
        return len(SolverState.zeros(Y, np.ones(dims, dtype=bool), make_params()).flat)

    at = (2, logss._TWO_PARTS_MIN // 2)
    assert parts(at, 1) == parts(at, 2) == parts(at, 16) == 2
    assert parts((2, logss._TWO_PARTS_MIN // 2 - 1), 2) == 1
    assert parts(DIMS, 2) == 1
    # with no worker (one CPU) the caller runs both parts, in order
    ran = logss._in_parts(lambda k: (k, threading.get_ident()), [0, 1], None)
    assert ran == [(0, threading.get_ident()), (1, threading.get_ident())]


def test_usable_cpus_are_the_affinity_mask_where_there_is_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert logss._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert logss._usable_cpus() == 8


def test_importing_the_cli_does_not_import_the_thread_pool():
    # concurrent.futures costs about 13 ms; only a two-part solve needs it
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(stsad.__file__)))
    code = "import sys, stsad.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src_dir))
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def spike_params(Y, observed, **kw):
    # constraint penalties at 1/std enforce the splitting fast enough to
    # reach tight residuals on this instance
    beta = 1.0 / Y.std()
    kw.setdefault("tol", 1e-4)
    kw.setdefault("max_iter", 300)
    return LogssParams.defaults(
        Y, observed, beta1=beta, beta2=beta, beta3=beta, beta4=beta, **kw
    )


@pytest.fixture(scope="module")
def spike_run():
    Y, graphs, spike_idx, low = spike_instance()
    observed = np.ones(Y.shape, dtype=bool)
    params = spike_params(Y, observed)
    result = solve(Y, observed, graphs, params)
    return Y, graphs, spike_idx, observed, params, result


def test_solve_spike_instance_converges(spike_run):
    Y, _, spike_idx, observed, _, result = spike_run
    norm_y = np.linalg.norm(Y)
    data_residual = np.linalg.norm(
        project_support(result.L + result.S - Y, observed)
    )
    assert data_residual / norm_y <= 1e-3
    assert np.unravel_index(np.argmax(np.abs(result.S)), Y.shape) == spike_idx


def test_solve_reports_convergence(spike_run):
    Y, graphs, _, observed, params, result = spike_run
    assert result.converged is True
    assert result.iterations < params.max_iter
    capped = dataclasses.replace(params, max_iter=5, tol=0.0)
    result = solve(Y, observed, graphs, capped)
    assert result.converged is False
    assert result.iterations == 5


@pytest.mark.parametrize("solver", ["logss", "loss"])
def test_unobserved_entries_of_y_change_no_bit(solver):
    # they are arbitrary: the stopping rule, like the residuals, reads Y on
    # the support only
    graphs = stub_graphs(DIMS, RANKS, seed=5)
    rng = np.random.default_rng(6)
    Y = rng.normal(size=DIMS)
    observed = rng.random(DIMS) < 0.7
    params = make_params(max_iter=2000, tol=1e-3)

    def run(fill):
        filled = np.where(observed, Y, fill)
        if solver == "logss":
            return solve(filled, observed, graphs, params)
        return solve_loss(filled, observed, params)

    base = run(0.0)
    assert base.converged and base.iterations < params.max_iter
    for fill in (1e4, -7.5, rng.uniform(-1e3, 1e3, DIMS)):
        other = run(fill)
        assert (other.iterations, other.converged) == (base.iterations, True)
        assert other.L.tobytes() == base.L.tobytes()
        assert other.S.tobytes() == base.S.tobytes()
        assert other.residual_history == base.residual_history
        assert other.objective_history == base.objective_history


@pytest.mark.parametrize(
    "run",
    [
        lambda Y, observed, graphs, params: solve(Y, observed, graphs, params),
        lambda Y, observed, graphs, params: solve_loss(Y, observed, params),
    ],
    ids=["logss", "loss"],
)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_iterate_raises_at_its_iteration(monkeypatch, run):
    graphs = stub_graphs(DIMS, RANKS, seed=37)
    Y = np.random.default_rng(38).normal(size=DIMS)
    observed = np.ones(DIMS, dtype=bool)
    break_sparse_update(monkeypatch, 3)
    with pytest.raises(NumericalError, match=r"at iteration 3$"):
        run(Y, observed, graphs, make_params(max_iter=10, tol=0.0))


def test_solve_residuals_monotone_tail_at_convergence(spike_run):
    Y, graphs, _, observed, _, _ = spike_run
    params = spike_params(Y, observed, tol=2e-5, max_iter=600)
    result = solve(Y, observed, graphs, params)
    assert result.iterations < params.max_iter  # stopped by tol, not budget
    norm_y = max(1.0, np.linalg.norm(Y))
    assert max(result.residual_history[-1].values()) / norm_y < params.tol
    history = result.residual_history
    assert len(history) >= 11
    for key in ("r_data", "r_tv", "r_sw", "r_graph_max"):
        tail = [h[key] for h in history[-10:]]
        for a, b in zip(tail, tail[1:]):
            assert b <= a * (1 + 1e-6)


def test_solve_uses_no_spectral_ops(spike_run):
    Y, graphs, _, observed, params, _ = spike_run
    before = instrumentation.snapshot()
    solve(Y, observed, graphs, params)
    after = instrumentation.snapshot()
    assert after["svd"] == before["svd"]
    assert after["eig"] == before["eig"]


def test_solve_with_missing_fibers_matches_full_run(spike_run):
    Y, graphs, _, observed, params, result = spike_run
    rng = np.random.default_rng(36)
    fiber_dims = Y.shape[1:]
    n_fibers = int(np.prod(fiber_dims))
    dropped = rng.choice(n_fibers, size=n_fibers // 5, replace=False)
    omega = np.ones(Y.shape, dtype=bool)
    for flat in dropped:
        omega[(slice(None),) + np.unravel_index(flat, fiber_dims)] = False
    partial = solve(Y, omega, graphs, params)
    rel = np.linalg.norm(partial.L - result.L) / np.linalg.norm(result.L)
    assert rel <= 0.10


def test_solve_histories_align(spike_run):
    *_, result = spike_run
    assert len(result.residual_history) == result.iterations
    assert len(result.objective_history) == result.iterations
    assert result.wall_time > 0
    rows = result.diagnostics_rows()
    assert rows[0]["iter"] == 1
    assert set(rows[0]) == {"iter", "r_data", "r_tv", "r_sw", "r_graph_max", "objective"}


def per_iteration_time(dims, iters=12, seed=0):
    ranks = tuple(max(1, d // 4) for d in dims)
    graphs = stub_graphs(dims, ranks, seed=seed)
    Y = np.random.default_rng(seed).normal(size=dims)
    observed = np.ones(dims, dtype=bool)
    params = LogssParams.defaults(Y, observed, tol=0.0, max_iter=iters)
    result = solve(Y, observed, graphs, params)
    return result.wall_time / result.iterations


_SCALING_TIMES = """
from test_logss import per_iteration_time
per_iteration_time((8, 8, 8, 8), iters=3)  # warm-up
print(per_iteration_time((8, 8, 8, 8)), per_iteration_time((16, 16, 16, 16)))
"""


def test_linear_scaling_smoke():
    # timed in a fresh process with BLAS pinned to one thread: a multi-threaded
    # OpenBLAS pool on a small VM can slow whole solves down about 10x
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(stsad.__file__)))
    path = os.pathsep.join([src_dir, tests_dir, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _SCALING_TIMES], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    small, large = map(float, proc.stdout.split())
    doublings = np.log2((16 / 8) ** 4)
    assert large / small <= 2.8**doublings
