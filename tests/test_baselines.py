import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from conftest import PARTS_DIMS, force_parts, spike_instance

from stsad import baselines, instrumentation
from stsad.baselines import _svt_with_norm, solve_horpca, solve_loss, svt
from stsad.logss import LogssParams, solve
from stsad.tensor import project_support


def nuclear_2x2_grid(M, tau, lo=-1.5, hi=1.5, step=0.25):
    """Dense grid argmin of tau*||X||_* + 0.5*||X - M||_F^2 over 2x2 X."""
    axis = np.arange(lo, hi + step / 2, step)
    A, B, C, D = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    q = A**2 + B**2 + C**2 + D**2
    det = np.abs(A * D - B * C)
    nuclear = np.sqrt(q + 2 * det)
    fit = (
        (A - M[0, 0]) ** 2
        + (B - M[0, 1]) ** 2
        + (C - M[1, 0]) ** 2
        + (D - M[1, 1]) ** 2
    )
    objective = tau * nuclear + 0.5 * fit
    best = np.unravel_index(np.argmin(objective), objective.shape)
    return np.array([[axis[best[0]], axis[best[1]]], [axis[best[2]], axis[best[3]]]])


def test_svt_diagonal():
    out = svt(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_svt_tau_zero_reconstructs():
    M = np.random.default_rng(0).normal(size=(4, 6))
    assert np.linalg.norm(svt(M, 0.0) - M) <= 1e-8
    for tau in (-0.5, np.nan):
        with pytest.raises(ValueError, match="^threshold must be nonnegative"):
            svt(M, tau)


def test_svt_matches_grid_prox():
    rng = np.random.default_rng(1)
    step = 0.25
    for _ in range(10):
        M = rng.uniform(-1, 1, size=(2, 2))
        tau = rng.uniform(0.05, 0.5)
        ours = svt(M, tau)
        grid_best = nuclear_2x2_grid(M, tau, step=step)
        assert np.abs(ours - grid_best).max() <= step + 1e-12


def test_svt_shrinks_singular_values():
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = rng.normal(size=(5, 7))
        tau = rng.uniform(0, 2)
        s_in = np.linalg.svd(M, compute_uv=False)
        s_out = np.linalg.svd(svt(M, tau), compute_uv=False)
        assert s_out.sum() <= s_in.sum() + 1e-10
        assert np.allclose(s_out, np.maximum(s_in - tau, 0.0), atol=1e-8)


def svt_matrices():
    rng = np.random.default_rng(6)
    low = rng.normal(size=(9, 2)) @ rng.normal(size=(2, 14))
    return {"wide": rng.normal(size=(6, 40)), "tall": rng.normal(size=(40, 6)),
            "square": rng.normal(size=(12, 12)), "rank-2-wide": low,
            "rank-2-tall": low.T.copy()}


@pytest.mark.parametrize("name", list(svt_matrices()))
def test_svt_matches_the_thresholded_svd_of_m(name):
    # whichever side the SVD is taken on, the result is U diag((s - tau)+) V'
    # of M's own SVD
    M = svt_matrices()[name]
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    bound = 1e-12 * np.linalg.norm(M)
    for tau in (0.0, s[1], s[-1], s[0], 2 * s[0]):
        kept = np.maximum(s - tau, 0.0)
        expected = (U * kept) @ Vt
        out = np.full(M.shape, np.nan)
        low, nuclear = _svt_with_norm(M, tau, out=out)
        assert low is out
        for result in (low, svt(M, tau)):
            assert result.shape == M.shape
            assert np.abs(result - expected).max() <= bound
        assert np.abs(svt(M.T, tau) - expected.T).max() <= bound
        assert nuclear == pytest.approx(kept.sum(), rel=1e-12, abs=bound)
        if tau > s[0]:  # at s[0] itself the other side's s[0] may be 1 ulp larger
            assert not low.any() and nuclear == 0.0


def baseline_params(Y, observed, **kw):
    beta = 1.0 / Y.std()
    kw.setdefault("tol", 1e-4)
    kw.setdefault("max_iter", 300)
    return LogssParams.defaults(
        Y, observed, beta1=beta, beta2=beta, beta3=beta, beta4=beta, **kw
    )


def test_solve_loss_zero_data():
    Y = np.zeros((4, 3, 5, 2))
    observed = np.ones(Y.shape, dtype=bool)
    result = solve_loss(Y, observed, LogssParams())
    assert result.iterations == 1
    assert np.allclose(result.L, 0.0)
    assert np.allclose(result.S, 0.0)


def test_solve_loss_exactly_low_rank_data():
    rng = np.random.default_rng(3)
    vecs = [rng.uniform(1.0, 2.0, size=d) for d in (6, 5, 8, 4)]
    Y = np.einsum("i,j,k,l->ijkl", *vecs)
    observed = np.ones(Y.shape, dtype=bool)
    result = solve_loss(Y, observed, baseline_params(Y, observed))
    assert np.abs(result.S).sum() / np.abs(Y).sum() <= 1e-2


@pytest.fixture(scope="module")
def spike_loss_run():
    Y, graphs, spike_idx, _ = spike_instance()
    observed = np.ones(Y.shape, dtype=bool)
    params = baseline_params(Y, observed)
    result = solve_loss(Y, observed, params)
    return Y, graphs, spike_idx, observed, params, result


def test_solve_loss_spike_instance(spike_loss_run):
    Y, _, spike_idx, observed, _, result = spike_loss_run
    residual = np.linalg.norm(project_support(result.L + result.S - Y, observed))
    assert residual / np.linalg.norm(Y) <= 1e-3
    assert np.unravel_index(np.argmax(np.abs(result.S)), Y.shape) == spike_idx


def test_loss_performs_exactly_n_svds_per_iteration(spike_loss_run):
    Y, _, _, observed, params, _ = spike_loss_run
    short = dataclasses.replace(params, max_iter=7, tol=0.0)
    before = instrumentation.snapshot()["svd"]
    result = solve_loss(Y, observed, short)
    total = instrumentation.snapshot()["svd"] - before
    assert result.iterations == 7
    assert total == 7 * Y.ndim


def test_logss_iterations_cost_no_svds_and_less_time(spike_loss_run):
    Y, graphs, _, observed, params, _ = spike_loss_run
    same = dataclasses.replace(params, max_iter=40, tol=0.0)
    before = instrumentation.snapshot()
    fast = solve(Y, observed, graphs, same)
    assert instrumentation.snapshot()["svd"] == before["svd"]
    slow = solve_loss(Y, observed, same)
    assert fast.iterations == slow.iterations == 40
    assert fast.wall_time < slow.wall_time


def test_horpca_equals_loss_with_gamma_zero():
    rng = np.random.default_rng(4)
    Y = rng.normal(size=(5, 4, 6, 3))
    observed = rng.random(Y.shape) < 0.9
    params = baseline_params(Y, observed, max_iter=25, tol=0.0)
    reference = solve_loss(Y, observed, dataclasses.replace(params, gamma=0.0))
    horpca = solve_horpca(Y, observed, params)
    assert np.array_equal(horpca.L, reference.L)
    assert np.array_equal(horpca.S, reference.S)


def test_baseline_results_carry_the_params_the_run_used():
    Y = np.random.default_rng(5).normal(size=(4, 3, 5, 2))
    observed = np.ones(Y.shape, dtype=bool)
    params = baseline_params(Y, observed, max_iter=2, tol=0.0)
    assert solve_loss(Y, observed, params).params is params
    assert solve_horpca(Y, observed, params).params == dataclasses.replace(params, gamma=0.0)


def test_horpca_zero_data_and_spike():
    Y = np.zeros((4, 3, 5, 2))
    observed = np.ones(Y.shape, dtype=bool)
    result = solve_horpca(Y, observed, LogssParams())
    assert np.allclose(result.L, 0.0) and np.allclose(result.S, 0.0)

    Y, _, spike_idx, _ = spike_instance()
    observed = np.ones(Y.shape, dtype=bool)
    result = solve_horpca(Y, observed, baseline_params(Y, observed))
    residual = np.linalg.norm(project_support(result.L + result.S - Y, observed))
    assert residual / np.linalg.norm(Y) <= 1e-3


@pytest.mark.parametrize("horpca", [False, True])
def test_two_part_baselines_count_and_share_every_svd(monkeypatch, horpca):
    # the four SVDs of an iteration are shared by the two threads, and each
    # is counted.  The parts take modes from one queue, so a worker that
    # starts late would leave every mode to the caller: the first two SVDs
    # wait for each other, which makes both threads take one
    force_parts(monkeypatch, 2)
    threads = []
    real = baselines._svt_with_norm
    calls, meet = itertools.count(), threading.Barrier(2, timeout=10)

    def traced(*args, **kwargs):
        threads.append(threading.get_ident())
        if next(calls) < 2:
            meet.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "_svt_with_norm", traced)
    Y = np.random.default_rng(90).normal(size=PARTS_DIMS)
    observed = np.ones(PARTS_DIMS, dtype=bool)
    params = LogssParams.defaults(Y, observed, max_iter=5, tol=0.0)
    before = instrumentation.snapshot()["svd"]
    (solve_horpca if horpca else solve_loss)(Y, observed, params)
    assert instrumentation.snapshot()["svd"] - before == 20
    assert len(threads) == 20 and len(set(threads)) == 2


def test_concurrent_solves_each_count_their_own_svds():
    # two solves that switch threads often both finish, and the process-wide
    # counter takes every SVD of each
    Y = np.random.default_rng(91).normal(size=(12, 7, 6, 5))
    observed = np.ones(Y.shape, dtype=bool)
    params = LogssParams.defaults(Y, observed, max_iter=200, tol=0.0)
    results = {}
    before = instrumentation.snapshot()["svd"]

    def run(k):
        results[k] = solve_loss(Y, observed, params)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert [r.iterations for r in results.values()] == [200, 200]
    assert instrumentation.snapshot()["svd"] - before == 2 * 200 * Y.ndim


def test_svds_recorded_from_many_threads_add_up():
    # more threads than cores and frequent switches, so that an unlocked
    # read-modify-write of a count could lose updates
    before = instrumentation.snapshot()["svd"]

    def record():
        for _ in range(5000):
            instrumentation.record("svd")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=record) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert instrumentation.snapshot()["svd"] - before == 40000
