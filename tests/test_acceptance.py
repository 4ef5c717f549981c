"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.

The detection benchmarks (criteria 1-3) follow the fixed synthetic protocol
on 24x7x12x8 tensors with anomaly length 7 hours on 2.3% of the day fibers,
5 seeds.  Solver parameters were tuned once on this protocol and then fixed
across all three configurations: lam = 1/sqrt(24), gamma = 25*lam,
beta1 = beta3 = beta4 = 0.04/std(observed Y), beta2 = 5*beta1, 150
iterations.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from conftest import spike_instance

from stsad import instrumentation
from stsad.baselines import solve_loss, svt
from stsad.cli import main as cli_main
from stsad.evaluation import LabeledScores, labeled_scores, roc_auc
from stsad.graphs import build_knn_graph, build_laplacian, build_mode_graphs, sym_eig
from stsad.logss import LogssParams, solve
from stsad.scoring import _consistency_factor, score_sparse_tensor, univariate_mcd
from stsad.synth import SynthConfig, builtin_template, synthesize
from stsad.tensor import soft_threshold

DIMS = (24, 7, 12, 8)
SEEDS = range(5)


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {verdict} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def tuned_params(Y, observed, **kw):
    lam = 1.0 / math.sqrt(24)
    beta = 0.2 / (5.0 * np.std(Y[observed]))
    kw.setdefault("max_iter", 150)
    kw.setdefault("tol", 1e-9)
    return LogssParams.defaults(
        Y, observed, lam=lam, gamma=25 * lam,
        beta1=beta, beta2=5 * beta, beta3=beta, beta4=beta, **kw
    )


@pytest.fixture(scope="module")
def detection_benchmark():
    """Mean AUCs of LOGSS and raw-EE scoring per configuration, plus wall time."""
    template = builtin_template(DIMS)
    results = {}
    for label, c, p in (("c2.5", 2.5, 0.0), ("c1.5", 1.5, 0.0), ("p40", 2.5, 40.0)):
        start = time.perf_counter()
        logss_aucs, ee_aucs = [], []
        for seed in SEEDS:
            cfg = SynthConfig(base=template, c=c, l=7, m=2.3, p=p, seed=seed)
            Y, observed, truth, _ = synthesize(cfg)
            graphs = build_mode_graphs(Y, k=10)
            result = solve(Y, observed, graphs, tuned_params(Y, observed))
            labels = truth.anomaly_mask
            logss_aucs.append(
                roc_auc(labeled_scores(score_sparse_tensor(result.S).scores, labels, observed))
            )
            ee_aucs.append(
                roc_auc(labeled_scores(score_sparse_tensor(Y).scores, labels, observed))
            )
        results[label] = {
            "logss": float(np.mean(logss_aucs)),
            "ee": float(np.mean(ee_aucs)),
            "seconds": time.perf_counter() - start,
        }
    return results


def test_criterion_1_detection_ordering_c25(detection_benchmark):
    r = detection_benchmark["c2.5"]
    ok = r["logss"] >= 0.85 and r["logss"] - r["ee"] >= 0.02 and r["seconds"] <= 120
    report(
        1, ok,
        f"c=2.5: AUC(LOGSS)={r['logss']:.3f} (>=0.85), AUC(EE)={r['ee']:.3f}, "
        f"margin {r['logss'] - r['ee']:+.3f} (>=0.02), {r['seconds']:.0f}s (<=120s)",
    )


def test_criterion_2_noise_robustness_c15(detection_benchmark):
    r = detection_benchmark["c1.5"]
    ok = r["logss"] - r["ee"] >= 0.02
    report(
        2, ok,
        f"c=1.5: AUC(LOGSS)={r['logss']:.3f}, AUC(EE)={r['ee']:.3f}, "
        f"margin {r['logss'] - r['ee']:+.3f} (>=0.02)",
    )


def test_criterion_3_missing_data_robustness_p40(detection_benchmark):
    r = detection_benchmark["p40"]
    ok = r["logss"] - r["ee"] >= 0.05
    report(
        3, ok,
        f"P=40%: AUC(LOGSS)={r['logss']:.3f}, AUC(EE)={r['ee']:.3f}, "
        f"margin {r['logss'] - r['ee']:+.3f} (>=0.05)",
    )


def test_criterion_4_speedup_mechanism():
    template = builtin_template(DIMS)
    cfg = SynthConfig(base=template, c=2.5, l=7, m=2.3, p=0.0, seed=0)
    Y, observed, truth, _ = synthesize(cfg)
    graphs = build_mode_graphs(Y, k=10)
    params = tuned_params(Y, observed, max_iter=60, tol=0.0)

    ratios = []
    for _ in range(5):
        before = instrumentation.snapshot()
        fast = solve(Y, observed, graphs, params)
        mid = instrumentation.snapshot()
        slow = solve_loss(Y, observed, params)
        after = instrumentation.snapshot()
        assert fast.iterations == slow.iterations == 60
        assert mid["svd"] - before["svd"] == 0  # zero SVDs in the graph solver
        assert after["svd"] - mid["svd"] == Y.ndim * 60
        assert slow.svd_history == [Y.ndim] * 60
        ratios.append(slow.wall_time / fast.wall_time)
    ratio = float(np.median(ratios))
    report(
        4, ratio >= 2.0,
        f"equal 60-iteration runs: median wall-time ratio LOSS/LOGSS = "
        f"{ratio:.2f}x (>=2x); SVDs per iteration: LOGSS 0, LOSS {Y.ndim}",
    )


def test_criterion_5_admm_convergence_and_spike():
    Y, graphs, spike_idx, _ = spike_instance()
    observed = np.ones(Y.shape, dtype=bool)
    beta = 1.0 / Y.std()
    params = LogssParams.defaults(
        Y, observed, beta1=beta, beta2=beta, beta3=beta, beta4=beta,
        tol=5e-5, max_iter=300,
    )
    result = solve(Y, observed, graphs, params)
    norm_y = max(1.0, float(np.linalg.norm(Y)))
    worst = max(result.residual_history[-1].values()) / norm_y
    argmax = np.unravel_index(np.argmax(np.abs(result.S)), Y.shape)
    ok = result.iterations <= 300 and worst < 1e-4 and argmax == spike_idx
    report(
        5, ok,
        f"residuals {worst:.2e} (<1e-4) after {result.iterations} iterations "
        f"(<=300); spike argmax {argmax == spike_idx}",
    )


def test_criterion_6_prox_oracles():
    rng = np.random.default_rng(2024)
    failures = 0

    scalar_grid = np.arange(-8.0, 8.0, 1e-3)
    for _ in range(60):
        a = rng.uniform(-4, 4)
        phi = rng.uniform(0, 2)
        objective = phi * np.abs(scalar_grid) + 0.5 * (scalar_grid - a) ** 2
        best = scalar_grid[np.argmin(objective)]
        ours = float(soft_threshold(np.array([a]), phi)[0])
        if abs(ours - best) > 1e-3 + 1e-12:
            failures += 1

    step = 0.25
    axis = np.arange(-1.5, 1.5 + step / 2, step)
    A, B, C, D = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    quad = A**2 + B**2 + C**2 + D**2
    nuclear = np.sqrt(quad + 2 * np.abs(A * D - B * C))
    for _ in range(40):
        M = rng.uniform(-1, 1, size=(2, 2))
        tau = rng.uniform(0.05, 0.5)
        fit = (A - M[0, 0]) ** 2 + (B - M[0, 1]) ** 2 + (C - M[1, 0]) ** 2 + (D - M[1, 1]) ** 2
        best = np.unravel_index(np.argmin(tau * nuclear + 0.5 * fit), quad.shape)
        grid_min = np.array(
            [[axis[best[0]], axis[best[1]]], [axis[best[2]], axis[best[3]]]]
        )
        if np.abs(svt(M, tau) - grid_min).max() > step + 1e-12:
            failures += 1

    report(6, failures == 0, f"100 prox grid-oracle cases, {failures} outside grid resolution")


def test_criterion_7_mcd_oracle():
    rng = np.random.default_rng(7)
    checked = mismatches = 0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        x = rng.normal(size=n) * rng.uniform(0.2, 5.0)
        for h in range(2, n + 1):
            best_var, best = np.inf, None
            for subset in itertools.combinations(range(n), h):
                values = x[list(subset)]
                v = values.var(ddof=1)
                if v < best_var:
                    best_var, best = v, values
            expected = (best.mean(), best.std(ddof=1) * _consistency_factor(h, n))
            got = univariate_mcd(x, h)
            checked += 1
            if got != pytest.approx(expected, rel=1e-10, abs=1e-12):
                mismatches += 1
    report(
        7, mismatches == 0,
        f"exhaustive MCD oracle: {checked} (n, h) fits over 50 sequences, "
        f"{mismatches} mismatches",
    )


def test_criterion_8_auc_oracle():
    rng = np.random.default_rng(8)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(8, 40))
        scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 1, 0
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (
            len(pos) * len(neg)
        )
        if roc_auc(LabeledScores(scores, labels)) != brute:
            mismatches += 1
    report(8, mismatches == 0, f"pairwise AUC oracle: 50 tied instances, {mismatches} mismatches")


def test_criterion_9_spectral_invariants():
    rng = np.random.default_rng(9)
    worst_sum = worst_lam = worst_rec = 0.0
    for _ in range(50):
        size = int(rng.integers(5, 20))
        X = rng.normal(size=(size, int(rng.integers(3, 8))))
        W = build_knn_graph(X, k=min(4, size - 1))
        phi = build_laplacian(W)
        eigvals, eigvecs = sym_eig(phi)
        worst_sum = max(worst_sum, float(np.abs(phi.sum(axis=1)).max()))
        worst_lam = max(worst_lam, abs(float(eigvals[0])))
        assert eigvals[0] >= -1e-10
        rec = np.linalg.norm(eigvecs @ np.diag(eigvals) @ eigvecs.T - phi)
        worst_rec = max(worst_rec, rec / max(1.0, np.linalg.norm(phi)))
    ok = worst_sum <= 1e-10 and worst_lam <= 1e-10 and worst_rec <= 1e-8
    report(
        9, ok,
        f"50 kNN Laplacians: max |row sum| {worst_sum:.1e} (<=1e-10), "
        f"max |lambda_1| {worst_lam:.1e} (<=1e-10), "
        f"max reconstruction residual {worst_rec:.1e} (<=1e-8)",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    def run_once(out_dir):
        cfg = tmp_path / f"{out_dir.name}.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"output_dir = {out_dir}",
                    "dims = 12 5 8 4",
                    "seed = 3",
                    "synth_c = 2.5",
                    "synth_l = 4",
                    "synth_m = 6",
                    "synth_p = 10",
                    "knn_k = 5",
                    "max_iter = 50",
                    "tol = 1e-6",
                    "solver = logss",
                ]
            )
            + "\n"
        )
        for stage in ("synth", "graphs", "decompose", "score", "evaluate"):
            assert cli_main([stage, "--config", str(cfg)]) == 0, stage
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }

    first = run_once(tmp_path / "run1")
    second = run_once(tmp_path / "run2")
    same = first == second
    report(
        10, same,
        f"synth->evaluate reruns produced {len(first)} artifacts, "
        f"byte-identical: {same}",
    )
