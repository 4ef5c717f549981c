"""Accuracy/runtime comparison of the solvers on one labeled instance.

Reproduces the shape of the synthetic comparison table: the graph solver and
the nuclear-norm baselines reach similar AUC, but only the baselines pay for
dense SVDs every iteration, which shows directly in the wall times and in
the spectral-operation counters.
"""

import numpy as np

from stsad import (
    LogssParams,
    SynthConfig,
    benchmark_timing,
    build_mode_graphs,
    builtin_template,
    score_sparse_tensor,
    solve,
    solve_horpca,
    solve_loss,
    synthesize,
)
from stsad import instrumentation

DIMS = (24, 7, 12, 8)
config = SynthConfig(base=builtin_template(DIMS), c=2.5, l=7, m=2.3, p=0.0, seed=0)
Y, observed, truth, _ = synthesize(config)
graphs = build_mode_graphs(Y, k=10)

# each method gets its own tuned smoothness weight; the nuclear baselines
# need a larger theta or singular-value thresholding leaves nothing in S
beta = 0.04 / np.std(Y[observed])
lam = 1 / np.sqrt(24)
kw = dict(lam=lam, gamma=25 * lam, beta1=beta, beta2=5 * beta, beta3=beta,
          beta4=beta, max_iter=150, tol=1e-9)
params = LogssParams.defaults(Y, observed, **kw)
baseline_kw = dict(kw, theta=3.0)


def scored(solver):
    def fn(Y, observed):
        result = solver(Y, observed)
        return score_sparse_tensor(result.S).scores
    return fn


solvers = [
    ("logss", scored(lambda Y, o: solve(Y, o, graphs, params))),
    ("loss", scored(lambda Y, o: solve_loss(Y, o, LogssParams.defaults(Y, o, **baseline_kw)))),
    ("horpca", scored(lambda Y, o: solve_horpca(Y, o, LogssParams.defaults(Y, o, **baseline_kw)))),
    ("raw-ee", lambda Y, o: score_sparse_tensor(Y).scores),
]

before = instrumentation.snapshot()
rows = benchmark_timing(solvers, (Y, observed, truth.anomaly_mask), repeats=3)
after = instrumentation.snapshot()

print(f"{'method':8s} {'AUC':>6s} {'+/-':>6s} {'time[s]':>8s} {'+/-':>6s}")
for row in rows:
    print(
        f"{row['method']:8s} {row['auc_mean']:6.3f} {row['auc_std']:6.3f} "
        f"{row['time_mean_s']:8.3f} {row['time_std_s']:6.3f}"
    )

print(
    f"\nspectral work during the benchmark: {after['svd'] - before['svd']} SVDs "
    "(all inside the nuclear-norm baselines; the graph solver performs none)"
)
