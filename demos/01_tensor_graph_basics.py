"""Tensor primitives and per-mode graphs on a synthetic traffic tensor.

Walks through the unfolding convention, mode products, the k-NN graph
Laplacians and their truncation ranks, and the stationarity diagnostic that
motivates modelling the low-rank part on graphs.
"""

import numpy as np

from stsad import (
    build_mode_graphs,
    builtin_template,
    fold,
    mode_n_product,
    stationarity_report,
    tensor_norms,
    unfold,
)

# --- unfolding: columns are mode fibers, modes ordered cyclically ----------
T = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
print("2x2x2 tensor with entries 1..8 (first index fastest)")
print("mode-1 unfolding:\n", unfold(T, 1))
print("mode-2 unfolding:\n", unfold(T, 2))
print("fold inverts unfold:", np.array_equal(fold(unfold(T, 2), 2, T.shape), T))

# --- mode products act on the unfolding ------------------------------------
U = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
rotated = mode_n_product(T, U, 3)
print("\nmode-3 product with a rotation keeps the Frobenius norm:")
print(f"  before {tensor_norms(T)[0]:.6f}, after {tensor_norms(rotated)[0]:.6f}")

# --- graphs on a realistic hourly pattern ----------------------------------
Y = builtin_template((24, 7, 12, 8))
graphs = build_mode_graphs(Y, k=10)
print("\nper-mode graphs on a 24x7x12x8 smooth traffic template:")
for g in graphs:
    lam = g.eigvals
    print(
        f"  mode {g.mode}: {g.weights.shape[0]} nodes, "
        f"kept {g.rank} low-frequency eigenpairs, "
        f"spectrum [{lam[0]:.2e}, {lam[-1]:.2f}]"
    )

print("\nstationarity (1 means the covariance is diagonal in the graph basis):")
for row in stationarity_report(Y, graphs):
    print(f"  mode {row['mode']}: s_r = {row['s_r']:.3f}")
print("high values on every mode back the low-rank-on-graphs model.")
