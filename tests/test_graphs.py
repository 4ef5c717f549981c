import math

import numpy as np
import pytest

from stsad.graphs import (
    ModeGraph,
    build_knn_graph,
    build_laplacian,
    build_mode_graphs,
    select_rank,
    stationarity_report,
    sym_eig,
)


def make_graph(eigvecs, mode=1, rank=None):
    """ModeGraph stub carrying only what stationarity_report needs."""
    n = eigvecs.shape[0]
    return ModeGraph(
        mode=mode,
        weights=np.zeros((n, n)),
        laplacian=np.zeros((n, n)),
        eigvals=np.zeros(n),
        eigvecs=eigvecs,
        rank=rank or n - 1,
    )


def test_knn_identical_rows():
    W = build_knn_graph(np.array([[1.0, 2.0], [1.0, 2.0]]), k=1)
    assert np.array_equal(W, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_knn_collinear_points_hand_enumerated():
    # points at 0, 1, 10: each picks its nearest, sigmas are those distances
    X = np.array([[0.0], [1.0], [10.0]])
    W = build_knn_graph(X, k=1)
    assert W[0, 1] == pytest.approx(np.exp(-1.0))       # d^2=1, sigma0*sigma1=1
    assert W[1, 2] == pytest.approx(np.exp(-81.0 / 9.0))  # kept via point 2's own edge
    assert W[0, 2] == 0.0
    assert np.array_equal(W, W.T)


def test_knn_symmetric_zero_diagonal_random():
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = rng.normal(size=(12, 6))
        W = build_knn_graph(X, k=4)
        assert np.array_equal(W, W.T)
        assert np.all(np.diag(W) == 0)
        assert np.all(W >= 0)


def test_knn_never_wastes_a_slot_on_self():
    # three coincident points: each must pick a genuine neighbour, not itself
    X = np.array([[0.0], [0.0], [0.0], [9.0]])
    W = build_knn_graph(X, k=1)
    assert W[0, 1] == 1.0
    assert W[0, 2] == 1.0  # row 2's own pick, kept by symmetrization
    assert np.all(np.diag(W) == 0)


def test_knn_k_out_of_range():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        build_knn_graph(X, k=0)
    with pytest.raises(ValueError):
        build_knn_graph(X, k=4)


@pytest.mark.parametrize("k", [1.5, 2.0, 0, 4])
def test_knn_rejects_a_k_that_is_not_an_integer_in_range(k):
    with pytest.raises(ValueError, match=rf"^k must be an integer in \[1, 3\], got {k}$"):
        build_knn_graph(np.zeros((4, 2)), k=k)
    # numpy integers are integers
    assert build_knn_graph(np.zeros((4, 2)), k=np.int64(2)).shape == (4, 4)


def test_laplacian_two_nodes():
    w = 0.7
    W = np.array([[0.0, w], [w, 0.0]])
    phi = build_laplacian(W)
    assert np.allclose(phi, [[w, -w], [-w, w]])
    assert np.allclose(np.sort(np.linalg.eigvalsh(phi)), [0.0, 2 * w])


def test_laplacian_path_three_nodes():
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    phi = build_laplacian(W)
    assert np.allclose(phi, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.allclose(np.linalg.eigvalsh(phi), [0.0, 1.0, 3.0])


def test_laplacian_complete_graph():
    W = np.ones((3, 3)) - np.eye(3)
    assert np.allclose(np.linalg.eigvalsh(build_laplacian(W)), [0.0, 3.0, 3.0])


def test_laplacian_input_validation():
    with pytest.raises(ValueError):
        build_laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        build_laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_sym_eig_diagonal():
    vals, vecs = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])


def test_sym_eig_2x2():
    vals, vecs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [1.0, 3.0])
    assert np.allclose(np.abs(vecs[:, 0]), [1 / np.sqrt(2)] * 2)
    assert np.allclose(np.abs(vecs[:, 1]), [1 / np.sqrt(2)] * 2)
    assert vecs[0, 0] * vecs[1, 0] < 0  # antisymmetric mode first


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(20, 20))
    phi = A + A.T
    vals, vecs = sym_eig(phi)
    assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - phi) <= 1e-8 * np.linalg.norm(phi)
    assert np.allclose(vecs.T @ vecs, np.eye(20), atol=1e-8)
    assert np.all(np.diff(vals) >= 0)
    with pytest.raises(ValueError):
        sym_eig(A)


def test_select_rank_rule():
    assert select_rank(np.array([0.0, 5.0, 5.1])) == 2
    assert select_rank(np.array([0.0, 1.0, 10.0])) == 2  # fallback I-1
    assert select_rank(np.array([0.0, 0.0, 1.0])) == 1   # zero-ratio defined as 1
    with pytest.raises(ValueError):
        select_rank(np.array([1.0]))


@pytest.mark.parametrize("ratio", [np.nan, np.inf, 1.0, -0.1])
def test_build_mode_graphs_rejects_bad_ratio(ratio):
    Y = np.random.default_rng(1).normal(size=(6, 4, 5, 3))
    with pytest.raises(ValueError, match="rank ratio must be in"):
        build_mode_graphs(Y, k=3, ratio=ratio)


@pytest.mark.parametrize("k", [0, -1, 1.5])
def test_build_mode_graphs_rejects_a_k_that_is_not_a_positive_integer(k):
    Y = np.random.default_rng(1).normal(size=(6, 4, 5, 3))
    with pytest.raises(ValueError, match=f"^k must be an integer of at least 1, got {k}$"):
        build_mode_graphs(Y, k=k)


def test_build_mode_graphs_rejects_a_mode_of_length_1():
    Y = np.random.default_rng(1).normal(size=(6, 1, 4, 3))
    message = "^mode 2 has length 1; a k-NN graph needs at least 2 rows$"
    with pytest.raises(ValueError, match=message):
        build_mode_graphs(Y, k=3)


def test_select_rank_in_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vals = np.sort(rng.uniform(0, 10, size=rng.integers(2, 12)))
        J = select_rank(vals)
        assert 1 <= J <= len(vals) - 1


def mode1_ratio(X, eigvecs):
    """stationarity_report's ratio of a 2-D X on a mode-1 graph, for which
    unfold(X, 1) is X."""
    [row] = stationarity_report(X, [make_graph(eigvecs)])
    assert row["mode"] == 1
    return row["s_r"]


def test_stationarity_whitened_covariance_is_one():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 50))
    Xc = X - X.mean(axis=1, keepdims=True)
    C = np.cov(X)
    w, V = np.linalg.eigh(C)
    white = V @ np.diag(w**-0.5) @ V.T @ Xc
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert mode1_ratio(white, Q) == pytest.approx(1.0, abs=1e-8)


def test_stationarity_2x2_hand_computed():
    # rows identical => covariance [[1,1],[1,1]] exactly
    X = np.array([[1.0, 0.0, -1.0], [1.0, 0.0, -1.0]])
    rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert mode1_ratio(X, rot) == pytest.approx(1.0)
    assert mode1_ratio(X, np.eye(2)) == pytest.approx(np.sqrt(2) / 2)


def test_stationarity_zero_covariance_errors():
    X = np.ones((3, 10))
    with pytest.raises(ValueError, match="^mode 1: zero covariance, stationarity ratio"):
        mode1_ratio(X, np.eye(3))


def test_stationarity_invariant_under_eigvec_permutation():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 30))
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    perm = rng.permutation(5)
    assert mode1_ratio(X, Q) == pytest.approx(mode1_ratio(X, Q[:, perm]))


def test_random_knn_laplacians_are_psd_with_zero_row_sums():
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rng.normal(size=(rng.integers(5, 15), 4))
        W = build_knn_graph(X, k=3)
        phi = build_laplacian(W)
        assert np.abs(phi.sum(axis=1)).max() <= 1e-10
        vals, _ = sym_eig(phi)
        assert vals[0] >= -1e-10
        assert abs(vals[0]) <= 1e-10


def test_zero_eigenvalue_count_matches_components():
    # two clusters far apart, k small enough to keep them disconnected
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(size=(5, 2)), rng.normal(size=(5, 2)) + 1000.0])
    W = build_knn_graph(X, k=2)
    vals, _ = sym_eig(build_laplacian(W))
    assert np.sum(np.abs(vals) < 1e-8) == 2


def test_build_mode_graphs_and_report():
    rng = np.random.default_rng(7)
    Y = rng.normal(size=(6, 5, 4, 3)) + 5.0
    graphs = build_mode_graphs(Y, k=10)
    assert [g.mode for g in graphs] == [1, 2, 3, 4]
    for g, size in zip(graphs, Y.shape):
        assert g.weights.shape == (size, size)
        assert 1 <= g.rank <= size - 1
        assert g.basis.shape == (size, g.rank)
    rows = stationarity_report(Y, graphs)
    assert [r["mode"] for r in rows] == [1, 2, 3, 4]
    assert all(0.0 <= r["s_r"] <= 1.0 + 1e-12 for r in rows)


def knn_reference(X, k):
    """Pure-Python k-NN graph by the documented rule, distances by math.dist."""
    rows = [list(map(float, r)) for r in X]
    n = len(rows)
    dist = [[math.dist(a, b) for b in rows] for a in rows]
    nbrs = [sorted((j for j in range(n) if j != i), key=lambda j: (dist[i][j], j))[:k]
            for i in range(n)]
    sigma = [dist[i][nbrs[i][-1]] for i in range(n)]
    W = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in nbrs[i]:
            denom = sigma[i] * sigma[j]
            w = math.exp(-dist[i][j] ** 2 / denom) if denom > 0 else float(dist[i][j] == 0)
            W[i][j] = W[j][i] = max(W[i][j], W[j][i], w)
    return np.array(W)


@pytest.mark.parametrize("shape, k", [((15, 7), 4), ((9, 40), 8), ((24, 3), 1)])
def test_knn_matches_brute_force_reference(shape, k):
    X = np.random.default_rng(shape[0]).normal(size=shape)
    W_ref = knn_reference(X, k)
    W = build_knn_graph(X, k)
    # same edges; a different neighbour set would also move sigma and the weights
    assert np.array_equal(W > 0, W_ref > 0)
    assert np.allclose(W, W_ref, rtol=1e-12, atol=0.0)


def test_knn_duplicate_rows_get_weight_one():
    # an offset makes |x|^2 + |y|^2 - 2 x.y cancel badly, so only exact
    # differences give these pairs distance 0
    X = 1000.0 + np.random.default_rng(5).normal(size=(6, 30))
    X = np.vstack([X, X[2], X[4]])
    W = build_knn_graph(X, k=3)
    assert W[2, 6] == W[6, 2] == 1.0
    assert W[4, 7] == W[7, 4] == 1.0
    assert np.all(np.diag(W) == 0)
