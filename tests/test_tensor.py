import itertools
import re

import numpy as np
import pytest
from conftest import reference_bad_line

from stsad import tensor
from stsad.tensor import (
    fold,
    load_mask,
    load_tensor,
    mode_n_product,
    project_support,
    save_mask,
    save_tensor,
    soft_threshold,
    tensor_norms,
    unfold,
)


def brute_force_unfold(T, mode):
    """Independent oracle: place T[idx] by the cyclic index map."""
    N = T.ndim
    rest = [(mode - 1 + k) % N for k in range(1, N)]
    out = np.zeros((T.shape[mode - 1], T.size // T.shape[mode - 1]))
    for idx in itertools.product(*(range(s) for s in T.shape)):
        col, stride = 0, 1
        for ax in rest:
            col += idx[ax] * stride
            stride *= T.shape[ax]
        out[idx[mode - 1], col] = T[idx]
    return out


def test_unfold_order2_mode1_is_identity():
    M = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(unfold(M, 1), M)


def test_unfold_222_matches_enumerated_index_map():
    T = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
    expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
    assert np.array_equal(unfold(T, 1), expected)
    for mode in (1, 2, 3):
        assert np.array_equal(unfold(T, mode), brute_force_unfold(T, mode))


def test_unfold_matches_oracle_random():
    rng = np.random.default_rng(7)
    T = rng.normal(size=(3, 4, 2, 5))
    for mode in range(1, 5):
        assert np.array_equal(unfold(T, mode), brute_force_unfold(T, mode))


def test_fold_inverts_unfold_exactly():
    rng = np.random.default_rng(0)
    T = rng.normal(size=(3, 4, 5))
    for mode in (1, 2, 3):
        assert np.array_equal(fold(unfold(T, mode), mode, T.shape), T)


def test_fold_row_vector():
    M = np.arange(6.0).reshape(1, 6)
    assert np.array_equal(fold(M, 1, (1, 6)), M)


def test_fold_reproduces_entries():
    M = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
    T = fold(M, 1, (2, 2, 2))
    assert np.array_equal(T.ravel(order="F"), np.arange(1.0, 9.0))


def test_invalid_mode_and_shape_errors():
    T = np.zeros((2, 3))
    with pytest.raises(ValueError):
        unfold(T, 0)
    with pytest.raises(ValueError):
        unfold(T, 3)
    with pytest.raises(ValueError):
        fold(np.zeros((2, 4)), 1, (2, 3))
    with pytest.raises(ValueError):
        mode_n_product(T, np.zeros((4, 5)), 1)


def test_mode_product_identity_and_order2():
    rng = np.random.default_rng(1)
    T = rng.normal(size=(3, 4, 2))
    assert np.allclose(mode_n_product(T, np.eye(4), 2), T)
    M = rng.normal(size=(3, 4))
    U = rng.normal(size=(5, 3))
    assert np.allclose(mode_n_product(M, U, 1), U @ M)


def test_mode_product_equals_matricized_multiply():
    rng = np.random.default_rng(2)
    T = rng.normal(size=(3, 4, 2))
    U = rng.normal(size=(5, 4))
    expected = fold(U @ unfold(T, 2), 2, (3, 5, 2))
    got = mode_n_product(T, U, 2)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)
    assert np.allclose(unfold(got, 2), U @ unfold(T, 2), rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "dims",
    [(3, 4), (1, 5), (4, 1), (3, 1, 4), (2, 3, 4, 5), (3, 1, 2, 1), (2, 3, 1, 2, 3)],
)
def test_mode_product_into_out_matches_allocating_form(dims):
    rng = np.random.default_rng(len(dims))
    T = rng.normal(size=dims)
    for mode, size in enumerate(dims, start=1):
        for J in (1, size, size + 2):  # includes J > I_n
            U = rng.normal(size=(J, size))
            expected = mode_n_product(T, U, mode)
            out = np.full(expected.shape, np.nan)
            assert mode_n_product(T, U, mode, out=out) is out
            assert np.array_equal(out, expected)
            assert np.allclose(unfold(out, mode), U @ unfold(T, mode), rtol=1e-12, atol=1e-12)


def test_mode_product_out_rules_and_strided_input():
    rng = np.random.default_rng(3)
    T = rng.normal(size=(5, 4, 3)).transpose(2, 0, 1)  # not C-contiguous
    U = rng.normal(size=(2, 5))
    expected = fold(U @ unfold(T, 2), 2, (3, 2, 4))
    assert np.allclose(mode_n_product(T, U, 2), expected, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="out must be"):
        mode_n_product(T, U, 2, out=np.empty((3, 5, 4)))
    with pytest.raises(ValueError, match="out must be"):
        mode_n_product(T, U, 2, out=np.empty((4, 2, 3)).transpose(2, 1, 0))


def test_norms():
    assert tensor_norms(np.zeros((3, 3))) == (0.0, 0.0)
    assert tensor_norms(np.array([[-3.0]])) == (3.0, 3.0)
    fro, l1 = tensor_norms(np.array([[1.0, -1.0], [1.0, -1.0]]))
    assert fro == pytest.approx(2.0)
    assert l1 == pytest.approx(4.0)


def test_frobenius_preserved_by_unfolding():
    rng = np.random.default_rng(3)
    T = rng.normal(size=(4, 3, 5))
    fro, _ = tensor_norms(T)
    for mode in (1, 2, 3):
        assert np.linalg.norm(unfold(T, mode)) ** 2 == pytest.approx(fro**2)


def test_project_support():
    rng = np.random.default_rng(4)
    T = rng.normal(size=(3, 4))
    full = np.ones(T.shape, dtype=bool)
    empty = np.zeros(T.shape, dtype=bool)
    assert np.array_equal(project_support(T, full), T)
    assert np.array_equal(project_support(T, empty), np.zeros_like(T))
    mask = rng.random(T.shape) < 0.5
    total = project_support(T, mask) + project_support(T, ~mask)
    assert np.array_equal(total, T)
    with pytest.raises(ValueError):
        project_support(T, np.ones((2, 2), dtype=bool))


def test_soft_threshold_values():
    got = soft_threshold(np.array([-3.0, 0.5, 2.0]), 1.0)
    assert np.array_equal(got, np.array([-2.0, 0.0, 1.0]))
    x = np.random.default_rng(5).normal(size=(4, 4))
    assert np.array_equal(soft_threshold(x, 0.0), x)
    with pytest.raises(ValueError):
        soft_threshold(x, -0.1)


def test_soft_threshold_into_out():
    x = np.random.default_rng(4).normal(size=(3, 5))
    out = np.full(x.shape, np.nan)
    assert soft_threshold(x, 0.4, out=out) is out
    assert np.array_equal(out, soft_threshold(x, 0.4))


def test_soft_threshold_is_l1_prox_by_grid_search():
    rng = np.random.default_rng(6)
    grid = np.arange(-6.0, 6.0, 1e-3)
    for _ in range(20):
        a = rng.uniform(-4, 4)
        phi = rng.uniform(0, 2)
        objective = phi * np.abs(grid) + 0.5 * (grid - a) ** 2
        best = grid[np.argmin(objective)]
        ours = soft_threshold(np.array([a]), phi)[0]
        assert abs(ours - best) <= 1e-3 + 1e-12


def test_soft_threshold_shrinks_l1():
    rng = np.random.default_rng(8)
    T = rng.normal(size=(3, 5))
    for phi in (0.0, 0.1, 1.0, 10.0):
        assert np.abs(soft_threshold(T, phi)).sum() <= np.abs(T).sum() + 1e-15


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    T = rng.normal(size=(3, 4, 2)) * 10.0 ** rng.integers(-8, 8, size=(3, 4, 2))
    path = tmp_path / "t.txt"
    save_tensor(path, T)
    assert np.array_equal(load_tensor(path), T)
    save_tensor(path, np.zeros((2, 2)))
    assert np.array_equal(load_tensor(path), np.zeros((2, 2)))


def test_mask_file_roundtrip(tmp_path):
    mask = np.random.default_rng(10).random((3, 4)) < 0.5
    path = tmp_path / "m.txt"
    save_mask(path, mask)
    got = load_mask(path)
    assert got.dtype == bool
    assert np.array_equal(got, mask)


#: values whose text form is easy to get wrong: signed zero, the smallest
#: subnormal, a huge and an inexact value, integers
GOLDEN_VALUES = [-0.0, 5e-324, 1e300, 0.1, 3.0, -42.0, 1.0 / 3.0, 0.0]


def test_tensor_and_mask_files_match_per_value_writer(tmp_path):
    T = np.array(GOLDEN_VALUES).reshape(2, 2, 2)
    save_tensor(tmp_path / "t.txt", T)
    expected = "dims: 2 2 2\n" + "".join(f"{v:.17g}\n" for v in T.ravel(order="F"))
    assert (tmp_path / "t.txt").read_bytes() == expected.encode()
    loaded = load_tensor(tmp_path / "t.txt")
    assert loaded.tobytes() == T.tobytes()  # -0.0 and 5e-324 survive

    mask = np.array([[True, False, False], [True, True, False]])
    save_mask(tmp_path / "m.txt", mask)
    expected = "dims: 2 3\n" + "".join("1\n" if v else "0\n" for v in mask.ravel(order="F"))
    assert (tmp_path / "m.txt").read_bytes() == expected.encode()


def test_masks_that_save_mask_did_not_write_still_load(tmp_path):
    mask = np.array([[True, False, False], [True, True, False]])
    save_mask(tmp_path / "m.txt", mask)
    canonical = (tmp_path / "m.txt").read_text()

    def spelled(zero, one, end="\n"):
        return "dims: 2 3" + end + "".join((one if v else zero) + end
                                           for v in mask.ravel(order="F"))

    other = tmp_path / "other.txt"
    for text in [
        spelled("0.0", "1.0"), spelled("0e0", "1e0"), spelled(" 0", " 1"),
        spelled("+0", "+1"),
        spelled("%.18e" % 0, "%.18e" % 1),  # numpy savetxt's default format
        spelled("0", "1", end="\r\n"),
        canonical[:-1],  # no final newline
    ]:
        other.write_bytes(text.encode())
        got = load_mask(other)
        assert got.dtype == bool and np.array_equal(got, mask), text
    other.write_bytes(canonical.replace("1\n", "2\n", 1).encode())
    with pytest.raises(ValueError, match="0 or 1"):
        load_mask(other)


def test_tensor_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 4\n1.0\n")
    with pytest.raises(ValueError, match="dims"):
        load_tensor(bad)
    bad.write_text("dims: 2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="values"):
        load_tensor(bad)
    bad.write_text("dims: 2\n1.0\n0.5\n")
    with pytest.raises(ValueError, match="0 or 1"):
        load_mask(bad)


@pytest.mark.parametrize("chunk", [7, 4096])
@pytest.mark.parametrize("bad", ["x", "1 2", "nan", "-inf"])
def test_bad_line_search_names_the_line_prefix_bisection_named(tmp_path, monkeypatch,
                                                               chunk, bad):
    # the first, a chunk's first and last, a middle and the last body line;
    # blank lines (which loadtxt skips) shift rows against lines
    monkeypatch.setattr(tensor, "_CHUNK", chunk)
    path = tmp_path / "t.txt"
    values = ["%.17g\n" % v for v in np.random.default_rng(5).normal(size=40)]
    for blanks in ([], [3, 9, 10, 30]):
        body = list(values)
        for at in blanks:
            body[at] = "\n"
        for at in (0, 6, 7, 13, 14, 20, 38, 39):
            lines = list(body)
            lines[at] = bad + "\n"
            path.write_text("dims: 40\n" + "".join(lines))
            line = reference_bad_line(path, 1)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: bad row$"):
                load_tensor(path)
            assert line == at + 2 or at in blanks


def count_loadtxt(monkeypatch, lines_in_file):
    """Patch np.loadtxt to record how many lines each call is given (an open
    file counts as ``lines_in_file``); returns the list it appends to."""
    real = np.loadtxt
    given = []

    def counted(lines, *args, **kwargs):
        given.append(len(lines) if isinstance(lines, list) else lines_in_file)
        return real(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return given


@pytest.mark.parametrize("bad", ["x", "nan"])
def test_bad_line_search_parses_each_line_about_once(tmp_path, monkeypatch, bad):
    # bisecting whole prefixes handed np.loadtxt about n * log2(n) lines
    monkeypatch.setattr(tensor, "_CHUNK", 64)
    n = 4000
    path = tmp_path / "t.txt"
    for at in (n // 2, n - 1):
        lines = ["%d\n" % i for i in range(n)]
        lines[at] = bad + "\n"
        path.write_text(f"dims: {n}\n" + "".join(lines))
        given = count_loadtxt(monkeypatch, n)
        with pytest.raises(ValueError, match=f":{at + 2}: bad row$"):
            load_tensor(path)
        assert sum(given) <= 2.5 * n
        assert len(given) <= n / 64 + 20
