"""Property tests: invariants checked on generated inputs, not hand-picked ones.

Examples are derandomized and bounded, so the suite stays deterministic.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import reference_bad_line

from stsad import baselines, tensor
from stsad.cli import _read_scores_csv, main
from stsad.config import STAGES
from stsad.evaluation import LabeledScores, roc_auc
from stsad.graphs import build_mode_graphs
from stsad.logss import LogssParams, solve
from stsad.scoring import score_sparse_tensor, top_k_mask
from stsad.tensor import (
    fold, load_mask, load_tensor, mode_n_product, save_mask, save_tensor, unfold,
)

SETTINGS = settings(
    derandomize=True, database=None, max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# any text; hypothesis's default alphabet costs seconds to build
chars = st.characters(exclude_categories=("Cs",))
# small integers keep every product and sum exact, so equalities are bitwise
small_ints = st.integers(-5, 5).map(float)
tensors = arrays(np.float64, array_shapes(min_dims=2, max_dims=4, max_side=4),
                 elements=small_ints)


@SETTINGS
@given(T=tensors, data=st.data())
def test_fold_inverts_unfold(T, data):
    mode = data.draw(st.integers(1, T.ndim))
    M = unfold(T, mode)
    assert M.shape == (T.shape[mode - 1], T.size // T.shape[mode - 1])
    assert np.array_equal(fold(M, mode, T.shape), T)


@SETTINGS
@given(T=tensors, data=st.data())
def test_mode_products_on_different_modes_commute(T, data):
    m, n = data.draw(st.permutations(range(1, T.ndim + 1)))[:2]
    A = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), T.shape[m - 1]),
                         elements=small_ints))
    B = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), T.shape[n - 1]),
                         elements=small_ints))
    first = mode_n_product(mode_n_product(T, A, m), B, n)
    assert np.array_equal(first, mode_n_product(mode_n_product(T, B, n), A, m))


@SETTINGS
@given(
    scores=arrays(np.float64, array_shapes(max_dims=3, max_side=6),
                  elements=st.floats(-1e6, 1e6) | st.integers(-2, 2).map(float)),
    k=st.floats(0, 100, exclude_min=True),
)
@example(scores=np.arange(100.0).reshape(4, 5, 5), k=7.0)
@example(scores=np.arange(7.0), k=100 / 7)
def test_top_k_mask_selects_exactly_the_ceiling_count_of_top_scores(scores, k):
    mask = top_k_mask(scores, k)
    assert mask.shape == scores.shape
    # ceil of the exact k% of the size, or the whole number that it is within
    # float rounding of (7% of 100 is 7, though 7 / 100 * 100 is not)
    exact = Fraction(k) * scores.size / 100
    count = mask.sum()
    assert count == math.ceil(exact) or abs(count - exact) <= 2e-12 * count
    if 0 < mask.sum() < scores.size:
        assert scores[mask].min() >= scores[~mask].max()


INCREASING = [
    lambda x: 3.0 * x + 7.0,
    lambda x: x**3 + x,
    np.exp,
    np.arctan,
]


@SETTINGS
@given(
    pairs=st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 1)), min_size=2),
    transform=st.sampled_from(INCREASING),
)
def test_roc_auc_is_invariant_under_increasing_transforms(pairs, transform):
    scores, labels = (np.array(c) for c in zip(*pairs))
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]  # AUC needs both classes
    auc = roc_auc(LabeledScores(scores.astype(float), labels))
    assert 0.0 <= auc <= 1.0
    assert roc_auc(LabeledScores(transform(scores.astype(float)), labels)) == auc


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), axis=st.sampled_from([2, 3]), data=st.data())
def test_scores_follow_a_permutation_of_weeks_or_zones(seed, axis, data):
    S = np.random.default_rng(seed).normal(size=(3, 2, 6, 4))
    perm = data.draw(st.permutations(range(S.shape[axis])))
    scores = score_sparse_tensor(S).scores
    permuted = score_sparse_tensor(np.take(S, perm, axis=axis)).scores
    assert np.array_equal(permuted, np.take(scores, perm, axis=axis))


# a tensor of order 3 to 7: the sizes of its modes but 3, and of mode 3 (weeks)
other_modes = st.lists(st.integers(1, 3), min_size=2, max_size=6)
weeks = st.integers(4, 8)


def tensor_with_weeks(seed, other, weeks):
    return np.random.default_rng(seed).normal(size=(*other[:2], weeks, *other[2:]))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), other=other_modes, weeks=weeks)
def test_merging_the_modes_after_the_weeks_keeps_the_scores(seed, other, weeks):
    S = tensor_with_weeks(seed, other, weeks)
    field = score_sparse_tensor(S)
    merged = score_sparse_tensor(S.reshape(S.shape[:3] + (-1,)))
    assert np.array_equal(merged.scores, field.scores.reshape(merged.scores.shape))
    assert np.array_equal(merged.loc, field.loc.reshape(merged.loc.shape))
    assert np.array_equal(merged.scale, field.scale.reshape(merged.scale.shape))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), other=other_modes, weeks=weeks, data=st.data())
def test_permuting_the_modes_but_the_weeks_permutes_the_scores(seed, other, weeks, data):
    S = tensor_with_weeks(seed, other, weeks)
    order = data.draw(st.permutations([a for a in range(S.ndim) if a != 2]))
    axes = [*order[:2], 2, *order[2:]]
    permuted = score_sparse_tensor(S.transpose(axes)).scores
    assert np.array_equal(permuted, score_sparse_tensor(S).scores.transpose(axes))


@settings(SETTINGS, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), axis=st.sampled_from([2, 3]), data=st.data())
def test_sparse_part_follows_a_permutation_of_weeks_or_zones(seed, axis, data):
    # every mode is shorter than knn_k + 1, so each k-NN graph is complete and
    # its spectrum (almost surely) simple: the graphs are permuted, not rebuilt
    Y = np.random.default_rng(seed).uniform(1.0, 3.0, size=(6, 3, 5, 4))
    perm = data.draw(st.permutations(range(Y.shape[axis])))
    observed = np.ones(Y.shape, dtype=bool)

    def sparse_part(Y):
        params = LogssParams.defaults(Y, observed, max_iter=20)
        return solve(Y, observed, build_mode_graphs(Y), params).S

    S = sparse_part(Y)
    permuted = sparse_part(np.take(Y, perm, axis=axis))
    assert np.allclose(permuted, np.take(S, perm, axis=axis), rtol=0, atol=1e-9)


# a value for output_dir that stays inside the test's temporary directory: no
# path separator, and no line break that would split the config line
_no_separators = dict(
    exclude_categories=("Cs",),
    exclude_characters="/\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
)
# ASCII half the time, so that control characters such as NUL come up often
dir_names = (
    st.text(st.characters(max_codepoint=0x7F, **_no_separators), max_size=12)
    | st.text(st.characters(**_no_separators), max_size=12)
)
config_keys = st.sampled_from([
    "seed", "dims", "solver", "knn_k", "rank_ratio", "lambda", "beta1", "max_iter",
    "tol", "write_fit_stats", "h_fraction", "k_list", "events_csv", "bench_solvers",
    "bench_repeats", "synth_p", "wibble", "output_dir",
])
config_lines = st.tuples(config_keys, st.text(chars, max_size=12)).map(" = ".join)
config_bodies = (
    st.lists(config_lines | st.text(chars, max_size=20), max_size=6).map(
        lambda lines: "\n".join(lines).encode())
    | st.binary(max_size=40)
)


@settings(SETTINGS, max_examples=100)
@given(
    # stages that stop at a missing upstream artifact: no tensor is built and
    # no trips file is read, however the config turns out
    stage=st.sampled_from([s for s in STAGES if s not in ("synth", "ingest")]),
    out=dir_names,
    body=config_bodies,
)
def test_fuzzed_config_is_bad_input_never_a_crash(stage, out, body):
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(f"{tmp}/a")  # so that an output_dir of ".." is still inside tmp
        path = f"{tmp}/fuzz.cfg"
        with open(path, "wb") as fh:
            fh.write(f"output_dir = {tmp}/a/{out}\n".encode() + body)
        assert main([stage, "--config", path]) in (0, 1)


def run_with_config(stage, tmp, lines):
    path = f"{tmp}/fuzz.cfg"
    with open(path, "w") as fh:
        fh.write("\n".join([f"output_dir = {tmp}"] + lines) + "\n")
    return main([stage, "--config", path])


# any float, huge, infinite and NaN included, or an ordinary one
settings_values = st.floats() | st.floats(0, 100)


@settings(SETTINGS, max_examples=40)
@given(c=settings_values, l=st.integers(-1, 5), m=settings_values, p=settings_values,
       mean=settings_values, var=settings_values)
@example(c=2.5, l=3, m=5.0, p=0.0, mean=1e308, var=0.5)  # overflows the noise
@example(c=1e308, l=3, m=5.0, p=0.0, mean=1.0, var=0.5)  # overflows an anomaly
def test_fuzzed_synth_settings_exit_0_or_1_and_write_only_finite_data(c, l, m, p, mean, var):
    with tempfile.TemporaryDirectory() as tmp:
        code = run_with_config("synth", tmp, [
            "dims = 4 2 4 2", f"synth_c = {c!r}", f"synth_l = {l}", f"synth_m = {m!r}",
            f"synth_p = {p!r}", f"noise_mean = {mean!r}", f"noise_var = {var!r}",
        ])
        assert code in (0, 1)
        if code == 0:
            assert np.isfinite(load_tensor(f"{tmp}/Y.txt")).all()


@settings(SETTINGS, max_examples=40)
@given(h=st.floats() | st.floats(0, 1))
@example(h=math.inf)
def test_fuzzed_h_fraction_is_bad_input_never_a_crash(h):
    with tempfile.TemporaryDirectory() as tmp:
        save_tensor(f"{tmp}/S.txt", np.random.default_rng(0).normal(size=(3, 2, 6, 2)))
        assert run_with_config("score", tmp, [f"h_fraction = {h!r}"]) in (0, 1)


numbers = st.one_of(
    st.integers(-3, 3).map(str), st.floats().map(repr), st.text(chars, max_size=4),
)
tensor_files = (
    st.tuples(st.lists(st.integers(0, 4), max_size=5), st.lists(numbers, max_size=40)).map(
        lambda t: "\n".join(["dims: " + " ".join(map(str, t[0]))] + t[1]).encode())
    | st.binary(max_size=60)
)
score_files = (
    st.tuples(
        st.sampled_from(["i1,i2,i3,i4,score", "i1,i2,score", ""]),
        st.lists(st.lists(numbers, max_size=6).map(",".join), max_size=6),
    ).map(lambda t: "\r\n".join([t[0]] + t[1]).encode())
    | st.binary(max_size=60)
)


@settings(SETTINGS, max_examples=100)
@given(tensor=tensor_files, scores=score_files)
def test_fuzzed_artifacts_are_bad_input_never_a_crash(tensor, scores):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.cfg"
        with open(path, "w") as fh:
            fh.write(f"output_dir = {tmp}\n")
        with open(f"{tmp}/S.txt", "wb") as fh:
            fh.write(tensor)
        assert main(["score", "--config", path]) in (0, 1)
        labels = np.zeros((2, 1, 2, 1), dtype=bool)
        labels[0, 0, 0, 0] = True
        save_mask(f"{tmp}/labels.txt", labels)
        save_mask(f"{tmp}/omega.txt", np.ones(labels.shape, dtype=bool))
        with open(f"{tmp}/scores.csv", "wb") as fh:
            fh.write(scores)
        assert main(["evaluate", "--config", path]) in (0, 1)


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory):
    """Output directory of a valid chain at dims 8 4 6 3, through score."""
    out = str(tmp_path_factory.mktemp("chain"))
    for stage in ("synth", "graphs", "decompose", "score"):
        assert run_with_config(stage, out, CHAIN_SETTINGS) == 0, stage
    os.remove(f"{out}/fuzz.cfg")
    return out


CHAIN_SETTINGS = ["dims = 8 4 6 3", "synth_c = 2.5", "synth_l = 3", "synth_m = 8",
                  "knn_k = 5", "max_iter = 3", "bench_solvers = logss raw-ee",
                  "bench_repeats = 2"]
mask_cases = st.tuples(st.sampled_from(["omega.txt", "labels.txt"]),
                       st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(chars, max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["mode", "rank"]) | st.text(chars, max_size=3), inner,
                      max_size=3),
    max_leaves=10,
)
# entries that load, with modes out of order or missing and ranks that may not fit
graph_lists = st.lists(
    st.fixed_dictionaries({"mode": st.integers(0, 5), "rank": st.integers(-2, 9) | st.integers()}),
    max_size=5,
)
graph_cases = st.tuples(st.just("graphs.json"), (json_values | graph_lists).map(json.dumps))


@settings(SETTINGS, max_examples=40)
@given(case=mask_cases | graph_cases)
@example(case=("omega.txt", (8, 4, 6, 2)))  # a mask of other dims than Y
@example(case=("labels.txt", (8, 4, 6, 2)))  # labels of other dims than Y
@example(case=("graphs.json", '[{"mode": 1}]'))  # an entry without a rank
@example(case=("graphs.json", '{"mode": 1}'))  # an object, not a list
def test_inconsistent_inputs_are_bad_input_never_a_crash(tiny_chain, case):
    name, content = case
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(tiny_chain, tmp, dirs_exist_ok=True)
        if name == "graphs.json":
            with open(f"{tmp}/{name}", "w") as fh:
                fh.write(content)
        else:  # a checkerboard, so labels of the right dims hold both classes
            save_mask(f"{tmp}/{name}", np.indices(content).sum(axis=0) % 2 == 0)
        for stage in ("decompose", "evaluate", "bench"):
            assert run_with_config(stage, tmp, CHAIN_SETTINGS) in (0, 1), stage


@SETTINGS
@given(name=st.sampled_from(["tensor.txt", "mask.txt"]), T=tensors, pick=st.integers(0, 255),
       bad=st.sampled_from(["x", "nan", "inf", "1 2"]))
# through the CLI: the graphs stage reads Y.txt
@example(name="Y.txt", T=np.ones((8, 4, 6, 3)), pick=3, bad="x")
def test_every_numeric_file_names_its_bad_line(name, T, pick, bad):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/{name}"
        if name == "mask.txt":
            save_mask(path, T > 0)
        else:
            save_tensor(path, T)
        with open(path) as fh:
            lines = fh.read().splitlines()
        line = 2 + pick % (len(lines) - 1)  # a body line; the header is line 1
        lines[line - 1] = bad
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if name == "Y.txt":
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert run_with_config("graphs", tmp, []) == 1
            assert err.getvalue() == f"error: {path}:{line}: bad row\n"
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: "):
                (load_mask if name == "mask.txt" else load_tensor)(path)


# blank lines, which np.loadtxt skips, shift rows against lines
blank_lines = st.sampled_from(["\n", "\r\n", " \n", "\t\n"])
# one of each kind: unreadable, of the wrong width, not finite
bad_values = st.sampled_from(["x", "1 2", "1,2", "nan", "inf", "-inf"])
SCORE_DIMS = (3, 2, 2, 1)
# unreadable, of the wrong width, a score not finite, an index not an integer
# inside the tensor; a repeated index is drawn from the body
bad_score_rows = st.sampled_from(["0,0,x,0,1", "0,0,0,0,1,2", "0,0,0,0", "0,1,1,0,nan",
                                  "0,1,1,0,-inf", "nan,0,0,0,1", "0.5,0,0,0,1",
                                  "3,0,0,0,1", "0,-1,0,0,1", "0,0,0,inf,1"])


def with_bad_lines(data, body, bad):
    """``body`` with one or two lines drawn from ``bad`` and up to four blank
    lines inserted."""
    body = list(body)
    lines = data.draw(st.lists(bad, min_size=1, max_size=2))
    for line in lines + data.draw(st.lists(blank_lines, max_size=4)):
        body.insert(data.draw(st.integers(0, len(body))), line)
    return body


def scores_index_ok(table):
    """The whole-table check of a scores.csv body: integer indices inside
    SCORE_DIMS, no element twice."""
    index = table[:, :-1]
    if not ((index == np.floor(index)) & (index >= 0) & (index < SCORE_DIMS)).all():
        return False
    flat = np.ravel_multi_index(tuple(index.astype(np.intp).T), SCORE_DIMS)
    return np.bincount(flat).max() == 1


@settings(SETTINGS, max_examples=150)
@given(chunk=st.integers(1, 9), data=st.data())
def test_bad_line_is_the_one_prefix_bisection_names(chunk, data):
    # across chunk edges, the table reader names the first line whose body
    # prefix fails as a whole: the per-row flags map rows to lines rightly
    values = data.draw(st.lists(st.integers(-9, 9), max_size=20))
    tensor_body = with_bad_lines(data, [f"{v}\n" for v in values], bad_values.map("{}\n".format))
    order = data.draw(st.permutations(list(np.ndindex(SCORE_DIMS))))
    rows = [",".join(map(str, index)) + f",{n}\r\n" for n, index in enumerate(order)]
    repeats = st.sampled_from(rows).map(lambda row: row.rsplit(",", 1)[0] + ",7\r\n")
    scores_body = with_bad_lines(data, rows, bad_score_rows.map("{}\r\n".format) | repeats)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tensor, "_CHUNK", chunk):
        path = f"{tmp}/t.txt"
        with open(path, "w", newline="") as fh:
            fh.write("dims: 9\n" + "".join(tensor_body))  # the body is read first
        line = reference_bad_line(path, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: bad row$"):
            load_tensor(path)
        path = f"{tmp}/scores.csv"
        with open(path, "w", newline="") as fh:
            fh.write("i1,i2,i3,i4,score\r\n" + "".join(scores_body))
        line = reference_bad_line(path, 5, ",", scores_index_ok, newline="")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: bad row$"):
            _read_scores_csv(path, SCORE_DIMS)


# tau / s_max: zero, either side of the Gram route's cut, or in (0, 2)
tau_ratios = (st.sampled_from([0.0, 0.99 * baselines._GRAM_CUT, 1.01 * baselines._GRAM_CUT])
              | st.floats(0, 2, exclude_min=True, exclude_max=True))


@settings(SETTINGS, max_examples=120)
@given(m=st.integers(1, 30), n=st.integers(1, 30), rank=st.integers(1, 30),
       log_cond=st.floats(0, 14), log_scale=st.floats(-3, 3), seed=st.integers(0, 2**32 - 1),
       ratio=tau_ratios)
@example(m=8, n=30, rank=8, log_cond=10, log_scale=0, seed=0, ratio=0.0)
def test_svt_is_the_thresholded_svd_of_a_matrix_with_a_prescribed_spectrum(
        m, n, rank, log_cond, log_scale, seed, ratio):
    # singular values from s_max down to s_max / 10**log_cond, and zeros
    # when rank < min(m, n): each SVT route is the thresholded SVD of M
    rank = min(rank, m, n)
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.normal(size=(m, rank)))
    right, _ = np.linalg.qr(rng.normal(size=(n, rank)))
    M = (left * np.geomspace(1.0, 10.0 ** -log_cond, rank) * 10.0 ** log_scale) @ right.T
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    tau = ratio * s[0]
    kept = np.maximum(s - tau, 0.0)
    bound = 1e-12 * np.linalg.norm(M)
    low, nuclear = baselines._svt_with_norm(M, tau)
    assert np.abs(low - (U * kept) @ Vt).max() <= bound
    assert nuclear == pytest.approx(kept.sum(), rel=1e-12, abs=bound)
