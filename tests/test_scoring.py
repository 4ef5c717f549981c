import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from stsad.scoring import (
    LARGE_SCORE,
    FiberScoreField,
    _percent_count,
    score_sparse_tensor,
    top_k_mask,
    univariate_mcd,
)
from stsad.synth import SynthConfig, builtin_template, synthesize


def exhaustive_mcd(x, h):
    """Oracle: search every size-h subset for the smallest sample variance."""
    x = np.asarray(x, dtype=float)
    best_var, best = np.inf, None
    for subset in itertools.combinations(range(len(x)), h):
        v = x[list(subset)].var(ddof=1)
        if v < best_var:
            best_var, best = v, x[list(subset)]
    from stsad.scoring import _consistency_factor

    return best.mean(), best.std(ddof=1) * _consistency_factor(h, len(x))


def test_consistency_factor_matches_chi2_reference():
    from stsad.scoring import _consistency_factor

    # 1 / sqrt(scipy.stats.chi2.ppf(h / n, df=1))
    reference = {
        (2, 4): 1.4826022185056031,
        (39, 52): 0.8693011158689333,
        (2, 399): 159.17692282653272,
        (398, 399): 0.3308427560391244,
    }
    for (h, n), value in reference.items():
        assert _consistency_factor(h, n) == pytest.approx(value, rel=1e-13)
    assert _consistency_factor(5, 5) == 1.0


def test_mcd_forced_zero_variance_window():
    loc, scale = univariate_mcd([0.0, 0.0, 0.0, 10.0], h=3)
    assert loc == 0.0
    assert scale == 0.0


def test_mcd_constant_input():
    loc, scale = univariate_mcd([2.5] * 6, h=4)
    assert loc == 2.5
    assert scale == 0.0


def test_mcd_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    x = rng.normal(size=8)
    assert univariate_mcd(x, 5) == pytest.approx(exhaustive_mcd(x, 5))


def test_mcd_exhaustive_sweep_small_n():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        x = rng.normal(size=n) * rng.uniform(0.5, 3)
        for h in range(2, n + 1):
            assert univariate_mcd(x, h) == pytest.approx(exhaustive_mcd(x, h))


def test_mcd_input_validation():
    with pytest.raises(ValueError):
        univariate_mcd([1.0, 2.0, 3.0], h=1)
    with pytest.raises(ValueError):
        univariate_mcd([1.0, 2.0, 3.0], h=4)
    with pytest.raises(ValueError):
        univariate_mcd([1.0], h=2)
    with pytest.raises(ValueError):
        univariate_mcd(np.zeros((2, 2)), h=2)


def test_score_zero_tensor():
    field = score_sparse_tensor(np.zeros((4, 3, 8, 2)))
    assert np.array_equal(field.scores, np.zeros((4, 3, 8, 2)))
    assert field.loc.shape == (4, 3, 2)
    assert field.scale.shape == (4, 3, 2)


def test_score_single_outlier_in_fiber():
    S = np.zeros((3, 2, 10, 2))
    S[1, 1, 7, 0] = 4.2
    field = score_sparse_tensor(S)
    fiber_scores = field.scores[1, 1, :, 0]
    assert np.argmax(fiber_scores) == 7
    assert fiber_scores[7] == LARGE_SCORE  # zero-variance fiber, nonzero deviation
    assert np.all(fiber_scores[np.arange(10) != 7] == 0.0)


def test_scores_recomputable_from_fit_stats():
    rng = np.random.default_rng(2)
    S = rng.normal(size=(4, 3, 9, 2))
    field = score_sparse_tensor(S)
    for i1, i2, i4 in itertools.product(range(4), range(3), range(2)):
        mu = field.loc[i1, i2, i4]
        sd = field.scale[i1, i2, i4]
        expected = ((S[i1, i2, :, i4] - mu) / sd) ** 2
        assert np.allclose(field.scores[i1, i2, :, i4], expected)


def test_score_matches_univariate_fit():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(2, 2, 12, 3))
    field = score_sparse_tensor(S, h_fraction=0.75)
    h = max(2, math.floor(0.75 * 12))
    loc, scale = univariate_mcd(S[1, 0, :, 2], h)
    assert field.loc[1, 0, 2] == pytest.approx(loc)
    assert field.scale[1, 0, 2] == pytest.approx(scale)


def test_score_input_validation():
    with pytest.raises(ValueError, match=r"^expected a tensor of order 3 or more, got order 2$"):
        score_sparse_tensor(np.zeros((3, 8)))
    with pytest.raises(ValueError, match=r"^mode-3 length must be at least 4, got 3$"):
        score_sparse_tensor(np.zeros((3, 3, 3, 3)))


@pytest.mark.parametrize("h_fraction", [0.0, -0.5, 1.5, np.nan, np.inf, -np.inf])
def test_score_rejects_h_fraction_outside_unit_interval(h_fraction):
    with pytest.raises(ValueError, match=r"^h_fraction must be in \(0, 1\]"):
        score_sparse_tensor(np.zeros((3, 2, 8, 2)), h_fraction=h_fraction)


def test_scores_shift_and_scale_equivariant():
    rng = np.random.default_rng(4)
    S = rng.normal(size=(3, 2, 8, 2))
    base = score_sparse_tensor(S).scores

    shifted = S.copy()
    shifted[0, 1, :, 1] += 13.7
    assert np.allclose(score_sparse_tensor(shifted).scores, base)

    scaled = S.copy()
    scaled[2, 0, :, 0] *= -5.1
    assert np.allclose(score_sparse_tensor(scaled).scores, base)

    # a week-constant shift C (constant along mode 3) moves only each fiber's
    # location, so an S that differs from Y by one scores as Y does
    dims = (24, 7, 12, 8)
    Y = synthesize(SynthConfig(builtin_template(dims), c=2.5, l=7, m=2.3, seed=0))[0]
    whole = rng.uniform(-1e3, 1e3, size=(3, 2, 1, 2)) * S.std()
    for T, C in ((S, whole), (Y, -Y.mean(axis=2, keepdims=True))):
        field, moved = score_sparse_tensor(T), score_sparse_tensor(T + C)
        np.testing.assert_allclose(moved.scores, field.scores, rtol=1e-9)
        np.testing.assert_allclose(moved.scale, field.scale, rtol=1e-9)
        np.testing.assert_allclose(moved.loc, field.loc + C[:, :, 0], rtol=1e-9)


def test_top_k_mask_full_and_single():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(3, 4, 5, 2))
    assert top_k_mask(scores, 100.0).all()
    one = top_k_mask(scores, 100.0 / scores.size)
    assert one.sum() == 1
    assert one[np.unravel_index(np.argmax(scores), scores.shape)]


def test_top_k_mask_tie_handling_deterministic():
    rng = np.random.default_rng(6)
    scores = rng.integers(0, 4, size=(4, 4, 4, 4)).astype(float)  # many ties
    for k, expected in ((3.0, 8), (17.0, 44), (50.0, 128)):  # of 256
        first = top_k_mask(scores, k)
        assert first.sum() == expected
        assert np.array_equal(first, top_k_mask(scores.copy(), k))


@pytest.mark.parametrize("n", [1, 7, 99, 100, 700, 1001, 2016, 2999, 8736, 8736 * 263])
def test_percent_count_is_the_exact_decimal_count(n):
    # every k in 0.1, 0.2, ..., 100.0 against exact decimal arithmetic; in
    # floats 7 / 100 * 100 is 7.000000000000001
    for i in range(1, 1001):
        assert _percent_count(i / 10, n) == math.ceil(Fraction(i * n, 1000)), (i / 10, n)
    assert _percent_count(100 / n, n) == 1
    assert _percent_count(0.0, n) == 0


def test_top_k_mask_marks_k_percent_when_it_is_a_whole_count():
    assert top_k_mask(np.arange(100.0), 7).sum() == 7
    assert top_k_mask(np.arange(7.0), 100 / 7).sum() == 1
    assert top_k_mask(np.arange(100.0), 7.01).sum() == 8


def test_top_k_masks_are_nested():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=(5, 3, 4, 2))
    prev = None
    for k in (1.0, 5.0, 20.0, 60.0, 100.0):
        mask = top_k_mask(scores, k)
        if prev is not None:
            assert mask[prev].all()
        prev = mask


def test_top_k_mask_accepts_field_and_validates():
    field = FiberScoreField(
        scores=np.arange(16.0).reshape(2, 2, 2, 2),
        loc=np.zeros((2, 2, 2)),
        scale=np.ones((2, 2, 2)),
    )
    assert top_k_mask(field.scores, 50.0).sum() == 8
    with pytest.raises(ValueError):
        top_k_mask(field.scores, 0.0)
    with pytest.raises(ValueError):
        top_k_mask(field.scores, 101.0)
