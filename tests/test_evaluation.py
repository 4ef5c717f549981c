import numpy as np
import pytest

from stsad.evaluation import (
    LabeledScores,
    benchmark_timing,
    detection_at_k,
    labeled_scores,
    roc_auc,
    roc_points,
)


def pairwise_auc(scores, labels):
    """O(n^2) oracle: P(pos > neg) + 0.5 P(tie)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_perfect_ranking():
    ls = LabeledScores(np.array([0.9, 0.1]), np.array([1, 0]))
    assert roc_auc(ls) == 1.0


def test_auc_all_ties():
    ls = LabeledScores(np.ones(10), np.array([1, 0] * 5))
    assert roc_auc(ls) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=12).astype(float)  # ties guaranteed
    labels = rng.integers(0, 2, size=12)
    labels[0], labels[1] = 1, 0  # both classes present
    ls = LabeledScores(scores, labels)
    assert roc_auc(ls) == pytest.approx(pairwise_auc(scores, labels), abs=0)


def test_auc_single_class_errors():
    with pytest.raises(ValueError):
        roc_auc(LabeledScores(np.array([1.0, 2.0]), np.array([1, 1])))
    with pytest.raises(ValueError):
        roc_auc(LabeledScores(np.array([1.0, 2.0]), np.array([0, 0])))
    with pytest.raises(ValueError):
        LabeledScores(np.array([1.0]), np.array([2]))


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=40)
    labels = rng.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    base = roc_auc(LabeledScores(scores, labels))
    assert roc_auc(LabeledScores(np.exp(scores), labels)) == pytest.approx(base)
    assert roc_auc(LabeledScores(3 * scores + 7, labels)) == pytest.approx(base)


def test_auc_negation_complements():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=30)  # continuous: no ties
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    a = roc_auc(LabeledScores(scores, labels))
    b = roc_auc(LabeledScores(-scores, labels))
    assert a + b == pytest.approx(1.0)


def test_labeled_scores_respects_support():
    scores = np.arange(8.0).reshape(2, 2, 2)
    labels = np.zeros((2, 2, 2), dtype=int)
    labels[0, 0, 0] = 1
    observed = np.ones((2, 2, 2), dtype=bool)
    observed[1, 1, 1] = False
    ls = labeled_scores(scores, labels, observed)
    assert ls.scores.size == 7
    assert ls.n_pos == 1 and ls.n_neg == 6


def test_roc_points_shape():
    rng = np.random.default_rng(3)
    ls = LabeledScores(rng.normal(size=50), rng.integers(0, 2, size=50))
    fpr, tpr = roc_points(ls)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()


def test_labeled_scores_rejects_labels_other_than_0_or_1():
    # a cast to int first would keep [0.5, 1, 0.9] as [0, 1, 0], for an AUC of 1
    for labels in ([0.5, 1, 0.9], [0, 1, np.nan], [0, 1, -1]):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            LabeledScores([0.1, 0.9, 0.5], labels)
    for labels in ([False, True, False], [0.0, 1.0, 0.0], [0, 1, 0]):
        assert LabeledScores([0.1, 0.9, 0.5], labels).labels.tolist() == [0, 1, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_labeled_scores_rejects_scores_that_are_not_finite(bad):
    # a NaN ranks above every other score: the AUC below would read 0.0
    with pytest.raises(ValueError, match="scores must be finite"):
        roc_auc(LabeledScores([bad, 0.2, 0.3, 0.1], [0, 1, 0, 1]))
    with pytest.raises(ValueError, match="scores must be finite"):
        labeled_scores(np.array([[bad, 0.2], [0.3, 0.1]]), np.array([[0, 1], [0, 1]]))


def test_labeled_scores_rejects_shapes_that_differ():
    scores = np.arange(6.0).reshape(2, 3)
    labels = np.array([[0, 1, 0], [1, 0, 1]])
    observed = np.ones((2, 3), dtype=bool)
    # a reshaped array of the same size would otherwise pair the wrong elements
    for args in [(labels.reshape(3, 2),), (labels[:, :2],), (labels, observed.reshape(3, 2)),
                 (labels, observed[:1])]:
        with pytest.raises(ValueError, match="scores, labels and mask must have one shape"):
            labeled_scores(scores, *args)
    assert labeled_scores(scores, labels, observed).n_pos == 3


def make_scores(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def test_detection_all_at_full_k():
    scores = make_scores((3, 2, 4, 2))
    events = [("a", {(0, 0, 0, 0)}), ("b", {(1, 1, 2, 1), (2, 0, 3, 0)})]
    counts = detection_at_k(scores, events, [100.0])
    assert counts[100.0] == 2


def test_detection_argmax_event_always_found():
    scores = make_scores((3, 2, 4, 2), seed=4)
    top = np.unravel_index(np.argmax(scores), scores.shape)
    events = [("top", {top})]
    counts = detection_at_k(scores, events, [100.0 / scores.size, 1.0, 10.0, 100.0])
    assert all(v == 1 for v in counts.values())


def test_detection_monotone_in_k():
    rng = np.random.default_rng(5)
    scores = make_scores((4, 3, 5, 2), seed=6)
    events = []
    for e in range(6):
        cells = {
            tuple(int(rng.integers(0, d)) for d in scores.shape) for _ in range(3)
        }
        events.append((f"e{e}", cells))
    k_list = [0.5, 2.0, 5.0, 20.0, 80.0]
    counts = detection_at_k(scores, events, k_list)
    values = [counts[k] for k in k_list]
    assert values == sorted(values)


def test_detection_validates_indices():
    scores = make_scores((2, 2, 2, 2))
    with pytest.raises(ValueError):
        detection_at_k(scores, [("bad", {(5, 0, 0, 0)})], [10.0])
    with pytest.raises(ValueError):
        detection_at_k(scores, [], [10.0])
    with pytest.raises(ValueError, match="K list is empty"):
        detection_at_k(scores, [("a", {(0, 0, 0, 0)})], [])


def bench_instance(seed=0):
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(4, 3, 6, 2))
    observed = np.ones(Y.shape, dtype=bool)
    labels = rng.random(Y.shape) < 0.1
    labels[0, 0, 0, 0] = True
    labels[1, 0, 0, 0] = False
    return Y, observed, labels


def test_benchmark_deterministic_solver_has_zero_std():
    instance = bench_instance()
    rows = benchmark_timing([("identity", lambda Y, o: Y)], instance, repeats=3)
    assert len(rows) == 1
    assert rows[0]["method"] == "identity"
    assert rows[0]["auc_std"] == 0.0
    assert rows[0]["failures"] == 0


def test_benchmark_two_solvers_two_rows():
    instance = bench_instance(1)
    rows = benchmark_timing(
        [("a", lambda Y, o: Y), ("b", lambda Y, o: -Y)], instance, repeats=2
    )
    assert [r["method"] for r in rows] == ["a", "b"]
    assert rows[0]["auc_mean"] + rows[1]["auc_mean"] == pytest.approx(1.0)


def test_benchmark_mean_is_arithmetic_mean():
    instance = bench_instance(2)
    calls = iter([0.2, 0.4, 0.9])

    def jitter(Y, o):
        return Y + next(calls)  # strictly increasing shift: same ranking

    rows = benchmark_timing([("jitter", jitter)], instance, repeats=3)
    Y, observed, labels = instance
    expected = roc_auc(labeled_scores(Y, labels, observed))
    assert rows[0]["auc_mean"] == pytest.approx(expected)


def test_benchmark_records_failures():
    instance = bench_instance(3)
    state = {"calls": 0}

    def flaky(Y, o):
        state["calls"] += 1
        if state["calls"] == 1:
            raise RuntimeError("boom")
        return Y

    rows = benchmark_timing([("flaky", flaky)], instance, repeats=3)
    assert rows[0]["failures"] == 1
    assert rows[0]["errors"] == ["RuntimeError: boom"]
    assert rows[0]["auc_mean"] is not None

    rows = benchmark_timing(
        [("dead", lambda Y, o: (_ for _ in ()).throw(RuntimeError()))],
        instance,
        repeats=2,
    )
    assert rows[0]["failures"] == 2
    assert rows[0]["errors"] == ["RuntimeError: ", "RuntimeError: "]
    assert rows[0]["auc_mean"] is None
    with pytest.raises(ValueError):
        benchmark_timing([("x", lambda Y, o: Y)], instance, repeats=1)


def full_roc(ls):
    """Reference curve: one vertex per distinct threshold, after (0, 0)."""
    order = np.argsort(-ls.scores, kind="stable")
    labels, scores = ls.labels[order], ls.scores[order]
    last = np.r_[scores[1:] != scores[:-1], True]
    fpr = np.r_[0.0, np.cumsum(1 - labels)[last] / ls.n_neg]
    tpr = np.r_[0.0, np.cumsum(labels)[last] / ls.n_pos]
    return fpr, tpr


def on_polyline(f, t, fpr, tpr):
    """(f, t) is a vertex or lies on a horizontal or vertical segment."""
    for a in range(len(fpr) - 1):
        f0, f1, t0, t1 = fpr[a], fpr[a + 1], tpr[a], tpr[a + 1]
        if t0 == t1 == t and f0 <= f <= f1 or f0 == f1 == f and t0 <= t <= t1:
            return True
    return False


@pytest.mark.parametrize("levels", [None, 6, 40])
def test_roc_points_keeps_the_corners(levels):
    rng = np.random.default_rng(11)
    scores = rng.normal(size=300)
    if levels is not None:  # ties, including mixed-label ones
        scores = np.round(scores * levels / 4.0)
    ls = LabeledScores(scores, rng.random(300) < 0.3)
    fpr, tpr = roc_points(ls)
    full_f, full_t = full_roc(ls)
    full = list(zip(full_f.tolist(), full_t.tolist()))
    kept = list(zip(fpr.tolist(), tpr.tolist()))
    # six score levels make every segment diagonal: nothing can be dropped
    assert len(kept) == len(full) if levels == 6 else len(kept) < len(full)
    # the corners are full-curve vertices in curve order, ends included
    positions = [full.index(p) for p in kept]
    assert positions == sorted(positions) and positions[0] == 0
    assert positions[-1] == len(full) - 1
    for f, t in full:
        assert (f, t) in kept or on_polyline(f, t, fpr, tpr)
    # no kept interior vertex continues a horizontal or vertical line
    df, dt = np.diff(fpr), np.diff(tpr)
    assert not ((df[:-1] == 0) & (df[1:] == 0)).any()
    assert not ((dt[:-1] == 0) & (dt[1:] == 0)).any()
    area = np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0)
    assert abs(area - roc_auc(ls)) <= 1e-12
