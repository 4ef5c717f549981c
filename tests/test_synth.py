import math
from dataclasses import fields

import numpy as np
import pytest

from stsad.synth import (
    GroundTruth,
    SynthConfig,
    apply_missing,
    builtin_template,
    generate_base,
    inject_anomalies,
    inject_noise,
    synthesize,
)

DIMS = (8, 4, 6, 3)


def test_builtin_template_positive_and_deterministic():
    T = builtin_template(DIMS)
    assert T.shape == DIMS
    assert (T > 0).all()
    assert np.array_equal(T, builtin_template(DIMS))
    # constant across weeks by construction
    assert np.allclose(T, T[:, :, :1, :])


def test_generate_base_identity_on_week_constant_template():
    T = builtin_template(DIMS)
    assert np.allclose(generate_base(T), T)


def test_generate_base_averages_two_weeks():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 3, 1, 2))
    B = rng.normal(size=(5, 3, 1, 2))
    T = np.concatenate([A, B], axis=2)
    out = generate_base(T)
    assert np.allclose(out[:, :, 0, :], (A + B)[:, :, 0, :] / 2)
    assert np.allclose(out[:, :, 1, :], (A + B)[:, :, 0, :] / 2)


def test_generate_base_week_fibers_constant():
    T = np.random.default_rng(1).normal(size=DIMS)
    out = generate_base(T)
    assert np.allclose(out.std(axis=2), 0.0)
    with pytest.raises(ValueError):
        generate_base(np.zeros((3, 3, 3)))


def test_inject_noise_zero_and_deterministic():
    assert np.array_equal(inject_noise(np.zeros(DIMS), seed=3), np.zeros(DIMS))
    T = np.random.default_rng(2).uniform(1, 2, size=DIMS)
    assert np.array_equal(inject_noise(T, seed=3), inject_noise(T, seed=3))
    assert not np.array_equal(inject_noise(T, seed=3), inject_noise(T, seed=4))


def test_inject_noise_moments():
    T = np.ones((100, 10, 10, 100))  # 1e6 entries: ratios are the raw draws
    out = inject_noise(T, seed=5)
    ratios = out.ravel()
    assert abs(ratios.mean() - 1.0) <= 0.01
    assert abs(ratios.var() - 0.5) <= 0.02


def test_inject_anomalies_none():
    T = np.random.default_rng(6).normal(size=DIMS)
    out, truth = inject_anomalies(T, c=2.0, l=3, m=0.0, seed=0)
    assert np.array_equal(out, T)
    assert not truth.anomaly_mask.any()
    assert truth.injected_intervals == []


def test_inject_anomalies_constant_fiber_arithmetic():
    # seed 0 draws a positive sign: values v become v + 2v = 3v on the interval
    T = np.full((6, 1, 1, 1), 2.0)
    out, truth = inject_anomalies(T, c=2.0, l=3, m=100.0, seed=0)
    assert truth.injected_intervals == [((0, 0, 0), 3, 3, 1)]
    assert np.array_equal(out[:, 0, 0, 0], [2.0, 2.0, 2.0, 6.0, 6.0, 6.0])
    assert truth.anomaly_mask.sum() == 3


def test_inject_anomalies_label_counts_across_seeds():
    T = np.random.default_rng(7).uniform(1, 2, size=DIMS)
    for seed in range(5):
        m = 10.0
        out, truth = inject_anomalies(T, c=1.5, l=4, m=m, seed=seed)
        selected = 8  # ceil(10% of the 4 * 6 * 3 = 72 fibers)
        assert len(truth.injected_intervals) == selected
        assert truth.anomaly_mask.sum() == selected * 4
        fibers = {f for f, *_ in truth.injected_intervals}
        assert len(fibers) == selected  # without replacement


def test_inject_anomalies_shift_is_c_times_interval_mean():
    T = np.random.default_rng(8).uniform(1, 3, size=DIMS)
    c = 2.5
    out, truth = inject_anomalies(T, c=c, l=3, m=20.0, seed=9)
    for fiber, start, length, sign in truth.injected_intervals:
        idx = (slice(start, start + length),) + fiber
        interval_mean = T[idx].mean()
        assert np.allclose(out[idx] - T[idx], sign * c * interval_mean)
    with pytest.raises(ValueError):
        inject_anomalies(T, c=c, l=99, m=10.0, seed=0)


@pytest.mark.parametrize("m", [-5.0, math.nan, 150.0])
def test_inject_anomalies_rejects_m_outside_a_percentage(m):
    T = np.ones(DIMS)
    with pytest.raises(ValueError, match=rf"^m must be a percentage in \[0, 100\], got {m}$"):
        inject_anomalies(T, c=2.0, l=3, m=m, seed=0)


@pytest.mark.parametrize("c, l, message", [
    (2.0, 2.5, r"^l must be an integer in \[1, 8\], got 2.5$"),
    (2.0, 0, r"^l must be an integer in \[1, 8\], got 0$"),
    (math.nan, 3, r"^c must be finite and positive$"),
    (math.inf, 3, r"^c must be finite and positive$"),
    (-1.0, 3, r"^c must be finite and positive$"),
])
def test_inject_anomalies_checks_c_and_l_as_synth_config_does(c, l, message):
    T = np.ones(DIMS)
    with pytest.raises(ValueError, match=message):
        inject_anomalies(T, c=c, l=l, m=10.0, seed=0)
    # numpy integers are integers
    assert inject_anomalies(T, c=2.0, l=np.int64(3), m=10.0, seed=0)[0].shape == DIMS


@pytest.mark.parametrize("mean, var, message", [
    (1.0, math.nan, r"^var must be finite and nonnegative$"),
    (1.0, -1.0, r"^var must be finite and nonnegative$"),
    (1.0, math.inf, r"^var must be finite and nonnegative$"),
    (math.nan, 0.5, r"^mean must be finite$"),
    (-math.inf, 0.5, r"^mean must be finite$"),
])
def test_inject_noise_checks_mean_and_var_as_synth_config_does(mean, var, message):
    with pytest.raises(ValueError, match=message):
        inject_noise(np.ones(DIMS), seed=0, mean=mean, var=var)


def test_anomalous_fraction_matches_formula():
    T = np.random.default_rng(10).uniform(1, 2, size=(10, 5, 6, 4))
    m, l = 15.0, 4
    _, truth = inject_anomalies(T, c=2.0, l=l, m=m, seed=11)
    selected = 18  # 15% of 120 fibers, exactly
    assert truth.anomaly_mask.mean() == pytest.approx(selected * l / T.size)


def test_apply_missing_extremes():
    T = np.random.default_rng(12).normal(size=DIMS)
    out, observed = apply_missing(T, 0.0, seed=0)
    assert observed.all() and np.array_equal(out, T)
    out, observed = apply_missing(T, 100.0, seed=0)
    assert not observed.any()
    assert np.array_equal(out, np.zeros(DIMS))
    with pytest.raises(ValueError):
        apply_missing(T, 101.0, seed=0)


def test_apply_missing_counts_and_consistency():
    T = np.random.default_rng(13).uniform(1, 2, size=DIMS)
    P = 30.0
    out, observed = apply_missing(T, P, seed=14)
    expected = 22  # ceil(30% of the 72 fibers)
    missing_fibers = (~observed).all(axis=0).sum()
    assert missing_fibers == expected
    assert ((~observed).any(axis=0) == (~observed).all(axis=0)).all()  # whole fibers
    assert np.array_equal(out == 0.0, ~observed)


def test_a_whole_percent_count_of_fibers_is_not_rounded_up():
    # 7% of 700 fibers is 49, though 7 / 100 * 700 is 49.00000000000001 in floats
    _, observed = apply_missing(np.ones((2, 7, 100)), 7.0, seed=15)
    assert (~observed).all(axis=0).sum() == 49
    _, truth = inject_anomalies(np.ones((4, 7, 100)), c=1.0, l=2, m=7.0, seed=16)
    assert len(truth.injected_intervals) == 49


def test_synth_config_validation():
    base = builtin_template(DIMS)
    with pytest.raises(ValueError):
        SynthConfig(base=base, c=0.0, l=3, m=5.0)
    with pytest.raises(ValueError):
        SynthConfig(base=base, c=1.0, l=0, m=5.0)
    with pytest.raises(ValueError):
        SynthConfig(base=base, c=1.0, l=3, m=120.0)
    with pytest.raises(ValueError):
        SynthConfig(base=np.zeros((2, 2)), c=1.0, l=1, m=5.0)


@pytest.mark.parametrize(
    "name, value",
    [("noise_var", np.nan), ("noise_var", np.inf), ("noise_mean", np.nan),
     ("noise_mean", -np.inf), ("c", np.inf), ("c", np.nan)],
)
def test_synth_config_rejects_non_finite(name, value):
    kw = dict(base=builtin_template(DIMS), c=1.0, l=3, m=5.0)
    kw[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SynthConfig(**kw)


@pytest.mark.parametrize("seed", [-3, 1.5, "7"])
def test_synth_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {seed}$"):
        SynthConfig(base=builtin_template(DIMS), c=1.0, l=3, m=5.0, seed=seed)
    # numpy integers are integers
    assert SynthConfig(base=builtin_template(DIMS), c=1.0, l=3, m=5.0, seed=np.int64(3)).seed == 3


def test_synth_config_rejects_an_l_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"^l must be an integer in \[1, 8\], got 7.5$"):
        SynthConfig(base=builtin_template(DIMS), c=1.0, l=7.5, m=5.0)
    assert SynthConfig(base=builtin_template(DIMS), c=1.0, l=np.int64(3), m=5.0).l == 3


@pytest.mark.parametrize("name", ["c", "noise_mean"])
def test_synthesize_rejects_a_non_finite_tensor(name):
    # each setting is finite, but the generated values overflow
    kw = dict(base=builtin_template(DIMS), c=2.5, l=3, m=5.0)
    kw[name] = 1e308
    with pytest.raises(ValueError, match="tensor not finite: c, noise_mean or noise_var"):
        synthesize(SynthConfig(**kw))


def test_synthesize_deterministic_and_consistent():
    cfg = SynthConfig(base=builtin_template(DIMS), c=2.0, l=3, m=8.0, p=20.0, seed=42)
    Y1, obs1, truth1, man1 = synthesize(cfg)
    Y2, obs2, truth2, man2 = synthesize(cfg)
    assert np.array_equal(Y1, Y2)
    assert np.array_equal(obs1, obs2)
    assert np.array_equal(truth1.anomaly_mask, truth2.anomaly_mask)
    assert man1 == man2
    assert isinstance(truth1, GroundTruth)
    # anomalies may land on missing fibers; the mask records them anyway
    assert truth1.anomaly_mask.shape == Y1.shape
    assert man1["injected_intervals"]
    assert (Y1[~obs1] == 0.0).all()


def test_manifest_lists_every_synth_setting():
    cfg = SynthConfig(base=builtin_template(DIMS), c=2.0, l=3, m=8.0, p=20.0, seed=42,
                      noise_mean=1.5, noise_var=0.25)
    _, _, truth, manifest = synthesize(cfg)
    settings = {f.name for f in fields(SynthConfig)} - {"base"}
    assert set(manifest) == settings | {"dims", "injected_intervals"}
    for name in settings:
        assert manifest[name] == getattr(cfg, name), name
    assert manifest["dims"] == list(DIMS)
    assert len(manifest["injected_intervals"]) == len(truth.injected_intervals)
