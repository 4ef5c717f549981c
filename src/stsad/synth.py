"""Ground-truth-labeled synthetic traffic tensors.

The generator mimics hourly arrival counts: a weekly base pattern repeated
across weeks, multiplicative Gaussian noise, additive interval anomalies on
randomly chosen day fibers, and optionally a fraction of day fibers blanked
out to simulate missing data.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SynthConfig",
    "GroundTruth",
    "builtin_template",
    "generate_base",
    "inject_noise",
    "inject_anomalies",
    "apply_missing",
    "synthesize",
]


@dataclass
class SynthConfig:
    """Knobs of the synthetic protocol.

    c scales anomaly amplitude, l is the anomaly interval length in hours,
    m the percentage of day fibers made anomalous, p the percentage of day
    fibers blanked out.
    """

    base: np.ndarray
    c: float
    l: int
    m: float
    p: float = 0.0
    seed: int = 0
    noise_mean: float = 1.0
    noise_var: float = 0.5

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        if base.ndim != 4:
            raise ValueError("base template must be an order-4 tensor")
        self.base = base
        if not 0 < self.c < math.inf:  # NaN fails every rule
            raise ValueError("c must be finite and positive")
        if not 1 <= self.l <= base.shape[0]:
            raise ValueError(f"l must be in [1, {base.shape[0]}], got {self.l}")
        for name in ("m", "p"):
            v = getattr(self, name)
            if not 0 <= v <= 100:
                raise ValueError(f"{name} must be a percentage in [0, 100], got {v}")
        if not math.isfinite(self.noise_mean):
            raise ValueError("noise_mean must be finite")
        if not 0 <= self.noise_var < math.inf:
            raise ValueError("noise_var must be finite and nonnegative")


@dataclass
class GroundTruth:
    """Element-level anomaly labels, the observation mask, and the injected
    intervals as (fiber (i2, i3, i4), start, length, sign) tuples.

    Anomalies may land on fibers that are later blanked out; evaluation is
    restricted to observed elements.
    """

    anomaly_mask: np.ndarray
    observed: np.ndarray
    injected_intervals: list[tuple] = field(default_factory=list)


def builtin_template(dims):
    """Smooth positive hourly pattern: two daily harmonics per zone.

    Fixed function of the dims (own RNG with a pinned seed), so callers get
    the same template every time.
    """
    i1, i2, i3, i4 = dims
    rng = np.random.default_rng(1234)
    hours = np.arange(i1) / i1
    days = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(i2) / i2)
    template = np.empty(dims)
    for z in range(i4):
        amp1, amp2 = rng.uniform(2.0, 6.0), rng.uniform(0.5, 2.0)
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        level = rng.uniform(8.0, 20.0)
        daily = level + amp1 * np.sin(2 * np.pi * hours + ph1) + amp2 * np.sin(
            4 * np.pi * hours + ph2
        )
        template[:, :, :, z] = daily[:, None, None] * days[None, :, None]
    return template


def _rng(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def generate_base(template):
    """Replace every week with the across-week average of the template."""
    template = np.asarray(template, dtype=float)
    if template.ndim != 4:
        raise ValueError("template must be an order-4 tensor")
    mean = template.mean(axis=2, keepdims=True)
    return np.broadcast_to(mean, template.shape).copy()


def inject_noise(T, seed, mean=1.0, var=0.5):
    """Multiply every element by an independent Gaussian draw."""
    T = np.asarray(T, dtype=float)
    draws = _rng(seed).normal(mean, math.sqrt(var), size=T.shape)
    return T * draws


def inject_anomalies(T, c, l, m, seed):
    """Add interval anomalies to m% of the mode-1 (day) fibers.

    Each selected fiber gets one contiguous interval of l hours shifted by
    +/- c times the interval's pre-injection mean; the sign is a fair coin.
    Fibers are drawn without replacement so labels never overlap.
    """
    T = np.asarray(T, dtype=float).copy()
    i1 = T.shape[0]
    fiber_dims = T.shape[1:]
    total = math.prod(fiber_dims)
    if not 1 <= l <= i1:
        raise ValueError(f"l must be in [1, {i1}], got {l}")
    count = math.ceil(m / 100.0 * total)
    if count > total:
        raise ValueError(f"cannot select {count} distinct fibers out of {total}")
    rng = _rng(seed)
    mask = np.zeros(T.shape, dtype=bool)
    intervals = []
    if count:
        chosen = rng.choice(total, size=count, replace=False)
        for flat in chosen:
            fiber = np.unravel_index(flat, fiber_dims)
            start = int(rng.integers(0, i1 - l + 1))
            sign = 1 if rng.integers(0, 2) else -1
            idx = (slice(start, start + l),) + fiber
            shift = sign * c * T[idx].mean()
            T[idx] += shift
            mask[idx] = True
            intervals.append((tuple(int(f) for f in fiber), start, int(l), sign))
    truth = GroundTruth(
        anomaly_mask=mask,
        observed=np.ones(T.shape, dtype=bool),
        injected_intervals=intervals,
    )
    return T, truth


def apply_missing(T, P, seed):
    """Blank out P% of the mode-1 fibers; returns the tensor and its support."""
    T = np.asarray(T, dtype=float).copy()
    if not 0 <= P <= 100:
        raise ValueError(f"P must be a percentage in [0, 100], got {P}")
    fiber_dims = T.shape[1:]
    total = math.prod(fiber_dims)
    count = math.ceil(P / 100.0 * total)
    observed = np.ones(T.shape, dtype=bool)
    if count:
        chosen = _rng(seed).choice(total, size=count, replace=False)
        for flat in chosen:
            idx = (slice(None),) + np.unravel_index(flat, fiber_dims)
            T[idx] = 0.0
            observed[idx] = False
    return T, observed


def synthesize(config):
    """Full pipeline: base pattern, noise, anomalies, missing fibers.

    Returns (Y, observed, GroundTruth, manifest) where the manifest records
    the configuration and injected intervals for reproducibility.  Raises
    ValueError if Y overflows to a non-finite value.
    """
    noise_seed, anomaly_seed, missing_seed = np.random.SeedSequence(
        config.seed
    ).spawn(3)
    base = generate_base(config.base)
    # an overflow is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = inject_noise(
            base, np.random.default_rng(noise_seed), config.noise_mean, config.noise_var
        )
        Y, truth = inject_anomalies(
            noisy, config.c, config.l, config.m, np.random.default_rng(anomaly_seed)
        )
    Y, observed = apply_missing(Y, config.p, np.random.default_rng(missing_seed))
    if not np.isfinite(Y).all():
        raise ValueError("synth tensor not finite: c, noise_mean or noise_var too large")
    truth.observed = observed
    manifest = {
        "dims": list(config.base.shape),
        "c": config.c,
        "l": config.l,
        "m": config.m,
        "p": config.p,
        "seed": config.seed,
        "noise_mean": config.noise_mean,
        "noise_var": config.noise_var,
        "injected_intervals": [
            {"fiber": list(f), "start": s, "length": ln, "sign": sg}
            for f, s, ln, sg in truth.injected_intervals
        ],
    }
    return Y, observed, truth, manifest
