"""Ground-truth-labeled synthetic traffic tensors.

The generator mimics hourly arrival counts: a weekly base pattern repeated
across weeks, multiplicative Gaussian noise, additive interval anomalies on
randomly chosen day fibers, and optionally a fraction of day fibers blanked
out to simulate missing data.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .scoring import _percent_count

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
        _check_anomalies(self.c, self.l, base.shape[0])
        for name in ("m", "p"):
            v = getattr(self, name)
            if not 0 <= v <= 100:
                raise ValueError(f"{name} must be a percentage in [0, 100], got {v}")
        _check_noise(self.noise_mean, self.noise_var, prefix="noise_")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")


def _check_anomalies(c, l, i1):
    # the rules of SynthConfig.c and .l; NaN fails every rule
    if not 0 < c < math.inf:
        raise ValueError("c must be finite and positive")
    if not isinstance(l, (int, np.integer)) or not 1 <= l <= i1:
        raise ValueError(f"l must be an integer in [1, {i1}], got {l}")


def _check_noise(mean, var, prefix=""):
    # the rules of SynthConfig.noise_mean and .noise_var
    if not math.isfinite(mean):
        raise ValueError(f"{prefix}mean must be finite")
    if not 0 <= var < math.inf:
        raise ValueError(f"{prefix}var must be finite and nonnegative")


@dataclass
class GroundTruth:
    """Element-level anomaly labels and the injected intervals as
    (fiber (i2, i3, i4), start, length, sign) tuples.

    Anomalies may land on fibers that are later blanked out; evaluation is
    restricted to observed elements.
    """

    anomaly_mask: np.ndarray
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
    _check_noise(mean, var)
    T = np.asarray(T, dtype=float)
    draws = _rng(seed).normal(mean, math.sqrt(var), size=T.shape)
    return T * draws


def _fibers(shape, percent, name, rng):
    """``ceil(percent %)`` (:func:`.scoring._percent_count`) of the mode-1 fibers
    of ``shape``, drawn without replacement, as index tuples over modes 2..N."""
    if not 0 <= percent <= 100:  # NaN fails too
        raise ValueError(f"{name} must be a percentage in [0, 100], got {percent}")
    fiber_dims = shape[1:]
    total = math.prod(fiber_dims)
    count = _percent_count(percent, total)
    chosen = rng.choice(total, size=count, replace=False) if count else []
    return [np.unravel_index(flat, fiber_dims) for flat in chosen]


def inject_anomalies(T, c, l, m, seed):
    """Add interval anomalies to m% of the mode-1 (day) fibers.

    Each selected fiber gets one contiguous interval of l hours shifted by
    +/- c times the interval's pre-injection mean; the sign is a fair coin.
    Fibers are drawn without replacement so labels never overlap.
    """
    T = np.asarray(T, dtype=float).copy()
    i1 = T.shape[0]
    _check_anomalies(c, l, i1)
    rng = _rng(seed)
    mask = np.zeros(T.shape, dtype=bool)
    intervals = []
    for fiber in _fibers(T.shape, m, "m", rng):
        start = int(rng.integers(0, i1 - l + 1))
        sign = 1 if rng.integers(0, 2) else -1
        idx = (slice(start, start + l),) + fiber
        shift = sign * c * T[idx].mean()
        T[idx] += shift
        mask[idx] = True
        intervals.append((tuple(int(f) for f in fiber), start, int(l), sign))
    return T, GroundTruth(anomaly_mask=mask, injected_intervals=intervals)


def apply_missing(T, P, seed):
    """Blank out P% of the mode-1 fibers; returns the tensor and its support."""
    T = np.asarray(T, dtype=float).copy()
    observed = np.ones(T.shape, dtype=bool)
    for fiber in _fibers(T.shape, P, "P", _rng(seed)):
        idx = (slice(None),) + fiber
        T[idx] = 0.0
        observed[idx] = False
    return T, observed


def synthesize(config):
    """Full pipeline: base pattern, noise, anomalies, missing fibers.

    Returns (Y, observed, GroundTruth, manifest) where the manifest records
    every setting of the config, the dims of its template and the injected
    intervals for reproducibility.  Raises ValueError if Y overflows to a
    non-finite value.
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
    manifest = {
        # every setting but the template (field 0), which dims stands in for
        **{f.name: getattr(config, f.name) for f in fields(config)[1:]},
        "dims": list(config.base.shape),
        "injected_intervals": [
            {"fiber": list(f), "start": s, "length": ln, "sign": sg}
            for f, s, ln, sg in truth.injected_intervals
        ],
    }
    return Y, observed, truth, manifest
