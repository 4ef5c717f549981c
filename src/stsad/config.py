"""Flat key=value configuration for the pipeline stages.

Unknown keys are rejected, every value is type-checked up front, and each
stage declares which keys it cannot run without, so misconfigurations fail
before any work happens.
"""

from __future__ import annotations


class ConfigError(ValueError):
    pass


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _ints(text):
    return tuple(int(t) for t in text.split())


def _floats(text):
    return tuple(float(t) for t in text.split())


def _paths(text):
    return tuple(p.strip() for p in text.split(",") if p.strip())


# key -> (caster, default); a default of REQUIRED-by-stage is handled below
_SCHEMA = {
    "output_dir": (str, None),
    "seed": (int, 0),
    "dims": (_ints, None),
    "solver": (str, "logss"),
    # synthetic data
    "synth_c": (float, None),
    "synth_l": (int, None),
    "synth_m": (float, None),
    "synth_p": (float, 0.0),
    "noise_mean": (float, 1.0),
    "noise_var": (float, 0.5),
    "base_tensor": (str, ""),
    # graphs
    "knn_k": (int, 10),
    "rank_ratio": (float, 0.9),
    # solver parameters (unset means data-driven default)
    "theta": (float, None),
    "lambda": (float, None),
    "gamma": (float, None),
    "beta1": (float, None),
    "beta2": (float, None),
    "beta3": (float, None),
    "beta4": (float, None),
    "max_iter": (int, 300),
    "tol": (float, 1e-5),
    "circular_diff": (_bool, True),
    # scoring
    "h_fraction": (float, 0.75),
    "write_fit_stats": (_bool, False),
    # evaluation
    "k_list": (_floats, (0.5, 1.0, 2.0, 5.0)),
    "events_csv": (str, ""),
    # ingestion
    "trips_csv": (_paths, None),
    "zone_file": (str, None),
    "year": (int, None),
    "timestamp_column": (str, "timestamp"),
    "zone_column": (str, "zone"),
    # benchmarking
    "bench_solvers": (str.split, ("logss", "loss")),
    "bench_repeats": (int, 3),
}

_REQUIRED = {
    "synth": ("dims", "synth_c", "synth_l", "synth_m"),
    "ingest": ("trips_csv", "zone_file", "year"),
    "graphs": (),
    "decompose": (),
    "score": (),
    "evaluate": (),
    "bench": (),
}

STAGES = tuple(_REQUIRED)

_SOLVERS = ("logss", "loss", "horpca", "raw-ee")


def parse_config(path):
    """Parse a ``key = value`` file; returns (values, explicitly-set keys)."""
    values, explicit = {}, set()
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in explicit:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        caster, _ = _SCHEMA[key]
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        explicit.add(key)
    return values, explicit


def config_for_stage(path, stage, seed_override=None):
    """Validated config dict for one stage, with defaults filled in.

    The returned dict carries the explicitly-set key names under
    ``"_explicit"`` so callers can distinguish user choices from defaults.
    """
    if stage not in _REQUIRED:
        raise ConfigError(f"unknown stage {stage!r}")
    values, explicit = parse_config(path)
    missing = [k for k in ("output_dir",) + _REQUIRED[stage] if k not in values]
    if missing:
        raise ConfigError(
            f"{path}: stage {stage!r} requires keys: {', '.join(missing)}"
        )
    cfg = {key: values.get(key, default) for key, (_, default) in _SCHEMA.items()}
    if seed_override is not None:
        cfg["seed"] = seed_override
        explicit.add("seed")
    if cfg["solver"] not in _SOLVERS:
        raise ConfigError(
            f"{path}: solver must be one of {', '.join(_SOLVERS)}, got {cfg['solver']!r}"
        )
    if cfg["dims"] is not None and (
        len(cfg["dims"]) != 4 or any(d < 1 for d in cfg["dims"])
    ):
        raise ConfigError(f"{path}: dims must be four positive integers")
    for name in ("theta", "lambda", "gamma"):
        if cfg[name] is not None and cfg[name] < 0:
            raise ConfigError(f"{path}: {name} must be nonnegative")
    for name in ("beta1", "beta2", "beta3", "beta4"):
        if cfg[name] is not None and not cfg[name] > 0:
            raise ConfigError(f"{path}: {name} must be positive")
    if cfg["max_iter"] < 1:
        raise ConfigError(f"{path}: max_iter must be at least 1")
    if cfg["tol"] < 0:
        raise ConfigError(f"{path}: tol must be nonnegative")
    if cfg["bench_repeats"] < 2:
        raise ConfigError(f"{path}: bench_repeats must be at least 2")
    if stage == "evaluate" and cfg["events_csv"]:
        needed = [k for k in ("zone_file", "year") if cfg[k] is None]
        if needed:
            raise ConfigError(
                f"{path}: events_csv requires keys: {', '.join(needed)}"
            )
    unknown = [s for s in cfg["bench_solvers"] if s not in _SOLVERS]
    if unknown:
        raise ConfigError(f"{path}: unknown bench solvers: {', '.join(unknown)}")
    cfg["_explicit"] = explicit
    return cfg


def solver_param_overrides(cfg):
    """The solver parameters the user pinned explicitly, keyed for LogssParams."""
    mapping = {
        "theta": "theta",
        "lambda": "lam",
        "gamma": "gamma",
        "beta1": "beta1",
        "beta2": "beta2",
        "beta3": "beta3",
        "beta4": "beta4",
    }
    overrides = {
        dest: cfg[key]
        for key, dest in mapping.items()
        if key in cfg["_explicit"]
    }
    overrides["max_iter"] = cfg["max_iter"]
    overrides["tol"] = cfg["tol"]
    overrides["circular"] = cfg["circular_diff"]
    return overrides
