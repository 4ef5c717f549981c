"""Flat key=value configuration for the pipeline stages.

Unknown keys are rejected, every value is type-checked up front, and each
stage declares which keys it cannot run without, so misconfigurations fail
before any work happens.
"""

from __future__ import annotations

from .logss import LogssParams


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


# key -> (caster, default).  Keys in ARGUMENTS have no default here: they
# stay None unless the file sets them, and None means unset.
_SCHEMA = {
    "output_dir": (str, None),
    "seed": (int, None),
    "dims": (_ints, None),
    "solver": (str, "logss"),
    # synthetic data
    "synth_c": (float, None),
    "synth_l": (int, None),
    "synth_m": (float, None),
    "synth_p": (float, None),
    "noise_mean": (float, None),
    "noise_var": (float, None),
    "base_tensor": (str, ""),
    # graphs
    "knn_k": (int, None),
    "rank_ratio": (float, None),
    # solver parameters, checked by LogssParams (unset: LogssParams.defaults)
    "theta": (float, None),
    "lambda": (float, None),
    "gamma": (float, None),
    "beta1": (float, None),
    "beta2": (float, None),
    "beta3": (float, None),
    "beta4": (float, None),
    "max_iter": (int, None),
    "tol": (float, None),
    "circular_diff": (_bool, None),
    # scoring
    "h_fraction": (float, None),
    "write_fit_stats": (_bool, False),
    # evaluation
    "k_list": (_floats, (0.5, 1.0, 2.0, 5.0)),
    "events_csv": (str, ""),
    # ingestion
    "trips_csv": (_paths, None),
    "zone_file": (str, None),
    "year": (int, None),
    "timestamp_column": (str, None),
    "zone_column": (str, None),
    # benchmarking
    "bench_solvers": (str.split, ("logss", "loss")),
    "bench_repeats": (int, 3),
}

# library call -> {config key: argument name}.  A stage passes only the keys
# the file sets, so every other argument keeps the default its callee states.
ARGUMENTS = {
    "synth": {  # SynthConfig
        "synth_c": "c", "synth_l": "l", "synth_m": "m", "synth_p": "p", "seed": "seed",
        "noise_mean": "noise_mean", "noise_var": "noise_var",
    },
    "graphs": {"knn_k": "k", "rank_ratio": "ratio"},  # build_mode_graphs
    "solver": {  # LogssParams.defaults
        "theta": "theta", "lambda": "lam", "gamma": "gamma",
        "beta1": "beta1", "beta2": "beta2", "beta3": "beta3", "beta4": "beta4",
        "max_iter": "max_iter", "tol": "tol", "circular_diff": "circular",
    },
    "score": {"h_fraction": "h_fraction"},  # score_sparse_tensor
    "ingest": {  # ingest_trips
        "trips_csv": "csv_paths", "year": "year",
        "timestamp_column": "timestamp_column", "zone_column": "zone_column",
    },
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
    """Parse a ``key = value`` file into a dict of the keys it sets."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        caster, _ = _SCHEMA[key]
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def config_for_stage(path, stage, seed_override=None):
    """Validated config dict for one stage, with defaults filled in; a key
    left at ``None`` is unset."""
    if stage not in _REQUIRED:
        raise ConfigError(f"unknown stage {stage!r}")
    values = parse_config(path)
    missing = [k for k in ("output_dir",) + _REQUIRED[stage] if k not in values]
    if missing:
        raise ConfigError(
            f"{path}: stage {stage!r} requires keys: {', '.join(missing)}"
        )
    cfg = {key: values.get(key, default) for key, (_, default) in _SCHEMA.items()}
    if seed_override is not None:
        cfg["seed"] = seed_override
    if cfg["solver"] not in _SOLVERS:
        raise ConfigError(
            f"{path}: solver must be one of {', '.join(_SOLVERS)}, got {cfg['solver']!r}"
        )
    if cfg["dims"] is not None and (
        len(cfg["dims"]) != 4 or any(d < 1 for d in cfg["dims"])
    ):
        raise ConfigError(f"{path}: dims must be four positive integers")
    for key, arg in ARGUMENTS["solver"].items():
        if cfg[key] is not None:
            try:
                LogssParams(**{arg: cfg[key]})
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from exc
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
    return cfg


def library_args(cfg, call):
    """The arguments of ``call`` (a key of ``ARGUMENTS``) that the config
    sets, keyed by argument name."""
    return {arg: cfg[key] for key, arg in ARGUMENTS[call].items() if cfg[key] is not None}
