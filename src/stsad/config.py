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


# library call -> {config key: (caster, argument name)}.  A stage passes only
# the keys the file sets, so every other argument keeps the default its
# callee states.
ARGUMENTS = {
    "synth": {  # SynthConfig
        "synth_c": (float, "c"), "synth_l": (int, "l"), "synth_m": (float, "m"),
        "synth_p": (float, "p"), "seed": (int, "seed"),
        "noise_mean": (float, "noise_mean"), "noise_var": (float, "noise_var"),
    },
    "graphs": {"knn_k": (int, "k"), "rank_ratio": (float, "ratio")},  # build_mode_graphs
    "solver": {  # LogssParams.defaults
        "theta": (float, "theta"), "lambda": (float, "lam"), "gamma": (float, "gamma"),
        "beta1": (float, "beta1"), "beta2": (float, "beta2"),
        "beta3": (float, "beta3"), "beta4": (float, "beta4"),
        "max_iter": (int, "max_iter"), "tol": (float, "tol"),
    },
    "score": {"h_fraction": (float, "h_fraction")},  # score_sparse_tensor
    "ingest": {  # ingest_trips
        "trips_csv": (_paths, "csv_paths"), "year": (int, "year"),
        "timestamp_column": (str, "timestamp_column"), "zone_column": (str, "zone_column"),
    },
}

# key -> (caster, default) for the keys the CLI reads itself, then every key
# of ARGUMENTS with no default here: None means unset.
_SCHEMA = {
    "output_dir": (str, None),
    "dims": (_ints, None),
    "solver": (str, "logss"),
    "base_tensor": (str, ""),
    "write_fit_stats": (_bool, False),
    "k_list": (_floats, (0.5, 1.0, 2.0, 5.0)),
    "events_csv": (str, ""),
    "zone_file": (str, None),
    "bench_solvers": (str.split, ("logss", "loss")),
    "bench_repeats": (int, 3),
} | {key: (caster, None) for table in ARGUMENTS.values() for key, (caster, _) in table.items()}

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
    for key, (_, arg) in ARGUMENTS["solver"].items():
        if cfg[key] is not None:
            try:
                LogssParams(**{arg: cfg[key]})
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from exc
    if cfg["bench_repeats"] < 2:
        raise ConfigError(f"{path}: bench_repeats must be at least 2")
    ks = cfg["k_list"]
    bad = [k for k in ks if not 0 < k <= 100]  # NaN included
    twice = [k for i, k in enumerate(ks) if k in ks[:i]]  # detection.json counts by K
    if bad or twice or not ks:
        why = (f"K percent must be in (0, 100], got {bad[0]}" if bad
               else f"K {twice[0]} is listed twice" if twice else "K list is empty")
        raise ConfigError(f"{path}: bad value for 'k_list': {why}")
    needed = [k for k in ("zone_file", "year") if cfg[k] is None]
    if cfg["events_csv"] and needed:
        raise ConfigError(f"{path}: events_csv requires keys: {', '.join(needed)}")
    if not cfg["bench_solvers"]:
        raise ConfigError(f"{path}: bench_solvers names no solver")
    unknown = [s for s in cfg["bench_solvers"] if s not in _SOLVERS]
    if unknown:
        raise ConfigError(f"{path}: unknown bench solvers: {', '.join(unknown)}")
    return cfg


def library_args(cfg, call):
    """The arguments of ``call`` (a key of ``ARGUMENTS``) that the config
    sets, keyed by argument name."""
    return {
        arg: cfg[key] for key, (_, arg) in ARGUMENTS[call].items() if cfg[key] is not None
    }
