"""Command-line pipeline: synth | ingest | graphs | decompose | score |
evaluate | bench, each driven by a flat key=value config file.

Stages communicate only through files in the configured output directory,
so any stage can be rerun in isolation and solvers can be swapped on the
same tensor and graphs.  Artifacts never embed wall-clock times, which keeps
reruns byte-identical; timings go to stdout (and to bench.json, whose whole
point is timing).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import sys
import warnings

import numpy as np

from . import baselines, logss
from .config import ConfigError, STAGES, config_for_stage, library_args
from .evaluation import benchmark_timing, detection_at_k, labeled_scores, roc_auc, roc_points
from .graphs import ModeGraph, build_mode_graphs, stationarity_report
from .ingest import events_from_csv, ingest_trips, read_zone_list
from .scoring import score_sparse_tensor
from .synth import SynthConfig, builtin_template, synthesize
from .tensor import load_mask, load_tensor, save_mask, save_tensor


def _out(cfg, name):
    return os.path.join(cfg["output_dir"], name)


def _require(cfg, *names):
    for name in names:
        path = _out(cfg, name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing upstream artifact: {path}")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_csv(path, header, row_format, columns):
    """Write the ``header`` line and one ``row_format`` row per entry of the
    1-D ``columns``, ending lines with ``\\r\\n`` as ``csv.writer`` does."""
    rows = map((row_format + "\r\n").format, *(c.tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.write("".join(rows))


_SCORES_HEADER = "i1,i2,i3,i4,score"


def _write_scores_csv(path, scores):
    index = np.indices(scores.shape).reshape(scores.ndim, -1)  # C order, as ravel
    _write_csv(path, _SCORES_HEADER, "{},{},{},{},{:.17g}", [*index, scores.ravel()])


def _score_table(lines, dims):
    """``scores.csv`` body lines (any iterable of str, such as the open file
    after its header) as an (n, 5) float table.

    Raises ValueError unless every non-empty line has five numeric fields:
    integer-valued indices inside ``dims`` that no other line repeats, and a
    finite score.  Every prefix of a valid body is valid.
    """
    with warnings.catch_warnings():
        # a body without rows is reported by the coverage check
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if table.size == 0:
        return np.empty((0, 5))
    if table.shape[1] != 5:
        raise ValueError("rows must have five fields")
    index = table[:, :4]
    if not ((index == np.floor(index)) & (index >= 0) & (index < dims)).all():
        raise ValueError("index not an integer inside the tensor")
    flat = np.ravel_multi_index(tuple(index.astype(np.intp).T), dims)
    if np.bincount(flat).max() > 1:
        raise ValueError("element listed twice")
    if not np.isfinite(table[:, 4]).all():
        raise ValueError("score not finite")
    return table


def _read_scores_csv(path, dims):
    with open(path, newline="") as fh:
        header = fh.readline()
        if header.rstrip("\r\n") != _SCORES_HEADER:
            raise ValueError(f"{path}:1: header {header!r} is not {_SCORES_HEADER}")
        try:
            table = _score_table(fh, dims)
        except ValueError as exc:
            # the first bad line ends the shortest body prefix that fails;
            # numbered as csv does, header = line 1
            fh.seek(0)
            lines = fh.readlines()[1:]

            def fails(k):
                try:
                    _score_table(lines[:k], dims)
                except ValueError:
                    return True
                return False

            line = bisect.bisect_left(range(len(lines) + 1), True, key=fails) + 1
            raise ValueError(f"{path}:{line}: bad row") from exc
    scores = np.full(dims, np.nan)
    scores[tuple(table[:, :4].astype(np.intp).T)] = table[:, 4]
    if np.isnan(scores).any():
        raise ValueError(f"{path}: does not cover all {dims} elements")
    return scores


def run_synth(cfg):
    dims = cfg["dims"]
    base = load_tensor(cfg["base_tensor"]) if cfg["base_tensor"] else builtin_template(dims)
    if base.shape != tuple(dims):
        raise ValueError(f"base tensor shape {base.shape} != configured dims {dims}")
    sc = SynthConfig(base, **library_args(cfg, "synth"))
    Y, observed, truth, manifest = synthesize(sc)
    save_tensor(_out(cfg, "Y.txt"), Y)
    save_mask(_out(cfg, "omega.txt"), observed)
    save_mask(_out(cfg, "labels.txt"), truth.anomaly_mask)
    _write_json(_out(cfg, "synth_manifest.json"), manifest)
    print(f"synth: wrote Y/omega/labels for dims {dims} to {cfg['output_dir']}")


def run_ingest(cfg):
    zones = read_zone_list(cfg["zone_file"])
    Y, observed, summary = ingest_trips(zone_list=zones, **library_args(cfg, "ingest"))
    save_tensor(_out(cfg, "Y.txt"), Y)
    save_mask(_out(cfg, "omega.txt"), observed)
    _write_json(_out(cfg, "ingest_summary.json"), summary)
    print(f"ingest: counted {summary['counted']} records into {Y.shape}")


_GRAPH_ARRAYS = ("weights", "laplacian", "eigvals", "eigvecs")  # ModeGraph fields


def _graph_file(mode, name):
    return f"mode{mode}_{name}.txt"


def run_graphs(cfg):
    _require(cfg, "Y.txt")
    Y = load_tensor(_out(cfg, "Y.txt"))
    graphs = build_mode_graphs(Y, **library_args(cfg, "graphs"))
    meta = []
    for g in graphs:
        for name in _GRAPH_ARRAYS:
            save_tensor(_out(cfg, _graph_file(g.mode, name)), getattr(g, name))
        meta.append({"mode": g.mode, "rank": g.rank, "size": int(g.weights.shape[0])})
    _write_json(_out(cfg, "graphs.json"), meta)
    _write_json(_out(cfg, "stationarity.json"), stationarity_report(Y, graphs))
    ranks = ", ".join(f"mode {m['mode']}: J={m['rank']}" for m in meta)
    print(f"graphs: {ranks}")


def _load_graphs(cfg):
    _require(cfg, "graphs.json")
    path = _out(cfg, "graphs.json")
    with open(path) as fh:
        meta = json.load(fh)
    # type() is int: JSON true and false load as bool, an int subclass
    ints = lambda e: {type(e.get("mode")), type(e.get("rank"))} == {int}
    if not (isinstance(meta, list) and all(isinstance(e, dict) and ints(e) for e in meta)):
        raise ValueError(f"{path}: not a list of objects with integer mode and rank")
    graphs = []
    for entry in meta:
        files = {name: _graph_file(entry["mode"], name) for name in _GRAPH_ARRAYS}
        _require(cfg, *files.values())
        arrays = {name: load_tensor(_out(cfg, f)) for name, f in files.items()}
        graphs.append(ModeGraph(mode=entry["mode"], rank=entry["rank"], **arrays))
    return graphs


def _decompose(solver, cfg, Y, observed, graphs):
    """Run one solver on (Y, observed); ``graphs`` is needed by logss only."""
    if solver == "raw-ee":
        # passthrough: downstream stages score the raw tensor
        return logss.DecompositionResult(
            L=np.zeros(Y.shape), S=Y, iterations=0,
            residual_history=[], objective_history=[], wall_time=0.0,
            converged=True,
        )
    params = logss.LogssParams.defaults(Y, observed, **library_args(cfg, "solver"))
    if solver == "logss":
        return logss.solve(Y, observed, graphs, params)
    run = baselines.solve_loss if solver == "loss" else baselines.solve_horpca
    return run(Y, observed, params)


def run_decompose(cfg):
    _require(cfg, "Y.txt", "omega.txt")
    Y = load_tensor(_out(cfg, "Y.txt"))
    observed = load_mask(_out(cfg, "omega.txt"))
    solver = cfg["solver"]
    graphs = _load_graphs(cfg) if solver == "logss" else None
    result = _decompose(solver, cfg, Y, observed, graphs)

    save_tensor(_out(cfg, "L.txt"), result.L)
    save_tensor(_out(cfg, "S.txt"), result.S)
    _write_jsonl(_out(cfg, "diagnostics.jsonl"), result.diagnostics_rows())
    _write_json(
        _out(cfg, "decompose.json"),
        {
            "solver": solver,
            "iterations": result.iterations,
            "converged": result.converged,
        },
    )
    print(
        f"decompose[{solver}]: {result.iterations} iterations, "
        f"{result.wall_time:.2f}s wall"
    )
    if not result.converged:
        print(
            f"warning: decompose[{solver}] stopped at max_iter after {result.iterations} "
            f"iterations without reaching tol = {result.params.tol:g}",
            file=sys.stderr,
        )


def run_score(cfg):
    _require(cfg, "S.txt")
    S = load_tensor(_out(cfg, "S.txt"))
    field = score_sparse_tensor(S, **library_args(cfg, "score"))
    _write_scores_csv(_out(cfg, "scores.csv"), field.scores)
    if cfg["write_fit_stats"]:
        index = np.indices(field.loc.shape).reshape(field.loc.ndim, -1)
        _write_csv(
            _out(cfg, "fit_stats.csv"),
            "i1,i2,i4,loc,scale",
            "{},{},{},{:.17g},{:.17g}",
            [*index, field.loc.ravel(), field.scale.ravel()],
        )
    print(f"score: wrote scores for {S.shape}")


def run_evaluate(cfg):
    _require(cfg, "scores.csv", "labels.txt", "omega.txt")
    labels = load_mask(_out(cfg, "labels.txt"))
    observed = load_mask(_out(cfg, "omega.txt"))
    scores = _read_scores_csv(_out(cfg, "scores.csv"), labels.shape)
    ls = labeled_scores(scores, labels, observed)
    auc = roc_auc(ls)
    _write_json(_out(cfg, "auc.json"), {"method": cfg["solver"], "auc": auc})
    fpr, tpr = roc_points(ls)
    _write_csv(_out(cfg, "roc.csv"), "fpr,tpr", "{:.17g},{:.17g}", [fpr, tpr])
    if cfg["events_csv"]:
        zones = read_zone_list(cfg["zone_file"])
        events = events_from_csv(cfg["events_csv"], zones, cfg["year"])
        counts = detection_at_k(scores, events, cfg["k_list"])
        _write_json(
            _out(cfg, "detection.json"),
            [{"k_percent": k, "detected": v} for k, v in counts.items()],
        )
    print(f"evaluate[{cfg['solver']}]: AUC = {auc:.4f}")


def run_bench(cfg):
    _require(cfg, "Y.txt", "omega.txt", "labels.txt")
    Y = load_tensor(_out(cfg, "Y.txt"))
    observed = load_mask(_out(cfg, "omega.txt"))
    labels = load_mask(_out(cfg, "labels.txt"))
    if not Y.shape == observed.shape == labels.shape:
        raise ValueError(f"dims differ: Y.txt {Y.shape}, omega.txt {observed.shape}, "
                         f"labels.txt {labels.shape}")
    graphs = None
    if "logss" in cfg["bench_solvers"]:
        graphs = build_mode_graphs(Y, **library_args(cfg, "graphs"))

    def scorer(name):
        def scores(Y, observed):
            S = _decompose(name, cfg, Y, observed, graphs).S
            return score_sparse_tensor(S, **library_args(cfg, "score")).scores
        return scores

    solvers = [(name, scorer(name)) for name in cfg["bench_solvers"]]
    rows = benchmark_timing(solvers, (Y, observed, labels), cfg["bench_repeats"])
    _write_json(_out(cfg, "bench.json"), rows)
    for row in rows:
        if row["failures"]:
            print(f"warning: {row['method']} failed {row['failures']} repeat(s): "
                  + "; ".join(row["errors"]), file=sys.stderr)
        if row["auc_mean"] is not None:
            print(
                f"bench[{row['method']}]: AUC {row['auc_mean']:.4f} "
                f"+/- {row['auc_std']:.4f}, time {row['time_mean_s']:.2f}s "
                f"+/- {row['time_std_s']:.2f}s"
            )


_RUNNERS = {
    "synth": run_synth,
    "ingest": run_ingest,
    "graphs": run_graphs,
    "decompose": run_decompose,
    "score": run_score,
    "evaluate": run_evaluate,
    "bench": run_bench,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stsad",
        description="Spatiotemporal anomaly detection pipeline",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; -h exits 0, a usage error is bad input
        return 1 if exc.code else 0

    try:
        cfg = config_for_stage(args.config, args.stage, seed_override=args.seed)
        try:
            os.makedirs(cfg["output_dir"], exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise ConfigError(f"cannot create output_dir: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        _RUNNERS[args.stage](cfg)
    # a path that cannot be read or written as asked is bad input; any other
    # OSError (a full disk, say) is a runtime failure
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
