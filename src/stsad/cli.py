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
import itertools
import json
import os
import sys

import numpy as np

from . import baselines, logss
from .config import ConfigError, STAGES, config_for_stage, library_args
from .evaluation import benchmark_timing, detection_at_k, labeled_scores, roc_auc, roc_points
from .graphs import ModeGraph, build_mode_graphs, stationarity_report
from .ingest import events_from_csv, ingest_trips, read_zone_list
from .scoring import score_sparse_tensor
from .synth import SynthConfig, builtin_template, synthesize
from .tensor import _read_table, load_mask, load_tensor, save_mask, save_tensor


def _out(cfg, name):
    return os.path.join(cfg["output_dir"], name)


def _input(cfg, name):
    path = _out(cfg, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing upstream artifact: {path}")
    return path


def _load(cfg, *names):
    """The stage inputs ``names``, omega.txt and labels.txt as masks, of one
    shape.  The support must hold an entry and, where the labels come with
    it, both classes: the AUC is taken over it."""
    arrays = [(load_mask if name in ("omega.txt", "labels.txt") else load_tensor)(
        _input(cfg, name)) for name in names]
    if len({a.shape for a in arrays}) > 1:
        raise ValueError("dims differ: " + ", ".join(
            f"{name} {a.shape}" for name, a in zip(names, arrays)))
    inputs = dict(zip(names, arrays))
    observed, labels = inputs.get("omega.txt"), inputs.get("labels.txt")
    if observed is not None and not observed.any():
        raise ValueError(f"{_out(cfg, 'omega.txt')}: no observed entries")
    if observed is not None and labels is not None:
        positive, n = np.count_nonzero(labels[observed]), np.count_nonzero(observed)
        if positive in (0, n):
            raise ValueError(f"{_out(cfg, 'labels.txt')}: {positive} of the {n} observed "
                             "labels are positive; the AUC needs both classes")
    return arrays


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _format_rows(row_format, columns):
    """One ``%``-style ``row_format`` line per entry of the equal-length lists
    ``columns``, ended by ``\\r\\n`` as ``csv.writer`` does.  One %-format
    over one flat argument list, as in save_tensor."""
    n, width = len(columns[0]), len(columns)
    args = [None] * (n * width)
    for k, column in enumerate(columns):
        args[k::width] = column
    return ((row_format + "\r\n") * n) % tuple(args)


def _write_csv(path, header, chunks):
    """Write the ``header`` line, then the text ``chunks``."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(chunks)


def _write_index_csv(path, header, *arrays):
    """One row per element of the same-shaped ``arrays``: its index, in C
    order, then its value in each array.  The text is built one mode-1 slab
    at a time, which bounds its memory."""
    pieces = [[f"{i}," for i in range(d)] for d in arrays[0].shape[1:]]
    rest = list(map("".join, itertools.product(*pieces)))  # modes 2..N of a slab
    values = ",".join(["%.17g"] * len(arrays))
    slabs = (_format_rows(f"{i},%s{values}", [rest, *(a[i].ravel().tolist() for a in arrays)])
             for i in range(arrays[0].shape[0]))
    _write_csv(path, header, slabs)


def _index_header(modes, *names):
    """Index columns i<n> for each of ``modes``, then ``names``."""
    return ",".join([f"i{n}" for n in modes] + list(names))


def _write_scores_csv(path, scores):
    _write_index_csv(path, _index_header(range(1, scores.ndim + 1), "score"), scores)


def _read_scores_csv(path, dims):
    def bad_index(table):  # not integers inside the tensor, or an earlier row's element
        bad, flat = np.zeros(len(table), bool), np.zeros(len(table), np.intp)
        for size, column in zip(dims, table[:, :-1].T):  # flat: the element, in C order
            column = np.ascontiguousarray(column)  # twice as fast as the strided view
            ok = (column == np.floor(column)) & (column >= 0) & (column < size)
            bad |= ~ok
            flat *= size
            flat += np.where(ok, column, 0.0).astype(np.intp)  # no NaN is cast
        # every row but the first of its element; a bad row's element counts too
        if np.bincount(flat, minlength=1).max() > 1:
            bad |= ~np.isin(np.arange(len(flat)), np.unique(flat, return_index=True)[1])
        return bad

    header = _index_header(range(1, len(dims) + 1), "score")
    with open(path, newline="") as fh:
        line = fh.readline()
        if line.rstrip("\r\n") != header:
            raise ValueError(f"{path}:1: header {line!r} is not {header}")
        table = _read_table(fh, path, len(dims) + 1, ",", bad_index)
    # bad_index rules out repeats, so the rows cover the tensor when they are as many
    if len(table) != np.prod(dims):
        raise ValueError(f"{path}: does not cover all {dims} elements")
    scores = np.empty(dims)
    scores[tuple(table[:, :-1].astype(np.intp).T)] = table[:, -1]
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
    Y, = _load(cfg, "Y.txt")
    graphs = build_mode_graphs(Y, **library_args(cfg, "graphs"))
    stationarity = stationarity_report(Y, graphs)
    meta = []
    for g in graphs:
        for name in _GRAPH_ARRAYS:
            save_tensor(_out(cfg, _graph_file(g.mode, name)), getattr(g, name))
        meta.append({"mode": g.mode, "rank": g.rank, "size": int(g.weights.shape[0])})
    _write_json(_out(cfg, "graphs.json"), meta)
    _write_json(_out(cfg, "stationarity.json"), stationarity)
    ranks = ", ".join(f"mode {m['mode']}: J={m['rank']}" for m in meta)
    print(f"graphs: {ranks}")


def _load_graphs(cfg):
    path = _input(cfg, "graphs.json")
    with open(path) as fh:
        meta = json.load(fh)
    # type() is int: JSON true and false load as bool, an int subclass
    ints = lambda e: {type(e.get("mode")), type(e.get("rank"))} == {int}
    if not (isinstance(meta, list) and all(isinstance(e, dict) and ints(e) for e in meta)):
        raise ValueError(f"{path}: not a list of objects with integer mode and rank")
    graphs = []
    for entry in meta:
        arrays = {name: load_tensor(_input(cfg, _graph_file(entry["mode"], name)))
                  for name in _GRAPH_ARRAYS}
        graphs.append(ModeGraph(mode=entry["mode"], rank=entry["rank"], **arrays))
    return graphs


def _decompose(solver, cfg, Y, observed, graphs):
    """Run one solver on (Y, observed); ``graphs`` is needed by logss only."""
    if solver == "raw-ee":
        # passthrough: downstream stages score the raw tensor
        return logss.DecompositionResult(
            L=np.zeros(Y.shape), S=Y, residual_history=[], objective_history=[],
            wall_time=0.0, converged=True,
        )
    params = logss.LogssParams.defaults(Y, observed, **library_args(cfg, "solver"))
    if solver == "logss":
        return logss.solve(Y, observed, graphs, params)
    run = baselines.solve_loss if solver == "loss" else baselines.solve_horpca
    return run(Y, observed, params)


def run_decompose(cfg):
    Y, observed = _load(cfg, "Y.txt", "omega.txt")
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
    S, = _load(cfg, "S.txt")
    field = score_sparse_tensor(S, **library_args(cfg, "score"))
    _write_scores_csv(_out(cfg, "scores.csv"), field.scores)
    if cfg["write_fit_stats"]:  # one row per mode-3 fiber
        header = _index_header([n for n in range(1, S.ndim + 1) if n != 3], "loc", "scale")
        _write_index_csv(_out(cfg, "fit_stats.csv"), header, field.loc, field.scale)
    print(f"score: wrote scores for {S.shape}")


def run_evaluate(cfg):
    observed, labels = _load(cfg, "omega.txt", "labels.txt")
    scores = _read_scores_csv(_input(cfg, "scores.csv"), labels.shape)
    ls = labeled_scores(scores, labels, observed)
    auc = roc_auc(ls)
    fpr, tpr = roc_points(ls)
    if cfg["events_csv"]:
        zones = read_zone_list(cfg["zone_file"])
        events = events_from_csv(cfg["events_csv"], zones, cfg["year"])
        counts = detection_at_k(scores, events, cfg["k_list"])
    _write_json(_out(cfg, "auc.json"), {"method": cfg["solver"], "auc": auc})
    _write_csv(_out(cfg, "roc.csv"), "fpr,tpr",
               [_format_rows("%.17g,%.17g", [fpr.tolist(), tpr.tolist()])])
    if cfg["events_csv"]:
        _write_json(
            _out(cfg, "detection.json"),
            [{"k_percent": k, "detected": v} for k, v in counts.items()],
        )
    print(f"evaluate[{cfg['solver']}]: AUC = {auc:.4f}")


def run_bench(cfg):
    Y, observed, labels = _load(cfg, "Y.txt", "omega.txt", "labels.txt")
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
        if stage == "synth":
            p.add_argument("--seed", type=int, help="override the config's seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; -h exits 0, a usage error is bad input
        return 1 if exc.code else 0

    try:
        cfg = config_for_stage(args.config, args.stage, getattr(args, "seed", None))
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
