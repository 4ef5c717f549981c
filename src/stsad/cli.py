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
import csv
import json
import os
import sys

import numpy as np

from . import baselines, logss
from .config import ConfigError, STAGES, config_for_stage, solver_param_overrides
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


def _write_scores_csv(path, scores):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i1", "i2", "i3", "i4", "score"])
        for idx in np.ndindex(scores.shape):
            writer.writerow([*idx, f"{scores[idx]:.17g}"])


def _read_scores_csv(path, dims):
    scores = np.full(dims, np.nan)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            try:
                idx = tuple(int(record[f"i{k}"]) for k in range(1, 5))
                if any(not 0 <= i < d for i, d in zip(idx, dims)):
                    raise IndexError(idx)
                scores[idx] = float(record["score"])
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad row") from exc
    if np.isnan(scores).any():
        raise ValueError(f"{path}: does not cover all {dims} elements")
    return scores


def run_synth(cfg):
    dims = cfg["dims"]
    base = load_tensor(cfg["base_tensor"]) if cfg["base_tensor"] else builtin_template(dims)
    if base.shape != tuple(dims):
        raise ValueError(f"base tensor shape {base.shape} != configured dims {dims}")
    sc = SynthConfig(
        base=base,
        c=cfg["synth_c"],
        l=cfg["synth_l"],
        m=cfg["synth_m"],
        p=cfg["synth_p"],
        seed=cfg["seed"],
        noise_mean=cfg["noise_mean"],
        noise_var=cfg["noise_var"],
    )
    Y, observed, truth, manifest = synthesize(sc)
    save_tensor(_out(cfg, "Y.txt"), Y)
    save_mask(_out(cfg, "omega.txt"), observed)
    save_mask(_out(cfg, "labels.txt"), truth.anomaly_mask)
    _write_json(_out(cfg, "synth_manifest.json"), manifest)
    print(f"synth: wrote Y/omega/labels for dims {dims} to {cfg['output_dir']}")


def run_ingest(cfg):
    zones = read_zone_list(cfg["zone_file"])
    Y, observed, summary = ingest_trips(
        cfg["trips_csv"],
        zones,
        cfg["year"],
        timestamp_column=cfg["timestamp_column"],
        zone_column=cfg["zone_column"],
    )
    save_tensor(_out(cfg, "Y.txt"), Y)
    save_mask(_out(cfg, "omega.txt"), observed)
    _write_json(_out(cfg, "ingest_summary.json"), summary)
    print(f"ingest: counted {summary['counted']} records into {Y.shape}")


def run_graphs(cfg):
    _require(cfg, "Y.txt")
    Y = load_tensor(_out(cfg, "Y.txt"))
    graphs = build_mode_graphs(Y, k=cfg["knn_k"], ratio=cfg["rank_ratio"])
    meta = []
    for g in graphs:
        save_tensor(_out(cfg, f"mode{g.mode}_weights.txt"), g.weights)
        save_tensor(_out(cfg, f"mode{g.mode}_laplacian.txt"), g.laplacian)
        save_tensor(_out(cfg, f"mode{g.mode}_eigvals.txt"), g.eigvals)
        save_tensor(_out(cfg, f"mode{g.mode}_eigvecs.txt"), g.eigvecs)
        meta.append({"mode": g.mode, "rank": g.rank, "size": int(g.weights.shape[0])})
    _write_json(_out(cfg, "graphs.json"), meta)
    report = stationarity_report(Y, graphs)
    _write_json(_out(cfg, "stationarity.json"), report.rows())
    ranks = ", ".join(f"mode {m['mode']}: J={m['rank']}" for m in meta)
    print(f"graphs: {ranks}")


def _load_graphs(cfg):
    _require(cfg, "graphs.json")
    with open(_out(cfg, "graphs.json")) as fh:
        meta = json.load(fh)
    graphs = []
    for entry in meta:
        n = entry["mode"]
        _require(
            cfg,
            f"mode{n}_weights.txt",
            f"mode{n}_laplacian.txt",
            f"mode{n}_eigvals.txt",
            f"mode{n}_eigvecs.txt",
        )
        graphs.append(
            ModeGraph(
                mode=n,
                weights=load_tensor(_out(cfg, f"mode{n}_weights.txt")),
                laplacian=load_tensor(_out(cfg, f"mode{n}_laplacian.txt")),
                eigvals=load_tensor(_out(cfg, f"mode{n}_eigvals.txt")),
                eigvecs=load_tensor(_out(cfg, f"mode{n}_eigvecs.txt")),
                rank=entry["rank"],
            )
        )
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
    params = logss.LogssParams.defaults(Y, observed, **solver_param_overrides(cfg))
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
            f"warning: decompose[{solver}] stopped at max_iter after "
            f"{result.iterations} iterations without reaching tol = {cfg['tol']:g}",
            file=sys.stderr,
        )


def run_score(cfg):
    _require(cfg, "S.txt")
    S = load_tensor(_out(cfg, "S.txt"))
    field = score_sparse_tensor(S, h_fraction=cfg["h_fraction"])
    _write_scores_csv(_out(cfg, "scores.csv"), field.scores)
    if cfg["write_fit_stats"]:
        with open(_out(cfg, "fit_stats.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i1", "i2", "i4", "loc", "scale"])
            for idx in np.ndindex(field.loc.shape):
                writer.writerow(
                    [*idx, f"{field.loc[idx]:.17g}", f"{field.scale[idx]:.17g}"]
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
    with open(_out(cfg, "roc.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for f, t in zip(fpr, tpr):
            writer.writerow([f"{f:.17g}", f"{t:.17g}"])
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
    graphs = (
        build_mode_graphs(Y, k=cfg["knn_k"], ratio=cfg["rank_ratio"])
        if "logss" in cfg["bench_solvers"]
        else None
    )

    def scorer(name):
        def scores(Y, observed):
            S = _decompose(name, cfg, Y, observed, graphs).S
            return score_sparse_tensor(S, h_fraction=cfg["h_fraction"]).scores
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
        os.makedirs(cfg["output_dir"], exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        _RUNNERS[args.stage](cfg)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
