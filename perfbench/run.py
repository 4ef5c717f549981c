#!/usr/bin/env python3
"""Benchmark of the stsad pipeline, end to end and per module.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is ``src/stsad`` next to this directory; it receives
only inputs made from --seed.  One repetition runs the whole workload in
fresh processes with a fresh output directory, which is checked and then
deleted.  Another repetition starts while, lasting as long as the last one,
it would end less than half a repetition after --seconds (at least one
runs); each metric is the median over the repetitions.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and reports the per-module metrics of the traced ones,
plus the tracing overhead against the untraced ones; the spans come from
``tracer.py`` wrapping stsad's functions from outside.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
machine environment and every failed operation (with its exit code and last
stderr line) go to stderr as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

from checks import (  # noqa: E402
    auc_mann_whitney,
    dir_bytes,
    dir_hashes,
    read_csv_columns,
    read_text_tensor,
)
import sweep  # noqa: E402
from tracer import self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".perfbench_work")
TIME_LIMIT_S = 170

CHAIN = ("synth", "graphs", "decompose", "score", "evaluate")
CITY_DIMS = (24, 7, 52, 48)
COMPARE_DIMS = (24, 7, 52, 16)
MAX_ITER = 30
BENCH_SOLVERS = ("logss", "loss", "horpca", "raw-ee")

# Which stage wrote each artifact, so a bad file fails the right operation.
CITY_ARTIFACTS = {
    "synth": ("Y.txt", "omega.txt", "labels.txt", "synth_manifest.json"),
    "graphs": ("graphs.json", "stationarity.json")
    + tuple(
        f"mode{n}_{part}.txt"
        for n in range(1, 5)
        for part in ("weights", "laplacian", "eigvals", "eigvecs")
    ),
    "decompose": ("L.txt", "S.txt", "diagnostics.jsonl", "decompose.json"),
    "score": ("scores.csv",),
    "evaluate": ("auc.json", "roc.csv"),
}

# AUC of LOGSS recorded on the commit that defined this benchmark, by seed;
# a seed in the table must reproduce it within AUC_TOL.  Every seed must
# reach AUC_FLOOR, far below any value recorded.
with open(os.path.join(HERE, "reference_auc.json")) as _fh:
    REFERENCE_AUC = json.load(_fh)
AUC_TOL = 0.005
AUC_FLOOR = {"city-chain": 0.8, "solver-compare": 0.8, "paper-sweep": 0.7}

WORKLOADS = {
    "city-chain": {
        "seed": "synth seed of one city-like tensor, dims 24 7 52 48",
        "why": "The CLI chain synth -> graphs -> decompose -> score -> evaluate, one "
        "process per stage as a user runs it, at 419k elements with 30 LOGSS "
        "iterations (tol 0, so the iteration count is fixed).",
        "stresses": ["cli (stage start-up, CSV/JSON code)", "tensor text I/O",
                     "graphs k-NN build and stationarity", "logss full-support iterations",
                     "scoring", "evaluation roc_points and AUC"],
        "bypasses": ["baselines", "logss masked-support branches (synth_p 0)",
                     "logss stopping rule (tol 0)"],
    },
    "solver-compare": {
        "seed": "synth seed of one tensor, dims 24 7 52 16",
        "why": "stsad bench with logss, loss, horpca and raw-ee at 30 iterations "
        "each, two repeats: the only workload that runs the per-mode SVDs of "
        "the baselines and gives the LOSS/LOGSS ratio at equal iterations.",
        "stresses": ["baselines SVT (4 dense SVDs per iteration)", "logss",
                     "graphs build inside bench", "scoring", "evaluation.benchmark_timing"],
        "bypasses": ["large text artifacts", "roc_points", "stationarity_report",
                     "logss stopping rule (tol 0)"],
    },
    "paper-sweep": {
        "seed": "base of the 3 synth seeds per missing-data level (3*seed+j)",
        "why": "The paper's 24x7x12x8 missing-data protocol in one process: "
        "p in {0, 20, 40} x 3 seeds, LOGSS with its defaults (max_iter 300, "
        "tol 1e-5), where per-call overhead and the iteration count dominate.",
        "stresses": ["logss masked-support branches", "logss stopping rule",
                     "per-call overhead of small tensors", "graphs", "scoring"],
        "bypasses": ["cli", "tensor text I/O", "baselines", "roc_points"],
    },
}


# what reading a missing, truncated or garbled artifact can raise
MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError)


class Failure(Exception):
    """An output check that failed, charged to one operation."""

    def __init__(self, op, message):
        super().__init__(message)
        self.op = op


class Rep:
    """Measurements and failures of one repetition of a workload."""

    def __init__(self, ops):
        self.ops = list(ops)
        self.failures = []
        self.procs = {}
        self.spans = []
        self.setup_s = self.run_s = self.auc = 0.0
        self.peak_rss_mb = self.artifact_mb = self.roc_csv_mb = 0.0

    def fail(self, op, exit_code=None, stderr="", check=""):
        self.failures.append(
            {"op": op, "exit": exit_code, "stderr": stderr, "check": check}
        )

    @property
    def failed(self):
        return len({f["op"] for f in self.failures})


class Proc:
    """One finished child process: wall interval, exit code, peak RSS."""

    def __init__(self, argv, log_dir, name):
        self.out = os.path.join(log_dir, f"{name}.out")
        self.err = os.path.join(log_dir, f"{name}.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, self.out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err, flags, 0o644),
        ]
        self.start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, CHILD_ENV, file_actions=actions)
        _RUNNING.add(pid)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would only
        # give the maximum over every child reaped so far
        _, status, usage = os.wait4(pid, 0)
        self.end = time.perf_counter()
        _RUNNING.discard(pid)
        self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.wall_s = self.end - self.start

    def last_stderr(self):
        with open(self.err) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        return lines[-1] if lines else ""

    def stdout_json(self):
        with open(self.out) as fh:
            lines = [ln for ln in fh if ln.strip()]
        return json.loads(lines[-1])


_RUNNING = set()
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)


def _rep_dirs(index, traced):
    """A fresh (repetition, output, log) directory triple under WORK."""
    rep_dir = os.path.join(WORK, f"rep{index}{'t' if traced else ''}")
    out, logs = os.path.join(rep_dir, "out"), os.path.join(rep_dir, "logs")
    os.makedirs(logs)
    return rep_dir, out, logs


def _write_config(path, out_dir, dims, seed, extra=()):
    lines = [
        f"output_dir = {out_dir}",
        "dims = " + " ".join(map(str, dims)),
        f"seed = {seed}",
        "synth_c = 2.5",
        "synth_l = 7",
        "synth_m = 2.3",
        "synth_p = 0",
        f"max_iter = {MAX_ITER}",
        "tol = 0",
        *extra,
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _stage(rep, stage, cfg, log_dir, traced, run_id):
    if traced:
        spans = os.path.join(log_dir, f"{stage}.spans.json")
        script = os.path.join(HERE, "traced_cli.py")
        argv = [sys.executable, script, spans, run_id, stage, "--config", cfg]
    else:
        argv = [sys.executable, "-m", "stsad.cli", stage, "--config", cfg]
    proc = Proc(argv, log_dir, stage)
    rep.procs[stage] = proc
    if traced and os.path.exists(spans):
        with open(spans) as fh:
            rep.spans.append(json.load(fh))
    if proc.code != 0:
        rep.fail(stage, proc.code, proc.last_stderr())
        return False
    return True


def _check_auc(workload, seed, auc, op):
    if not (isinstance(auc, float) and math.isfinite(auc)):
        raise Failure(op, f"AUC {auc!r} is not a finite number")
    if auc < AUC_FLOOR[workload]:
        raise Failure(op, f"AUC {auc:.6f} below floor {AUC_FLOOR[workload]}")
    ref = REFERENCE_AUC.get(workload, {}).get(str(seed))
    if ref is not None and abs(auc - ref) > AUC_TOL:
        raise Failure(op, f"AUC {auc:.6f} differs from recorded {ref:.6f} by > {AUC_TOL}")


def _check_city(out, seed):
    """Full content checks of one city-chain output directory."""
    for stage, names in CITY_ARTIFACTS.items():
        for name in names:
            if not os.path.isfile(os.path.join(out, name)):
                raise Failure(stage, f"missing artifact {name}")
    n = math.prod(CITY_DIMS)
    try:
        Y = read_text_tensor(os.path.join(out, "Y.txt"))
        observed = read_text_tensor(os.path.join(out, "omega.txt")).astype(bool)
        labels = read_text_tensor(os.path.join(out, "labels.txt")).astype(bool)
    except ValueError as exc:
        raise Failure("synth", str(exc))
    if Y.shape != CITY_DIMS or not labels.any():
        raise Failure("synth", f"Y has shape {Y.shape} or no anomaly labels")
    try:
        with open(os.path.join(out, "graphs.json")) as fh:
            meta = json.load(fh)
        for name in CITY_ARTIFACTS["graphs"][2:]:
            read_text_tensor(os.path.join(out, name))
    except ValueError as exc:
        raise Failure("graphs", str(exc))
    if [m["mode"] for m in meta] != [1, 2, 3, 4] or min(m["rank"] for m in meta) < 1:
        raise Failure("graphs", f"graphs.json is {meta}")
    try:
        for name in ("L.txt", "S.txt"):
            if read_text_tensor(os.path.join(out, name)).shape != CITY_DIMS:
                raise ValueError(f"{name} has the wrong shape")
        with open(os.path.join(out, "decompose.json")) as fh:
            dec = json.load(fh)
        with open(os.path.join(out, "diagnostics.jsonl")) as fh:
            diag = [json.loads(line) for line in fh]
    except ValueError as exc:
        raise Failure("decompose", str(exc))
    if not 1 <= dec["iterations"] <= MAX_ITER or len(diag) != dec["iterations"]:
        raise Failure("decompose", f"{dec['iterations']} iterations, {len(diag)} rows")
    if not all(math.isfinite(v) for row in diag for v in row.values()):
        raise Failure("decompose", "non-finite diagnostics")
    try:
        table = read_csv_columns(os.path.join(out, "scores.csv"), 5)
    except ValueError as exc:
        raise Failure("score", str(exc))
    if table.shape[0] != n:
        raise Failure("score", f"scores.csv has {table.shape[0]} rows, want {n}")
    scores = np.empty(CITY_DIMS)
    scores[tuple(table[:, :4].astype(int).T)] = table[:, 4]
    with open(os.path.join(out, "auc.json")) as fh:
        auc = json.load(fh)["auc"]
    _check_auc("city-chain", seed, auc, "evaluate")
    expected = auc_mann_whitney(scores[observed], labels[observed])
    if abs(auc - expected) > 1e-9:
        raise Failure("evaluate", f"auc.json {auc!r} but recomputed {expected!r}")
    try:
        roc = read_csv_columns(os.path.join(out, "roc.csv"), 2)
    except ValueError as exc:
        raise Failure("evaluate", str(exc))
    if (
        tuple(roc[0]) != (0.0, 0.0)
        or tuple(roc[-1]) != (1.0, 1.0)
        or (np.diff(roc, axis=0) < 0).any()
    ):
        raise Failure("evaluate", "roc.csv is not a monotone curve from (0,0) to (1,1)")
    return auc


def _same_artifacts(rep, hashes, reference):
    for stage, names in CITY_ARTIFACTS.items():
        for name in names:
            if hashes.get(name) != reference.get(name):
                rep.fail(stage, check=f"{name} differs from the first repetition")


def rep_city_chain(seed, index, traced, state):
    rep = Rep(CHAIN)
    rep_dir, out, logs = _rep_dirs(index, traced)
    cfg = os.path.join(logs, "stsad.cfg")
    _write_config(cfg, out, CITY_DIMS, seed)
    for stage in CHAIN:
        if not _stage(rep, stage, cfg, logs, traced, f"city-chain/{index}/{stage}"):
            rep.failures.extend(
                {"op": s, "exit": None, "stderr": "", "check": f"not run: {stage} failed"}
                for s in CHAIN[CHAIN.index(stage) + 1:]
            )
            break
    else:
        rep.setup_s = rep.procs["synth"].wall_s
        rep.run_s = rep.procs["evaluate"].end - rep.procs["graphs"].start
        rep.artifact_mb = dir_bytes(out) / 1e6
        rep.roc_csv_mb = os.path.getsize(os.path.join(out, "roc.csv")) / 1e6
        hashes = dir_hashes(out)
        try:
            if "hashes" not in state:
                state["auc"] = _check_city(out, seed)
                state["hashes"] = hashes
            # reruns, traced or not, must give byte-identical artifacts
            _same_artifacts(rep, hashes, state["hashes"])
        except Failure as exc:
            rep.fail(exc.op, check=str(exc))
        except MALFORMED as exc:
            rep.fail("evaluate", check=f"malformed output: {exc!r}")
        rep.auc = state.get("auc", 0.0)
    rep.peak_rss_mb = max((p.peak_rss_mb for p in rep.procs.values()), default=0.0)
    shutil.rmtree(rep_dir)
    return rep


def rep_solver_compare(seed, index, traced, state):
    rep = Rep(("synth", "bench"))
    rep_dir, out, logs = _rep_dirs(index, traced)
    cfg = os.path.join(logs, "stsad.cfg")
    extra = ("bench_solvers = " + " ".join(BENCH_SOLVERS), "bench_repeats = 2")
    _write_config(cfg, out, COMPARE_DIMS, seed, extra)
    run_id = f"solver-compare/{index}"
    if not _stage(rep, "synth", cfg, logs, traced, run_id + "/synth"):
        rep.fail("bench", check="not run: synth failed")
    elif _stage(rep, "bench", cfg, logs, traced, run_id + "/bench"):
        rep.setup_s = rep.procs["synth"].wall_s
        rep.run_s = rep.procs["bench"].wall_s
        rep.artifact_mb = dir_bytes(out) / 1e6
        try:
            with open(os.path.join(out, "bench.json")) as fh:
                rows = json.load(fh)
            if [r["method"] for r in rows] != list(BENCH_SOLVERS):
                raise Failure("bench", f"bench.json methods {[r['method'] for r in rows]}")
            # bench exits 0 even when every repeat of a method raised
            for r in rows:
                if r["failures"] or r["auc_mean"] is None:
                    raise Failure("bench", f"{r['method']}: {r['failures']} failed repeats")
            rep.auc = rows[0]["auc_mean"]
            _check_auc("solver-compare", seed, rep.auc, "bench")
            if "auc" in state and rep.auc != state["auc"]:
                raise Failure("bench", f"AUC {rep.auc!r} differs from {state['auc']!r}")
            state["auc"] = rep.auc
        except Failure as exc:
            rep.fail(exc.op, check=str(exc))
        except MALFORMED as exc:
            rep.fail("bench", check=f"malformed bench.json: {exc!r}")
    rep.peak_rss_mb = max((p.peak_rss_mb for p in rep.procs.values()), default=0.0)
    shutil.rmtree(rep_dir)
    return rep


def rep_paper_sweep(seed, index, traced, state):
    cells = [f"cell{i}" for i in range(len(sweep.P_VALUES) * sweep.SEEDS_PER_CELL)]
    rep = Rep(cells)
    rep_dir, out, logs = _rep_dirs(index, traced)
    os.makedirs(out)
    argv = [sys.executable, os.path.join(HERE, "sweep.py"), str(seed), out]
    if traced:
        argv.append(os.path.join(logs, "spans.json"))
    proc = Proc(argv, logs, "sweep")
    rep.procs["sweep"] = proc
    rep.peak_rss_mb = proc.peak_rss_mb
    if proc.code != 0:
        for cell in cells:
            rep.fail(cell, proc.code, proc.last_stderr())
    else:
        try:
            result = proc.stdout_json()
        except MALFORMED as exc:
            for cell in cells:
                rep.fail(cell, check=f"malformed worker output: {exc!r}")
            shutil.rmtree(rep_dir)
            return rep
        if traced:
            with open(argv[-1]) as fh:
                rep.spans.append(json.load(fh))
        rep.setup_s = result["ready"] - proc.start
        rep.run_s = result["end"] - result["ready"]
        rep.artifact_mb = dir_bytes(out) / 1e6
        aucs = []
        for cell, row in zip(cells, result["cells"]):
            if "error" in row:
                rep.fail(cell, stderr=row["error"])
            elif not 1 <= row["iterations"] <= row["max_iter"]:
                rep.fail(cell, check=f"{row['iterations']} iterations")
            elif abs(row["auc"] - row["auc_check"]) > 1e-9:
                rep.fail(cell, check=f"roc_auc {row['auc']!r} vs {row['auc_check']!r}")
            aucs.append(row.get("auc", 0.0))
        rep.auc = statistics.fmean(aucs)
        try:
            _check_auc("paper-sweep", seed, rep.auc, cells[0])
            if "auc" in state and rep.auc != state["auc"]:
                raise Failure(cells[0], f"AUC {rep.auc!r} differs from {state['auc']!r}")
        except Failure as exc:
            rep.fail(exc.op, check=str(exc))
        state["auc"] = rep.auc
    shutil.rmtree(rep_dir)
    return rep


REPS = {
    "city-chain": rep_city_chain,
    "solver-compare": rep_solver_compare,
    "paper-sweep": rep_paper_sweep,
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "auc": "ratio",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "success_ratio": "ratio",
}


def end_to_end(reps, attempted, failed):
    med = lambda attr: statistics.median(getattr(r, attr) for r in reps)  # noqa: E731
    values = {
        "setup_s": med("setup_s"),
        "run_s": med("run_s"),
        "auc": reps[0].auc,
        "peak_rss_mb": med("peak_rss_mb"),
        "artifact_mb": med("artifact_mb"),
        "success_ratio": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


STAGE_METRICS = ("synth", "graphs", "decompose", "score", "evaluate", "bench")
SPAN_METRICS = {
    "tensor.save_tensor_s": "tensor.save_tensor",
    "tensor.load_tensor_s": "tensor.load_tensor",
    "tensor.save_mask_s": "tensor.save_mask",
    "tensor.load_mask_s": "tensor.load_mask",
    "tensor.mode_n_product_s": "tensor.mode_n_product",
    "graphs.build_mode_graphs_s": "graphs.build_mode_graphs",
    "graphs.build_knn_graph_s": "graphs.build_knn_graph",
    "graphs.build_laplacian_s": "graphs.build_laplacian",
    "graphs.sym_eig_s": "graphs.sym_eig",
    "graphs.stationarity_report_s": "graphs.stationarity_report",
    "logss.solve_s": "logss.solve",
    "logss.update_low_rank_s": "logss.update_low_rank",
    "logss.update_graph_coeffs_s": "logss.update_graph_coeffs",
    "logss.update_sparse_s": "logss.update_sparse",
    "logss.update_smooth_aux_s": "logss.update_smooth_aux",
    "logss.update_tv_aux_s": "logss.update_tv_aux",
    "logss.update_duals_s": "logss.update_duals",
    "logss.objective_value_s": "logss.objective_value",
    "logss.lift_s": "logss._lifted_graph_terms",
    "logss.check_finite_s": "logss._check_finite",
    "baselines.solve_horpca_s": "baselines.solve_horpca",
    "baselines.svt_s": "baselines._svt_with_norm",
    "scoring.score_sparse_tensor_s": "scoring.score_sparse_tensor",
    "evaluation.labeled_scores_s": "evaluation.labeled_scores",
    "evaluation.roc_auc_s": "evaluation.roc_auc",
    "evaluation.roc_points_s": "evaluation.roc_points",
    "evaluation.benchmark_timing_s": "evaluation.benchmark_timing",
    "synth.synthesize_s": "synth.synthesize",
    "synth.builtin_template_s": "synth.builtin_template",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(rep):
    """Per-module metrics of one traced repetition, from its spans."""
    total, own, calls, sums = {}, {}, {}, {}
    loss_direct = 0.0
    for spans in rep.spans:
        selfs = self_times(spans)
        names = {s["id"]: s["name"] for s in spans}
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + selfs[s["id"]]
            calls[name] = calls.get(name, 0) + 1
            for key in ("bytes", "iterations", "svd", "eig", "rank_total", "vertices"):
                if key in s:
                    sums[(name, key)] = sums.get((name, key), 0) + s[key]
            if name == "logss.solve" and "rel_residual" in s:
                worst = sums.get((name, "rel_residual"), 0.0)
                sums[(name, "rel_residual")] = max(worst, s["rel_residual"])
            if name == "baselines.solve_loss" and names.get(s["parent"]) != "baselines.solve_horpca":
                loss_direct += dur
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    got = lambda name, key: sums.get((name, key), 0)  # noqa: E731

    m = {}
    startup = 0.0
    for stage in STAGE_METRICS:
        proc = rep.procs.get(stage)
        span = f"cli.run_{stage}"
        m[f"cli.{stage}_s"] = (proc.wall_s, "s") if proc else (0.0, "s")
        m[f"cli.{stage}.self_s"] = (own.get(span, 0.0), "s")
        if proc and span in total:
            startup += proc.wall_s - total[span]
    m["cli.startup_s"] = (startup, "s")
    m["cli.roc_csv_mb"] = (rep.roc_csv_mb, "MB")
    for metric, span in SPAN_METRICS.items():
        m[metric] = (t(span), "s")
    io_bytes = sum(got(f"tensor.{f}", "bytes") for f in ("save_tensor", "save_mask", "load_tensor"))
    m["tensor.io_mb"] = (io_bytes / 1e6, "MB")
    m["tensor.mode_n_product_calls"] = (calls.get("tensor.mode_n_product", 0), "count")
    builds = calls.get("graphs.build_mode_graphs", 0)
    m["graphs.rank_total"] = (_ratio(got("graphs.build_mode_graphs", "rank_total"), builds), "count")
    logss_iters = got("logss.solve", "iterations")
    loss_iters = got("baselines.solve_loss", "iterations")
    m["logss.iterations"] = (_ratio(logss_iters, calls.get("logss.solve", 0)), "count")
    m["logss.s_per_iter"] = (_ratio(t("logss.solve"), logss_iters), "s")
    m["logss.final_rel_residual"] = (got("logss.solve", "rel_residual"), "ratio")
    m["logss.solve.self_s"] = (own.get("logss.solve", 0.0), "s")
    m["baselines.solve_loss_s"] = (loss_direct, "s")
    m["baselines.s_per_iter"] = (_ratio(t("baselines.solve_loss"), loss_iters), "s")
    m["baselines.loss_over_logss"] = (
        _ratio(m["baselines.s_per_iter"][0], m["logss.s_per_iter"][0]), "ratio"
    )
    counted = ("logss.solve", "baselines.solve_loss", "graphs.build_mode_graphs")
    m["instrumentation.svd"] = (sum(got(n, "svd") for n in counted), "count")
    m["instrumentation.eig"] = (sum(got(n, "eig") for n in counted), "count")
    m["instrumentation.svd_in_logss"] = (got("logss.solve", "svd"), "count")
    m["instrumentation.svd_per_baseline_iter"] = (
        _ratio(got("baselines.solve_loss", "svd"), loss_iters), "count"
    )
    m["instrumentation.eig_per_graph_build"] = (
        _ratio(got("graphs.build_mode_graphs", "eig"), builds), "count"
    )
    m["evaluation.roc_vertices"] = (got("evaluation.roc_points", "vertices"), "count")
    return m


def per_layer(untraced, traced):
    layers = [layer_metrics(r) for r in traced]
    out = {
        name: {"value": statistics.median(l[name][0] for l in layers), "unit": unit}
        for name, (_, unit) in layers[0].items()
    }
    run_plain = statistics.median(r.run_s for r in untraced)
    run_traced = statistics.median(r.run_s for r in traced)
    out["trace.run_s"] = {"value": run_traced, "unit": "s"}
    out["trace.overhead_pct"] = {"value": 100.0 * (_ratio(run_traced, run_plain) - 1.0), "unit": "%"}
    return out


def check_counts(workload, traced):
    """The spectral-work counts the code promises, on every traced repetition."""
    for rep in traced:
        m = layer_metrics(rep)
        problems = []
        if m["instrumentation.svd_in_logss"][0] != 0:
            problems.append("LOGSS ran an SVD")
        if m["instrumentation.eig_per_graph_build"][0] not in (0, 4):
            problems.append("a graph build did not take exactly 4 eigendecompositions")
        if workload == "solver-compare" and m["instrumentation.svd_per_baseline_iter"][0] != 4:
            problems.append("LOSS/HoRPCA did not take 4 SVDs per iteration")
        if workload != "paper-sweep" and m["logss.iterations"][0] > MAX_ITER:
            problems.append(f"LOGSS ran more than max_iter = {MAX_ITER} iterations")
        for problem in problems:
            rep.fail(rep.ops[-1], check=problem)


def environment():
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _stop_children(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stsad", "cli.py")):
        print(f"error: no stsad sources under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment()}), file=sys.stderr)

    signal.signal(signal.SIGALRM, _stop_children)
    signal.alarm(TIME_LIMIT_S)
    shutil.rmtree(WORK, ignore_errors=True)
    rep_fn = REPS[args.workload]
    untraced, traced, state = [], [], {}
    start = time.perf_counter()
    try:
        while True:
            begin = time.perf_counter()
            untraced.append(rep_fn(args.seed, len(untraced), False, state))
            if args.trace:
                traced.append(rep_fn(args.seed, len(traced), True, state))
            reps = untraced + traced
            # start another repetition only if, lasting as long as this one,
            # it would end less than half a repetition after --seconds
            now = time.perf_counter()
            if any(r.failures for r in reps) or now + (now - begin) / 2 - start >= args.seconds:
                break
        if args.trace:
            check_counts(args.workload, traced)
    except TimeoutError as exc:
        for pid in _RUNNING:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(len(r.ops) for r in reps)
    failed = sum(r.failed for r in reps)
    for r in reps:
        print(json.dumps({"rep": {
            "traced": r in traced, "setup_s": r.setup_s, "run_s": r.run_s,
            "walls": {name: p.wall_s for name, p in r.procs.items()},
            "peak_rss_mb": {name: p.peak_rss_mb for name, p in r.procs.items()},
            "failures": r.failures,
        }}), file=sys.stderr)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
