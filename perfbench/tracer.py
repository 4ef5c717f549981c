"""In-memory span tracer for stsad, installed from outside the package.

``Tracer.install()`` replaces each function in ``TARGETS`` with a wrapper
that records one span per call: name, start, end, parent span and run id.
It also rebinds every other ``stsad`` attribute that holds the same function
object, so names imported with ``from .x import f`` (``cli.load_tensor``,
``baselines.update_sparse``, ``stsad.solve``) and the CLI's runner table are
traced as well.  Spans stay in memory until ``dump`` writes them as JSON.
No file under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

import numpy as np

MODULES = (
    "cli", "tensor", "graphs", "logss", "baselines", "scoring", "evaluation", "synth",
)

TARGETS = (
    ("cli", "run_synth"),
    ("cli", "run_graphs"),
    ("cli", "run_decompose"),
    ("cli", "run_score"),
    ("cli", "run_evaluate"),
    ("cli", "run_bench"),
    ("tensor", "save_tensor"),
    ("tensor", "load_tensor"),
    ("tensor", "save_mask"),
    ("tensor", "load_mask"),
    ("tensor", "mode_n_product"),
    ("graphs", "build_mode_graphs"),
    ("graphs", "build_knn_graph"),
    ("graphs", "build_laplacian"),
    ("graphs", "sym_eig"),
    ("graphs", "stationarity_report"),
    ("logss", "solve"),
    ("logss", "update_low_rank"),
    ("logss", "update_graph_coeffs"),
    ("logss", "update_sparse"),
    ("logss", "update_smooth_aux"),
    ("logss", "update_tv_aux"),
    ("logss", "update_duals"),
    ("logss", "objective_value"),
    ("logss", "_lifted_graph_terms"),
    ("logss", "_check_finite"),
    ("baselines", "solve_loss"),
    ("baselines", "solve_horpca"),
    ("baselines", "_svt_with_norm"),
    ("scoring", "score_sparse_tensor"),
    ("evaluation", "labeled_scores"),
    ("evaluation", "roc_auc"),
    ("evaluation", "roc_points"),
    ("evaluation", "benchmark_timing"),
    ("synth", "synthesize"),
    ("synth", "builtin_template"),
)

# spans that also record the change of instrumentation's svd/eig counters
COUNTED = ("logss.solve", "baselines.solve_loss", "graphs.build_mode_graphs")


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _solve_stats(args, kwargs, result):
    stats = {"iterations": result.iterations}
    if result.residual_history:
        norm_y = max(1.0, float(np.linalg.norm(args[0])))
        stats["rel_residual"] = max(result.residual_history[-1].values()) / norm_y
    return stats


# facts read off a call's arguments and result after its span has ended
HOOKS = {
    "tensor.save_tensor": _file_bytes,
    "tensor.load_tensor": _file_bytes,
    "tensor.save_mask": _file_bytes,
    "logss.solve": _solve_stats,
    "baselines.solve_loss": lambda a, k, r: {"iterations": r.iterations},
    "graphs.build_mode_graphs": lambda a, k, r: {"rank_total": sum(g.rank for g in r)},
    "evaluation.roc_points": lambda a, k, r: {"vertices": len(r[0])},
}


class Tracer:
    """Collects spans of wrapped stsad calls for one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name):
        """Start a span under the innermost open one and return it."""
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self._counters.snapshot() if counted else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counted:
                after = self._counters.snapshot()
                span.update({k: after[k] - before[k] for k in after})
            if hook is not None:
                span.update(hook(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every target in every stsad namespace that binds it."""
        package = importlib.import_module("stsad")
        self._counters = importlib.import_module("stsad.instrumentation")
        mods = {m: importlib.import_module(f"stsad.{m}") for m in MODULES}
        namespaces = [vars(package)] + [vars(m) for m in mods.values()]
        namespaces.append(mods["cli"]._RUNNERS)
        for mod, attr in TARGETS:
            original = getattr(mods[mod], attr)
            wrapped = self._wrap(f"{mod}.{attr}", original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapped

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Map span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
