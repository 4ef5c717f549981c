"""paper-sweep worker: the missing-data sweep of demos/04 through the library.

usage: python3 perfbench/sweep.py SEED OUTPUT_DIR [SPANS_JSON]

One process synthesizes every cell (P in P_VALUES crossed with
SEEDS_PER_CELL seeds derived from SEED), then runs each cell through
build_mode_graphs -> solve(LogssParams.defaults) -> score_sparse_tensor ->
roc_auc and writes the per-cell table to OUTPUT_DIR/sweep.json, the one file
a sweep user keeps.  The last stdout line is JSON with the perf_counter
times at which the inputs existed ("ready") and the table was written
("end"), and the cells with an AUC recomputed outside the timed region.
With SPANS_JSON the tracer is installed first and its spans written there.
"""

import json
import os
import sys
import time

DIMS = (24, 7, 12, 8)
P_VALUES = (0.0, 20.0, 40.0)
SEEDS_PER_CELL = 3


def main():
    seed, out_dir = int(sys.argv[1]), sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer("paper-sweep/setup")
        tracer.install()
    import stsad
    from checks import auc_mann_whitney

    template = stsad.builtin_template(DIMS)
    cells = []
    for p in P_VALUES:
        for j in range(SEEDS_PER_CELL):
            cell_seed = SEEDS_PER_CELL * seed + j
            config = stsad.SynthConfig(base=template, c=2.5, l=7, m=2.3, p=p, seed=cell_seed)
            Y, observed, truth, _ = stsad.synthesize(config)
            cells.append(({"p": p, "seed": cell_seed}, Y, observed, truth.anomaly_mask))
    ready = time.perf_counter()

    rows, all_scores = [], []
    for i, (row, Y, observed, labels) in enumerate(cells):
        if tracer is not None:
            tracer.run_id = f"paper-sweep/cell{i}"
        row = dict(row)
        scores = None
        try:
            graphs = stsad.build_mode_graphs(Y, k=10)
            params = stsad.LogssParams.defaults(Y, observed)
            result = stsad.solve(Y, observed, graphs, params)
            scores = stsad.score_sparse_tensor(result.S).scores
            row["auc"] = stsad.roc_auc(stsad.labeled_scores(scores, labels, observed))
            row["iterations"] = result.iterations
            row["max_iter"] = params.max_iter
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
        all_scores.append(scores)
    with open(os.path.join(out_dir, "sweep.json"), "w") as fh:
        json.dump(rows, fh, sort_keys=True, indent=2)
        fh.write("\n")
    end = time.perf_counter()

    if tracer is not None:
        tracer.dump(spans_path)
    for row, scores, (_, _, observed, labels) in zip(rows, all_scores, cells):
        if scores is not None:
            row["auc_check"] = auc_mann_whitney(scores[observed], labels[observed])
    print(json.dumps({"ready": ready, "end": end, "cells": rows}))


if __name__ == "__main__":
    main()
