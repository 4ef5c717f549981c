"""Bit-identity record of the solvers: one sha256 per configuration, then
one per artifact of a small CLI chain.

Each solver hash covers L and S as bytes, the repr of the residual and
objective histories and (iterations, converged); the line "combined" hashes
the solver lines.  The chain synth > graphs > decompose > score > evaluate
runs in process in a temporary directory, at 24x7x12x8 with seed 0 and 30
LOGSS iterations at tol 0; each artifact's line hashes its bytes, and
"combined artifacts" hashes those lines.  Two checkouts whose solvers
compute the same bits print the same lines, whatever the CPU count (run it
again under ``taskset -c 0`` to check that).

usage: PYTHONPATH=src python tools/bits.py [--quick]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import tempfile

import numpy as np

from stsad import logss
from stsad.baselines import solve_horpca, solve_loss
from stsad.cli import main as cli_main
from stsad.graphs import ModeGraph, build_mode_graphs
from stsad.logss import LogssParams, solve
from stsad.synth import SynthConfig, builtin_template, synthesize

SOLVERS = {
    "logss": solve,
    "loss": lambda Y, observed, graphs, params: solve_loss(Y, observed, params),
    "horpca": lambda Y, observed, graphs, params: solve_horpca(Y, observed, params),
}


def digest(result):
    record = (result.L.tobytes(), result.S.tobytes(), repr(result.residual_history).encode(),
              repr(result.objective_history).encode(),
              repr((result.iterations, result.converged)).encode())
    return hashlib.sha256(b"".join(record)).hexdigest()


def synthetic(dims, ps, solvers, max_iter, default=False):
    """The paper's synthetic tensor at each missing percentage p, solved
    with ``max_iter`` iterations and tol 0, and with LOGSS's defaults."""
    for p in ps:
        config = SynthConfig(builtin_template(dims), c=2.5, l=7, m=2.3, p=p, seed=0)
        Y, observed, _, _ = synthesize(config)
        graphs = build_mode_graphs(Y, k=10)
        params = LogssParams.defaults(Y, observed, max_iter=max_iter, tol=0.0)
        for name in solvers:
            yield f"{name} {dims} p={p}", SOLVERS[name](Y, observed, graphs, params)
        if default:
            yield f"logss-defaults {dims} p={p}", solve(Y, observed, graphs)


def random_bases(dims, ranks):
    """LOGSS on a random tensor and graphs with random orthonormal bases,
    every block run as two parts whatever the tensor's size."""
    rng = np.random.default_rng(89)
    graphs = []
    for mode, (size, rank) in enumerate(zip(dims, ranks), start=1):
        Q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        eigvals = np.sort(rng.uniform(0.0, 2.0, size=size))
        eigvals[0] = 0.0
        zeros = np.zeros((size, size))
        graphs.append(ModeGraph(mode=mode, weights=zeros, laplacian=zeros,
                                eigvals=eigvals, eigvecs=Q, rank=rank))
    Y, observed = rng.normal(size=dims), rng.random(dims) < 0.8
    params = LogssParams(theta=0.7, lam=0.3, gamma=0.2, beta1=1.1, beta2=0.9, beta3=1.3,
                         beta4=0.8, max_iter=20, tol=0.0)
    threshold, logss._TWO_PARTS_MIN = logss._TWO_PARTS_MIN, 0
    try:
        result = solve(Y, observed, graphs, params)
    finally:
        logss._TWO_PARTS_MIN = threshold
    yield f"logss random bases {dims} two parts", result


CHAIN_CONFIG = """\
dims = 24 7 12 8
seed = 0
synth_c = 2.5
synth_l = 7
synth_m = 2.3
synth_p = 0
max_iter = 30
tol = 0
"""


def artifacts():
    """(sha256, file name) of each artifact the CLI chain writes."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "chain.cfg"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            fh.write(f"output_dir = {out}\n" + CHAIN_CONFIG)
        for stage in ("synth", "graphs", "decompose", "score", "evaluate"):
            # the stages' progress lines and the max_iter warning
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli_main([stage, "--config", config])
            if code:
                raise SystemExit(f"stage {stage} exited with {code}:\n{log.getvalue()}")
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                yield hashlib.sha256(fh.read()).hexdigest(), name


def report(lines, name):
    """Prints each of ``lines`` as it comes, then their sha256 as ``name``."""
    printed = []
    for line in lines:
        printed.append(line)
        print(line, flush=True)
    combined = hashlib.sha256("\n".join(printed).encode()).hexdigest()
    print(f"{combined}  {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the 24x7x12x8, p = 0 solver cases and the chain")
    quick = parser.parse_args(argv).quick
    cases = [synthetic((24, 7, 12, 8), (0,) if quick else (0, 20, 40), SOLVERS, 25,
                       default=True)]
    if not quick:
        cases += [synthetic((24, 7, 52, 16), (0, 40), SOLVERS, 25),
                  synthetic((24, 5, 21, 23), (0, 40), SOLVERS, 25),
                  synthetic((24, 7, 52, 48), (0, 40), ("logss", "loss"), 12),
                  random_bases((24, 7, 40), (3, 2, 4)),
                  random_bases((12, 5, 6, 4, 5), (3, 2, 4, 2, 3))]
    report((f"{digest(result)}  {name}" for name, result in itertools.chain(*cases)),
           "combined")
    report((f"{sha}  artifact {name}" for sha, name in artifacts()), "combined artifacts")


if __name__ == "__main__":
    main()
