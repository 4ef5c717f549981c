#!/usr/bin/env python3
"""Run every workload untraced and traced and print one baseline table.

usage: python3 perfbench/baseline.py [--seed N] [--seconds S] [--out FILE]

This is the one command behind the baseline numbers: stage walls, per-block
seconds, the LOSS/LOGSS ratio, graph build and artifact I/O come from the
traced runs, the end-to-end metrics from the untraced ones.  With --out the
table, the workload rationale and the environment are also written as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, seed, seconds, trace):
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    env = json.loads(proc.stderr.splitlines()[0])["env"]
    return json.loads(proc.stdout.splitlines()[-1]), env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--out")
    args = parser.parse_args()

    table, env = {}, None
    for workload in WORKLOADS:
        row = {}
        for trace in (0, 1):
            result, env = _run(workload, args.seed, args.seconds, trace)
            row["correct" if trace == 0 else "correct_traced"] = result["correct"]
            row.update({k: v["value"] for k, v in result["metrics"].items()})
        table[workload] = row
        print(f"== {workload} (seed {args.seed})")
        for name, value in row.items():
            if value:
                print(f"  {name:40s} {value:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds, "environment": env,
                 "workloads": WORKLOADS, "metrics": table},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")


if __name__ == "__main__":
    main()
