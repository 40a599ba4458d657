#!/usr/bin/env python3
"""Benchmark of sosperturb: time, CPU and memory to a verified certificate.

    python3 bench/run.py --workload box-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh process
(`worker.py`); four more fresh processes only set up, so that set-up time is
the median of five.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
setup_s, wall_s, cpu_s and peak_rss_mb; with --trace 1 they are the
per-layer metrics of `tracing.layer_metrics`.  Files go to .bench_out/ in
the checkout.  See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("box-small", "box-midsize", "preorder")
SETUP_PROBES = 4
# seconds all worker processes of one run may take together; subprocess.run
# kills and reaps a worker that overruns them
DEADLINE_S = 175
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "constraint_mb": "MB", "report_kb": "KB", "ms_per_iteration": "ms"}


def unit(name: str) -> str:
    """Unit of a metric, from the suffix of its name."""
    leaf = name.split(".")[-1]
    if leaf in UNITS:
        return UNITS[leaf]
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_ratio"):
        return "ratio"
    return "count"


def worker(opts, root: str, out: str, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(opts.trace),
           "--root", root, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sosperturb", "__init__.py")):
        sys.exit("run from the root of a sosperturb checkout (src/sosperturb not found)")
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)

    setup = [] if opts.trace else [
        worker(opts, root, out, True, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = worker(opts, root, out, False, deadline)
    metrics = result["metrics"]
    if not opts.trace:
        metrics["setup_s"] = statistics.median(setup + [result["setup_s"]])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
