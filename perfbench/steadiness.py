#!/usr/bin/env python3
"""Steadiness summary for perfbench result files.

Summarise saved runs of one workload:

    python3 perfbench/steadiness.py summarize RUN.txt [RUN.txt ...]

Run the benchmark on several seeds first, saving each run's output, then
summarise:

    python3 perfbench/steadiness.py run --workload serve-paced \
        --seeds 1,2,3,4,5 --seconds 20 --out perfbench/target/runs

A result file is a run's standard output. Its `report` line (every metric
the run measured) is used when present, else the final result line. For
each metric the summary prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, the interquartile range
and (max - min) as shares of the median, and flags a metric whose
(max - min) / median exceeds a tenth.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SPREAD_LIMIT = 0.10


def load(path):
    """The metrics of one result file: {name: (value, unit)}."""
    with open(path, encoding="utf-8") as f:
        lines = [line.strip() for line in f if line.strip()]
    doc = None
    for line in lines:
        if line.startswith("report "):
            doc = json.loads(line[len("report "):])
    if doc is None:
        doc = json.loads(lines[-1])
    return {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}


def summarize(paths, out=sys.stdout):
    runs = [load(p) for p in paths]
    names = []
    for r in runs:
        names.extend(n for n in r if n not in names)
    width = max(len(n) for n in names)
    out.write(f"{len(runs)} runs\n")
    out.write(f"{'metric':{width}}  {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'range/med':>9}  unit\n")
    flagged = []
    for n in names:
        vals = [r[n][0] for r in runs if n in r and r[n][0] is not None]
        unit = next(r[n][1] for r in runs if n in r)
        if not vals:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr = (q3 - q1) / abs(med) if med else 0.0
        rng = (max(vals) - min(vals)) / abs(med) if med else 0.0
        flag = "  SPREAD" if rng > SPREAD_LIMIT else ""
        if flag:
            flagged.append(n)
        out.write(f"{n:{width}}  {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{iqr:8.3f} {rng:9.3f}  {unit}{flag}\n")
    if flagged:
        out.write(f"spread above {SPREAD_LIMIT:.0%} of the median: {', '.join(flagged)}\n")
    return flagged


def command():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return root, json.load(f)["command"]


def run(args):
    root, cmd = command()
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for seed in args.seeds.split(","):
        path = os.path.join(args.out, f"{args.workload}-trace{args.trace}-seed{seed}.txt")
        full = cmd + ["--workload", args.workload, "--seed", seed,
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with open(path, "w", encoding="utf-8") as f:
            code = subprocess.run(full, cwd=root, stdout=f, check=False).returncode
        if code != 0:
            sys.exit(f"seed {seed}: exit code {code}, output in {path}")
        paths.append(path)
    summarize(paths)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("files", nargs="+")
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="comma-separated")
    r.add_argument("--seconds", type=int, default=20)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    a = p.parse_args()
    if a.cmd == "summarize":
        summarize(a.files)
    else:
        run(a)


if __name__ == "__main__":
    main()
