"""Run-to-run spread of the benchmark's metrics.

    python3 timingbench/steadiness.py --runs 10 --out set1.json
    python3 timingbench/steadiness.py --runs 5 --workloads cold_predict \
        --same-seed 3
    python3 timingbench/steadiness.py --compare set1.json set2.json

Runs each workload ``--runs`` times through ``run.py`` (as a separate
process, exactly as a user would), alternating the workload order from
round to round, with seeds 1..runs (or one fixed seed).  For every
metric it prints the median, the quartiles and (Q3 - Q1) / median, and
flags each end-to-end metric whose spread exceeds its bound in
BENCHMARK.json.  With ``--same-seed`` it also reports metrics that
should repeat exactly (accuracy and work counts) but did not.
``--compare`` reads two ``--out`` files of the same code and flags
each end-to-end metric whose second median is worse than the first by
more than its bound.  Exit status 1 when a flag was raised or a run
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Metrics a fixed op list must reproduce exactly.
EXACT = ("slack_mae_ps", "wns_err_ps", "graphdata.nodes",
         "graphdata.levels", "models.dirty_nodes", "training.loss")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # The table's host calibration (start and end of the run), ungated.
    for line in lines:
        if line.startswith("#   host.calibration_ms"):
            result["calibration_ms"] = statistics.median(
                float(v) for v in line.split()[2:])
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def compare(first_path, second_path, bounds, better):
    """Between-set check: second median vs first, per end-to-end metric."""
    with open(first_path) as fh:
        first = json.load(fh)
    with open(second_path) as fh:
        second = json.load(fh)
    bad = False
    print(f"  {'workload/metric':<32}{'median 1':>12}{'median 2':>12}"
          f"{'2/1':>8}{'worse by':>10}{'bound':>7}")
    for workload in first:
        for name, bound in bounds.items():
            a = statistics.median(line["metrics"][name]["value"]
                                  for line in first[workload])
            b = statistics.median(line["metrics"][name]["value"]
                                  for line in second[workload])
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            flag = ""
            if worse > bound:
                flag = "  WORSE > BOUND"
                bad = True
            print(f"  {workload + '/' + name:<32}{a:>12.4f}{b:>12.4f}"
                  f"{b / a:>8.3f}{worse:>10.4f}{bound:>7}{flag}")
    return 1 if bad else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--same-seed", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="also write every run's result line to this file")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                   help="compare the medians of two --out files")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        return compare(*args.compare, bounds, better)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    results = {w: [] for w in workloads}
    bad = False
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        seed = args.same_seed if args.same_seed is not None else r + 1
        for workload in order:
            try:
                line = run_once(workload, seed, seconds, args.trace)
            except RuntimeError as exc:
                print(f"FAILED: {exc}")
                bad = True
                continue
            if not line["correct"] or line["failed"]:
                print(f"INCORRECT: {workload} seed {seed}: "
                      f"failed {line['failed']}/{line['attempted']}")
                bad = True
            results[workload].append(line)
            print(f"round {r} {workload} seed {seed} done "
                  f"(host calibration {line.get('calibration_ms', 0):.2f} ms)",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh)

    for workload, lines in results.items():
        if len(lines) < 2:
            continue
        print(f"\n{workload}: {len(lines)} runs")
        print(f"  {'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name in lines[0]["metrics"]:
            values = [line["metrics"][name]["value"] for line in lines]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel > bound:
                flag = "  SPREAD > BOUND"
                bad = True
            elif bound is not None and rel > bound / 3:
                flag = "  spread > bound/3"
            if args.same_seed is not None and name in EXACT \
                    and len(set(values)) > 1:
                flag += "  NOT REPEATED EXACTLY"
                bad = True
            print(f"  {name:<32}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{rel:>9.4f}{'' if bound is None else bound:>7}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
