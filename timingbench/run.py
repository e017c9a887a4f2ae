"""Benchmark of the timing-GNN program: cold /predict, ECO and training.

    python3 timingbench/run.py --workload cold_predict --seed 1 \
        --seconds 12 --trace 0

Workloads: ``cold_predict``, ``eco_delta`` (against
``repro serve --workers 2``) and ``train_epoch`` (``train_timing_gnn``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an in-process replay of the same op list.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See timingbench/README.md.

Exit status 2, with no result line, when the program is absent or a
run cannot complete.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

WORKLOADS = ("cold_predict", "eco_delta", "train_epoch")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="the op lists are sized to take about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook (timingbench/selftest.py).
    p.add_argument("--inject-unknown", action="store_true",
                   help="add one request for a design that does not exist")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    harness.apply_env_in_process()
    harness.become_subreaper()
    try:
        return _run(args)
    finally:
        leaked = harness.end_descendants()
        if leaked:
            print(f"timingbench: ended {leaked} leftover process(es)",
                  file=sys.stderr)


def _run(args):
    try:
        harness.ensure_built()
        import serving_paths
        import training_path
        run = {"cold_predict": serving_paths.cold_predict,
               "eco_delta": serving_paths.eco_delta,
               "train_epoch": training_path.train_epoch}[args.workload]
        res = harness.Result(args.workload)
        calibration = [harness.calibration_ms()]
        try:
            run(args, res)
        finally:
            if res.stopping is not None:
                res.stopping.join()
        calibration.append(harness.calibration_ms())
    except harness.BenchError as exc:
        print(f"timingbench: {exc}", file=sys.stderr)
        return 2
    res.set("host.calibration_ms", harness.median(calibration))
    res.info["host.calibration_ms"] = " ".join(f"{c:.3f}"
                                               for c in calibration)
    res.emit(bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
