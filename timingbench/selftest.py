"""Self-test of the benchmark (takes a few minutes on 2 CPUs).

    python3 timingbench/selftest.py

Checks, in order:

1. BENCHMARK.json lists exactly the metrics and workloads the harness
   prints, within the result format's limits.
2. Attribution: in an in-process cold replay, a 20% delay wrapped
   around one layer function (``run_sta``) raises ``sta.analysis_ms``
   and no other layer's metric.  Slowed and normal replays alternate
   op by op, so host drift cancels.
3. Every workload, untraced and traced, prints exactly the catalogue's
   metrics; layers a workload exercises read non-zero and idle layers
   read 0.
4. One injected request for an unknown design counts as exactly one
   failed op.
5. Without the program (a directory holding only BENCHMARK.json and
   this directory) the benchmark exits non-zero without a result line.
6. After every run no process the run started is left: none carries
   the benchmark's cache directory in its environment, and the run did
   not have to end a leftover itself.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from harness import ROOT, WORK  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Layer-time metrics that must read 0 on a workload that does not use them.
LAYER_TIMES = (harness.FLOW_LAYERS + harness.FORWARD_LAYERS
               + harness.DELTA_LAYERS + harness.TRAIN_LAYERS
               + ["models.dirty_nodes", "models.dirty_ratio",
                  "nn.allocations_per_step", "training.loss"])
# Active metrics that may legitimately read 0 or below.
MAY_BE_ZERO = {"serving.graph_cache_hit_ratio", "serving.unattributed_ms"}

failures = []


def check(ok, message):
    print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
    if not ok:
        failures.append(message)


def run(workload, trace, extra=(), cwd=ROOT, seconds=1):
    cmd = [sys.executable, os.path.join("timingbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    # Output goes to files, not pipes: reading a pipe to its end would
    # also wait for any process that inherited it and outlived the run.
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, "selftest.out")
    err_path = os.path.join(WORK, "selftest.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.run(cmd, cwd=cwd, stdout=out, stderr=err,
                              timeout=600)
    left = leftovers()
    with open(out_path) as out, open(err_path) as err:
        lines, stderr = out.read().strip().splitlines(), err.read()
    tag = f"{workload} trace={trace} {' '.join(extra)}".strip()
    check(not left and "leftover" not in stderr,
          f"{tag}: no process left running {left}")
    return proc.returncode, lines, stderr


def leftovers():
    """Live processes, other than this one, started by a benchmark run.

    Every process a run starts inherits ``REPRO_CACHE_DIR`` pointing
    into the benchmark's work directory.
    """
    mark = f"REPRO_CACHE_DIR={os.path.join(WORK, 'cache')}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                env = fh.read().split(b"\0")
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if mark in env:
            found.append(f"{entry}: {cmd[:80]}")
    return found


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    import run as run_module
    check(set(w["name"] for w in spec["workloads"])
          <= set(run_module.WORKLOADS), "workloads are known to run.py")
    check(all(set(w) == {"name", "why"} and "\n" not in w["why"]
              and len(w["why"]) <= 200 for w in spec["workloads"]),
          "each workload has a one-line why")
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
          == harness.END_TO_END, "end_to_end matches the harness")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == harness.PER_LAYER, "per_layer matches the harness")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds in (0, 0.25]")
    check(bounds["setup_s"] == max(bounds.values()),
          "setup_s has the largest bound")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)) and all(NAME.match(n)
                                                 for n in names),
          "metric names are unique and well-formed")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")


def check_attribution():
    """A 20% delay in run_sta shows in sta.analysis_ms and nowhere else."""
    import gc
    import time

    harness.apply_env_in_process()
    import layers
    import serving_paths

    model = layers.served_model()
    ops = serving_paths.cold_ops(seed=11, seconds=1, inject_unknown=False)
    ops = ops[:50]
    original = layers.run_sta

    def slowed(*args, **kwargs):
        # Busy-wait, not sleep: a sleeping CPU comes back slower (clock,
        # caches) and would slow the layers after the delayed one.
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        end = time.perf_counter() + 0.2 * (time.perf_counter() - t0)
        while time.perf_counter() < end:
            pass
        return out

    # Collections run between ops, not inside them: a gen-2 pause
    # landing in a 1 ms layer would read as that layer rising.
    normal, slow = harness.Spans(True), harness.Spans(True)
    gc.disable()
    try:
        for i, op in enumerate(ops):
            passes = [(normal, original), (slow, slowed)]
            if i % 2:
                passes.reverse()
            for spans, fn in passes:
                gc.collect()
                layers.run_sta = fn
                try:
                    art = layers.run_flow(op["design"], op["seed"], spans)
                    arrival = layers.forward(model, art.hetero, spans)
                    layers.endpoint_setup_ps(art.hetero, arrival, spans)
                finally:
                    layers.run_sta = original
    finally:
        gc.enable()
    base, hit = normal.totals(), slow.totals()
    names = harness.FLOW_LAYERS + harness.FORWARD_LAYERS
    for name in names:
        print(f"     {name:<28} slowed/normal {hit[name] / base[name]:.3f}")
    target = "sta.analysis_ms"
    added = hit[target] - base[target]
    check(hit[target] / base[target] >= 1.12,
          f"attribution: delayed run_sta raises {target}")
    # Another layer "rises" when it grows by more than 8% AND by more
    # than a tenth of the time injected (sub-ms layers are noisy).
    risen = [n for n in names if n != target
             and hit[n] > 1.08 * base[n] and hit[n] - base[n] > 0.1 * added]
    check(not risen, f"attribution: no other layer rises {risen}")


def check_workloads():
    expected = {False: [n for n, _u, _b in harness.END_TO_END],
                True: [n for n, _u, _b in harness.PER_LAYER]}
    attempted = {}
    for workload in ("cold_predict", "eco_delta", "train_epoch"):
        for trace in (False, True):
            code, lines, err = run(workload, int(trace))
            tag = f"{workload} trace={int(trace)}"
            if code != 0 or not lines:
                check(False, f"{tag}: exit {code}: {err[-500:]}")
                continue
            line = json.loads(lines[-1])
            check(set(line) == {"correct", "attempted", "failed", "metrics"}
                  and line["correct"] and line["failed"] == 0
                  and line["attempted"] >= 1, f"{tag}: correct, no failures")
            metrics = line["metrics"]
            check(list(metrics) == expected[trace],
                  f"{tag}: prints exactly the declared metrics")
            if not trace:
                attempted[workload] = line["attempted"]
                check(all(v["value"] > 0 for v in metrics.values()),
                      f"{tag}: every end-to-end metric is non-zero")
                continue
            active = set(harness.ACTIVE_LAYERS[workload])
            zero_active = [n for n in active - MAY_BE_ZERO
                           if metrics[n]["value"] == 0]
            check(not zero_active,
                  f"{tag}: exercised layers are non-zero {zero_active}")
            busy_idle = [n for n in LAYER_TIMES
                         if n not in active and metrics[n]["value"] != 0]
            check(not busy_idle, f"{tag}: idle layers read 0 {busy_idle}")
            check(metrics["serving.shed"]["value"] == 0
                  and metrics["serving.degraded"]["value"] == 0,
                  f"{tag}: nothing shed or degraded")
    return attempted


def check_injected(attempted):
    code, lines, err = run("cold_predict", 0, extra=["--inject-unknown"])
    if code != 0 or not lines:
        check(False, f"injected run: exit {code}: {err[-500:]}")
        return
    line = json.loads(lines[-1])
    check(line["failed"] == 1
          and line["attempted"] == attempted.get("cold_predict", -2) + 1
          and line["correct"],
          "an unknown design counts as exactly one failed op")


def check_absent():
    bare = os.path.join(WORK, "selftest-absent")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "timingbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, err = run("cold_predict", 0, cwd=bare)
        printed = any(line.startswith("{") for line in lines)
        check(code != 0 and not printed,
              f"absent program: exit {code}, no result line "
              f"({err.strip()[:120]})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_spec()
    check_absent()
    check_attribution()
    attempted = check_workloads()
    check_injected(attempted)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
