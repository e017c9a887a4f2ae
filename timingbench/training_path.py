"""The training workload: a fixed number of epochs of ``train_timing_gnn``.

Untraced runs start a trainer process from outside (this file with
``--child``) that loads the fixed training graphs, reports ready, runs
the program's ``train_timing_gnn`` and reports per-step times, its peak
RSS, the loss curve and output checks.  Set-up (launch -> graphs
loaded) is timed on its own, repeated, and its median reported.

Traced runs replay the same loop in-process from the program's public
pieces (model call, ``combined_loss``, ``backward``, ``clip_grad_norm``,
``Adam.step``) with a span around each, in the same seeded order.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from harness import (ROOT, SCALE, SETUP_REPEATS, TRAIN_LAYERS, BenchError,
                     Spans, bench_env, median, percentile)

# One warm-up epoch (first touch of every graph's schedules and arena)
# plus the measured epochs: about 20 s on the 2-CPU reference host.
# 29 repeats of each design's step are enough for its fastest one to
# have run undisturbed (see best_step_ms).
EPOCHS = 30
MEASURED_FROM_EPOCH = 1


def _train_config():
    """The program's training configuration, shortened to EPOCHS.

    The inputs do not depend on ``--seed``: the training set is fixed
    and so is the program's shuffle seed, so the loss curve and the
    accuracy repeat exactly in every run and only timings vary.
    """
    from repro.experiments import train_config
    return train_config(epochs=EPOCHS)


def _load():
    from repro.experiments import model_config, train_test_graphs
    train, test = train_test_graphs(SCALE)
    return train, test, model_config()


# -- the trainer process ---------------------------------------------------------------
def child_main(setup_only):
    """Entry of the trainer process; prints READY, then one JSON line.

    Step boundaries come from wrapping ``Adam.step`` (one call per
    step), and each step's design from wrapping the trainer's
    ``combined_loss`` (one call per step, before its ``Adam.step``).
    """
    import resource

    import numpy as np

    from repro import nn
    from repro.training import train_timing_gnn
    from repro.training import trainer

    train, test, cfg = _load()
    print("READY", flush=True)
    if setup_only:
        return 0
    tcfg = _train_config()
    stamps = []
    step = nn.Adam.step

    def timed_step(self, *args, **kwargs):
        out = step(self, *args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    designs = []
    loss_fn = trainer.combined_loss

    def named_loss(pred, graph, *args, **kwargs):
        designs.append(graph.name)
        return loss_fn(pred, graph, *args, **kwargs)

    nn.Adam.step = timed_step
    trainer.combined_loss = named_loss
    t0 = time.perf_counter()
    try:
        model, history = train_timing_gnn(train, cfg, tcfg)
    finally:
        nn.Adam.step = step
        trainer.combined_loss = loss_fn
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(train)
    report = {"steps": len(stamps), "designs": n, "rss_mb": rss_mb,
              "loss": [float(x) for x in history.loss], "problems": []}
    if len(stamps) != EPOCHS * n or len(designs) != len(stamps) \
            or len(set(designs)) != n:
        report["problems"].append(
            f"expected {EPOCHS * n} optimizer steps over {n} designs, saw "
            f"{len(stamps)} steps, {len(designs)} losses over "
            f"{len(set(designs))} designs")
        print(json.dumps(report), flush=True)
        return 0
    edges = [t0] + stamps
    first = MEASURED_FROM_EPOCH * n
    report["step_ms"] = [(edges[k + 1] - edges[k]) * 1000.0
                         for k in range(first, len(stamps))]
    report["step_design"] = designs[first:]
    report["epoch_s"] = [edges[(e + 1) * n] - edges[e * n]
                         for e in range(MEASURED_FROM_EPOCH, EPOCHS)]
    loss = report["loss"]
    if not all(np.isfinite(loss)):
        report["problems"].append(f"non-finite training loss: {loss}")
    elif not loss[-1] < loss[0]:
        report["problems"].append(f"loss did not fall: {loss}")
    report["problems"] += _check_backends(model, train)
    report.update(_accuracy(model, test))
    print(json.dumps(report), flush=True)
    return 0


def _check_backends(model, graphs):
    """The fused forward must match the naive reference backend."""
    import numpy as np

    from repro import nn
    problems = []
    rtol, atol = nn.contract_tol()
    for graph in graphs[:3]:
        fused = model.predict(graph).numpy_arrival()
        with nn.use_kernels("naive"):
            naive = model.predict(graph).numpy_arrival()
        if not np.allclose(fused, naive, rtol=rtol, atol=atol,
                           equal_nan=True):
            problems.append(f"fused != naive forward on {graph.name}")
    return problems


def _accuracy(model, graphs):
    """Trained model on the held-out test graphs vs their STA labels.

    The labels are the program's STA of the same checkout, computed
    when the dataset was built; no response is involved.
    """
    import layers
    acc = layers.Accuracy()
    for graph in graphs:
        arrival = model.predict(graph).numpy_arrival()
        acc.add(layers.endpoint_setup_ps(graph, arrival),
                layers.truth_setup_ps(graph))
    return {"slack_mae_ps": acc.slack_mae_ps(),
            "wns_err_ps": acc.wns_err_ps()}


# -- the workload ------------------------------------------------------------------------
def _start(setup_only):
    cmd = [sys.executable, os.path.abspath(__file__), "--child"] \
        + (["--setup-only"] if setup_only else [])
    return subprocess.Popen(cmd, cwd=ROOT, env=bench_env(),
                            stdout=subprocess.PIPE, text=True)


def _finish(proc):
    """Wait for a trainer; returns its stdout lines after READY."""
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"trainer exited with {proc.returncode}")
    return out.strip().splitlines()


def _setup_seconds():
    """Launch -> READY of one trainer process (which then exits)."""
    t0 = time.perf_counter()
    proc = _start(setup_only=True)
    lines = _finish(proc)
    if lines != ["READY"]:
        raise BenchError(f"trainer did not start: {lines!r}")
    return time.perf_counter() - t0


def train_epoch(args, res):
    if args.trace:
        return _traced(args, res)
    times = [_setup_seconds() for _ in range(SETUP_REPEATS)]
    res.set("setup_s", median(times))
    res.info["setup_s_samples"] = " ".join(f"{t:.3f}" for t in times)
    lines = _finish(_start(setup_only=False))
    if not lines or lines[0] != "READY":
        raise BenchError(f"trainer did not start: {lines[:1]!r}")
    report = json.loads(lines[-1])
    for problem in report["problems"]:
        res.fail(problem)
    steps = report.get("step_ms", [])
    res.attempted = EPOCHS * report["designs"]
    res.failed = 0 if steps else res.attempted
    if steps:
        best = best_step_ms(steps, report["step_design"])
        res.set("latency_p50_ms", percentile(best, 0.5))
        res.set("latency_p90_ms", percentile(best, 0.9))
        res.set("ops_per_s", len(best) / (sum(best) / 1000.0))
        res.info["step_ms_p50_all_steps"] = f"{percentile(steps, 0.5):.3f}"
    res.set("peak_rss_mb", report["rss_mb"])
    res.set("slack_mae_ps", report.get("slack_mae_ps", 0.0))
    res.set("wns_err_ps", report.get("wns_err_ps", 0.0))
    res.info["epoch_s_median"] = f"{median(report.get('epoch_s', [0])):.4f}"
    res.info["train_loss_last_epoch"] = f"{report['loss'][-1]:.6f}"


def best_step_ms(step_ms, step_design):
    """Each design's fastest step over the measured epochs, in ms.

    A single-threaded step of 20-90 ms on the shared reference host
    reads as 1x, 2x or 4x its cost, depending on how often the host
    takes the CPU away during it, and the share of such steps moves
    from run to run.  The fastest of a design's 29 measured steps is
    its cost when nothing took the CPU away (``timeit``'s rule: noise
    only adds time).
    """
    best = {}
    for ms, design in zip(step_ms, step_design):
        best[design] = min(best.get(design, ms), ms)
    return sorted(best.values())


def _count_allocations(fn):
    """Numpy buffer-constructor calls made by ``fn()``."""
    import numpy as np
    names = ("empty", "zeros", "ones", "full", "empty_like", "zeros_like",
             "ones_like", "concatenate", "copy", "stack")
    count = [0]
    saved = {name: getattr(np, name) for name in names}

    def wrap(orig):
        def inner(*args, **kwargs):
            count[0] += 1
            return orig(*args, **kwargs)
        return inner

    for name, orig in saved.items():
        setattr(np, name, wrap(orig))
    try:
        fn()
    finally:
        for name, orig in saved.items():
            setattr(np, name, orig)
    return count[0]


def _traced(args, res):
    """The training loop replayed in-process, one span per stage."""
    import numpy as np

    from repro import nn
    from repro.models import TimingGNN
    from repro.training import combined_loss

    train, _test, cfg = _load()
    tcfg = _train_config()
    rng = np.random.default_rng(tcfg.seed)
    model = TimingGNN(cfg, rng=np.random.default_rng(cfg.seed))
    optim = nn.Adam(model.parameters(), lr=tcfg.lr)
    spans = Spans(True)
    untimed = Spans(False)
    losses = []
    allocations = 0
    measured_s = 0.0
    for epoch in range(EPOCHS):
        order = rng.permutation(len(train))
        total = 0.0
        t_epoch = time.perf_counter()
        for position, gi in enumerate(order):
            graph = train[gi]
            # Epoch 0 is warm-up; the first step of the last epoch is
            # the (untimed) allocation-count step.
            count_step = epoch == EPOCHS - 1 and position == 0
            rec = spans if epoch >= MEASURED_FROM_EPOCH and not count_step \
                else untimed

            def step():
                with rec.span("training.forward_ms"):
                    pred = model(graph)
                with rec.span("training.loss_ms"):
                    loss, _parts = combined_loss(
                        pred, graph, use_net_aux=tcfg.use_net_aux,
                        use_cell_aux=tcfg.use_cell_aux,
                        net_weight=tcfg.net_weight,
                        cell_weight=tcfg.cell_weight)
                with rec.span("training.backward_ms"):
                    optim.zero_grad()
                    loss.backward(free=True)
                with rec.span("training.optimizer_ms"):
                    nn.clip_grad_norm(model.parameters(), tcfg.grad_clip)
                    optim.step()
                return float(loss.data)

            if count_step:
                box = []
                allocations = _count_allocations(lambda: box.append(step()))
                total += box[0]
            else:
                total += step()
        if epoch >= MEASURED_FROM_EPOCH:
            measured_s += time.perf_counter() - t_epoch
        optim.lr *= tcfg.lr_decay
        losses.append(total / len(train))
    if not all(np.isfinite(losses)) or not losses[-1] < losses[0]:
        res.fail(f"training loss not finite and falling: {losses}")
    steps = (EPOCHS - MEASURED_FROM_EPOCH) * len(train) - 1
    res.attempted = EPOCHS * len(train)
    totals = spans.totals()
    traced_ms = 0.0
    for name in TRAIN_LAYERS:
        res.set(name, totals.get(name, 0.0) / steps)
        traced_ms += totals.get(name, 0.0)
    res.set("nn.allocations_per_step", allocations)
    res.set("training.loss", losses[-1])
    res.set("graphdata.nodes", float(np.mean([g.num_nodes for g in train])))
    res.set("graphdata.levels", float(np.mean([len(g.levels)
                                               for g in train])))
    res.set("trace.coverage_ratio", traced_ms / (measured_s * 1000.0))
    res.set("trace.overhead_ratio", spans.overhead_ms() / traced_ms)
    res.info["train_loss_curve"] = " ".join(f"{x:.4f}" for x in losses)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from harness import apply_env_in_process
    apply_env_in_process()
    sys.exit(child_main("--setup-only" in sys.argv[1:]))
