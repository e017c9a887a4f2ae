"""The two serving workloads: cold ``/predict`` and ``/predict/delta``.

Each run starts ``repro serve --workers 2`` from outside (set-up is
repeated and its median reported), sends a fixed op list from
two closed-loop clients, reads ``/stats`` before and after, stops the
server, and only then checks every response against the benchmark's
own in-process replay (untimed).  Traced runs time that replay per
layer; end-to-end numbers always come from the HTTP phase.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np

import layers
from harness import (CLIENTS, DELTA_LAYERS, DERIVED, FLOW_LAYERS,
                     FORWARD_LAYERS, SCALE, SETUP_REPEATS, BenchError, Client, Server, Spans,
                     block_rate, drive, median, peak_rss_mb, percentile)

MODEL = "timing-full"
# Cold requests: the test designs whose flows fit a run; each request
# gets a fresh placement seed, so every op misses the graph cache.
COLD_DESIGNS = ("usbf_device", "xtea", "spm", "y_huff", "synth_ram")
# ECO sessions: one live session per placement seed of one base design,
# taken from this seed upwards until the edit list is long enough.
ECO_DESIGN = "usbf_device"
ECO_FIRST_PLACEMENT_SEED = 101
# Ops per second of --seconds each op list is sized for (2-CPU reference
# host), and the floor that keeps >= 10 samples beyond the p90.
COLD_OPS_PER_S = 7
ECO_OPS_PER_S = 16
MIN_OPS = 100
UNKNOWN_DESIGN = "no_such_design"


def _op_count(rate, seconds, multiple):
    n = max(MIN_OPS, int(math.ceil(rate * seconds)))
    return multiple * int(math.ceil(n / multiple))


def _split_round_robin(bodies):
    queues = [[] for _ in range(CLIENTS)]
    for index, body in enumerate(bodies):
        queues[index % CLIENTS].append((index, body))
    return queues


# -- the HTTP phase ---------------------------------------------------------------------
def _start_server(warmup, res):
    """Repeat set-up SETUP_REPEATS times; keep the last server running.

    Each earlier server has drained and exited before the next set-up
    starts, so every set-up sample is timed on an otherwise idle host.
    """
    times = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            t0 = time.perf_counter()
            server = Server(str(attempt)).start()
            warmup(server)
            times.append(time.perf_counter() - t0)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    res.set("setup_s", median(times))
    res.info["setup_s_samples"] = " ".join(f"{t:.3f}" for t in times)
    return server


def _stats(server):
    client = Client(server.port)
    try:
        status, body = client.get("/stats")
    finally:
        client.close()
    if status != 200:
        raise BenchError(f"/stats returned {status}")
    return body


def _http_phase(res, warmup, queues, path, trace):
    """Set-up, the timed closed loop, /stats deltas and peak RSS.

    Untraced runs let the server drain while the untimed checks run;
    traced runs wait for it, so the replay has the host to itself.
    """
    server = _start_server(warmup, res)
    try:
        before = _stats(server)
        records, window = drive(server.port, queues, path)
        after = _stats(server)
        res.set("peak_rss_mb", peak_rss_mb(server.pids()))
    except BaseException:
        server.stop()
        raise
    res.stopping = server.stop_async()
    if trace:
        res.stopping.join()
    gc_before, gc_after = before["graph_cache"], after["graph_cache"]
    hits = gc_after["hits"] - gc_before["hits"]
    misses = gc_after["misses"] - gc_before["misses"]
    res.set("serving.graph_cache_hit_ratio", hits / max(hits + misses, 1))
    res.set("serving.graph_cache_evictions",
            gc_after["evictions"] - gc_before["evictions"])
    for counter in ("shed", "degraded"):
        res.set(f"serving.{counter}",
                after["counts"][counter] - before["counts"][counter])
    res.info["window_s"] = f"{window:.3f}"
    return records


def _served_ok(rec, res, what):
    """HTTP errors, sheds and degraded answers are failed ops."""
    if rec["status"] != 200:
        res.info.setdefault("first_error", f"{what}: {rec['status']} "
                            f"{rec['body'].get('error')}")
        return False
    if rec["body"].get("degraded"):
        res.info.setdefault("first_error", f"{what}: degraded")
        return False
    return True


def _score(res, records, checked):
    """Check served slack against references; set the end-to-end metrics.

    ``checked`` pairs each served record still to check with its
    reference ``(predicted, truth, nodes, levels)``: endpoint setup
    slack of the benchmark's own forward and of its own STA.  Ops not
    confirmed here are failed, and a failed op counts as missing every
    latency limit.
    """
    tol = layers.payload_tolerance()
    acc = layers.Accuracy()
    ok, nodes, levels = set(), [], []
    for rec, (predicted, truth, n_nodes, n_levels) in checked:
        served = rec["body"]["prediction"]["endpoint_setup_slack_ps"]
        excess = layers.compare(served, predicted, tol)
        if excess > 0:
            res.fail(f"op {rec['index']}: served slack off by "
                     f"{excess:.3g} ps beyond tolerance")
            continue
        ok.add(rec["index"])
        acc.add(served, truth)
        nodes.append(n_nodes)
        levels.append(n_levels)
    res.attempted = len(records)
    res.failed = len(records) - len(ok)
    lat = [rec["client_ms"] if rec["index"] in ok else float("inf")
           for rec in records]
    res.set("latency_p50_ms", percentile(lat, 0.5))
    res.set("latency_p90_ms", percentile(lat, 0.9))
    res.set("ops_per_s", block_rate([rec["done_s"] for rec in records],
                                    [rec["index"] in ok for rec in records]))
    res.set("slack_mae_ps", acc.slack_mae_ps())
    res.set("wns_err_ps", acc.wns_err_ps())
    res.set("graphdata.nodes", float(np.mean(nodes)) if nodes else 0.0)
    res.set("graphdata.levels", float(np.mean(levels)) if levels else 0.0)
    served = [rec for rec in records if rec["status"] == 200]
    if served:
        res.set("serving.server_ms", float(np.mean(
            [rec["body"]["latency_ms"] for rec in served])))
        res.set("serving.transport_ms", float(np.mean(
            [rec["client_ms"] - rec["body"]["latency_ms"]
             for rec in served])))
        res.set("serving.batch_size_mean", float(np.mean(
            [rec["body"]["batch_size"] for rec in served])))
    res.info["samples"] = len(lat)


def _trace_summary(res, spans, layer_names, n_ops):
    """Per-op layer means, coverage of server time and tracing cost."""
    totals = spans.totals()
    traced = 0.0
    for name in layer_names:
        per_op = totals.get(name, 0.0) / max(n_ops, 1)
        res.set(name, per_op)
        traced += per_op
    server_ms = res.metrics.get("serving.server_ms", 0.0)
    res.set("serving.unattributed_ms", server_ms - traced)
    res.set("trace.coverage_ratio", traced / server_ms if server_ms else 0.0)
    spent = sum(totals.values())
    res.set("trace.overhead_ratio",
            spans.overhead_ms() / spent if spent else 0.0)


# -- cold_predict -----------------------------------------------------------------------
def cold_ops(seed, seconds, inject_unknown):
    rng = random.Random(f"cold_predict:{seed}")
    n = _op_count(COLD_OPS_PER_S, seconds, len(COLD_DESIGNS))
    designs = [COLD_DESIGNS[i % len(COLD_DESIGNS)] for i in range(n)]
    seeds = rng.sample(range(2, 1_000_000), n)   # distinct: all misses
    ops = [{"design": d, "seed": s} for d, s in zip(designs, seeds)]
    rng.shuffle(ops)
    if inject_unknown:
        ops.insert(n // 2, {"design": UNKNOWN_DESIGN, "seed": 1})
    return ops


def _traced_cold_reference(op, spans):
    """:func:`layers.cold_reference` with every layer call in a span."""
    art = layers.run_flow(op["design"], op["seed"], spans)
    arrival = layers.forward(layers.served_model(), art.hetero, spans)
    return (layers.endpoint_setup_ps(art.hetero, arrival, spans),
            layers.truth_setup_ps(art.hetero), art.hetero.num_nodes,
            len(art.hetero.levels))


def cold_predict(args, res):
    ops = cold_ops(args.seed, args.seconds, args.inject_unknown)
    bodies = [dict(op, model=MODEL, include_slack=True, no_cache=True)
              for op in ops]
    records = _http_phase(res, lambda server: None,
                          _split_round_robin(bodies), "/predict", args.trace)
    served = [rec for rec in records
              if _served_ok(rec, res, ops[rec["index"]]["design"])]
    served_ops = [ops[rec["index"]] for rec in served]
    spans = Spans(args.trace)
    if args.trace:
        refs = [_traced_cold_reference(op, spans) for op in served_ops]
    else:
        # Untimed checks: the benchmark's own flows on both CPUs.
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(CLIENTS, mp_context=ctx) as pool:
            refs = list(pool.map(layers.cold_reference,
                                 [op["design"] for op in served_ops],
                                 [op["seed"] for op in served_ops],
                                 chunksize=4))
    _score(res, records, list(zip(served, refs)))
    if args.trace:
        _trace_summary(res, spans, FLOW_LAYERS + FORWARD_LAYERS, len(refs))




# -- eco_delta -------------------------------------------------------------------------
class _RecordingService:
    """Stand-in for the service behind a :class:`repro.serving.DeltaClient`.

    Records each edit the client sends and answers as ``/predict/delta``
    would (the payload's setup WNS, rounded the same way) from the
    benchmark's own live session, a :class:`layers.DeltaReplay` of the
    served checkpoint.  For every edit it keeps the reference
    ``(predicted, truth, nodes, levels)`` that the served answer is
    checked against later.
    """

    def __init__(self, replay):
        self.replay = replay
        self.edits = []
        self.refs = []

    def predict_delta(self, body):
        from repro.graphdata import parse_edits
        replay = self.replay
        predicted = replay.current()
        for edit in body["edits"]:
            predicted = replay.apply(parse_edits([edit])[0])
            hetero = replay.patcher.hetero
            self.edits.append(edit)
            self.refs.append((predicted, layers.truth_setup_ps(hetero),
                              hetero.num_nodes, len(hetero.levels)))
        return SimpleNamespace(prediction={
            "wns_setup_ps": round(float(np.nanmin(predicted)), 3)})


def record_session(place_seed, spans=layers.UNTRACED):
    """The edits the program's own ECO optimizers send to one session.

    The optimizers of ``repro.opt`` run as they do against the service:
    ``size_for_setup`` (one-step upsizes on the worst paths, rejected
    trials reverted), then ``buffer_critical_nets`` (``insert_buffer``,
    and ``remove_buffer`` for a rejected one), each through a
    ``DeltaClient`` whose service is a :class:`_RecordingService`.
    Versions 1 and 3, and those after the first ``insert_buffer`` and
    the first ``remove_buffer``, are also rebuilt by a from-scratch flow.
    Returns ``{"seed", "edits", "refs", "dirty", "scratch"}``, where
    ``scratch`` maps those versions to their predicted slack.
    """
    from repro.flow import Flow
    from repro.graphdata import parse_edits
    from repro.opt import buffer_critical_nets, size_for_setup
    from repro.serving import DeltaClient
    model = layers.served_model()
    replay = layers.DeltaReplay(ECO_DESIGN, place_seed, model, spans)
    service = _RecordingService(replay)
    client = DeltaClient(service, ECO_DESIGN, model=MODEL, seed=place_seed,
                         scale=SCALE)
    flow = Flow.from_benchmark(ECO_DESIGN, scale=SCALE)
    timer = flow.place(seed=place_seed).incremental_timer(tolerance=0.0)
    size_for_setup(timer, use_service=client)
    buffer_critical_nets(flow.design, flow.placement, timer.result,
                         use_service=client)
    edits = service.edits
    versions = {1, 3}
    for op in ("insert_buffer", "remove_buffer"):
        versions.update([k + 1 for k, e in enumerate(edits)
                         if e["op"] == op][:1])
    versions = {v for v in versions if v <= len(edits)}
    scratch = layers.from_scratch_at(ECO_DESIGN, place_seed,
                                     parse_edits(edits), versions, model)
    return {"seed": place_seed, "edits": edits, "refs": service.refs,
            "dirty": replay.dirty, "scratch": scratch}


def eco_sessions(seconds, spans):
    """Recorded sessions, placement seeds from ECO_FIRST_PLACEMENT_SEED up.

    Sessions are added CLIENTS at a time until the list holds
    ECO_OPS_PER_S x ``seconds`` edits (at least MIN_OPS).  The list
    does not depend on ``--seed``: cone sizes and structural rebuilds
    set a delta's cost, so every run does the same work.  Untraced runs
    record on both CPUs (untimed) once per build and keep the result in
    DERIVED; traced runs record in this process, and the recording is
    the traced replay.
    """
    target = max(MIN_OPS, int(math.ceil(ECO_OPS_PER_S * seconds)))
    path = os.path.join(DERIVED, f"eco_delta-{target}.pickle")
    if not spans.enabled and os.path.exists(path):
        with open(path, "rb") as fh:
            return pickle.load(fh)
    sessions = []
    while sum(len(x["edits"]) for x in sessions) < target:
        seeds = [ECO_FIRST_PLACEMENT_SEED + len(sessions) + c
                 for c in range(CLIENTS)]
        if spans.enabled:
            sessions += [record_session(seed, spans) for seed in seeds]
        else:
            ctx = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(CLIENTS, mp_context=ctx) as pool:
                sessions += list(pool.map(record_session, seeds))
    if not spans.enabled:
        os.makedirs(DERIVED, exist_ok=True)
        with open(path + ".tmp", "wb") as fh:
            pickle.dump(sessions, fh)
        os.replace(path + ".tmp", path)
    return sessions


def eco_delta(args, res):
    spans = Spans(args.trace)
    sessions = eco_sessions(args.seconds, spans)
    # Client c sends sessions c, c + CLIENTS, ... one after the other.
    queues = [[] for _ in range(CLIENTS)]
    where = {}                  # op index -> (session, edit index)
    for s, session in enumerate(sessions):
        for k, edit in enumerate(session["edits"]):
            where[len(where)] = (s, k)
            queues[s % CLIENTS].append((len(where) - 1, {
                "design": ECO_DESIGN, "seed": session["seed"],
                "model": MODEL, "edits": [edit], "include_slack": True,
                "no_cache": True}))
    if args.inject_unknown:
        queues[0].insert(len(queues[0]) // 2, (len(where), {
            "design": UNKNOWN_DESIGN, "model": MODEL, "edits": []}))

    def warmup(server):
        # Creates each live session (parent and worker) at version 0.
        client = Client(server.port)
        try:
            for session in sessions:
                status, body = client.post("/predict/delta", {
                    "design": ECO_DESIGN, "seed": session["seed"],
                    "model": MODEL, "edits": [], "no_cache": True})
                if status != 200:
                    raise BenchError(f"session warm-up: {status} {body}")
        finally:
            client.close()

    records = _http_phase(res, warmup, queues, "/predict/delta", args.trace)
    by_op = {rec["index"]: rec for rec in records}
    checked = []
    for index, (s, k) in where.items():
        rec = by_op[index]
        if not _served_ok(rec, res, f"session {s} edit {k}"):
            continue
        if rec["body"].get("graph_version") != k + 1:
            res.fail(f"session {s} edit {k}: served version "
                     f"{rec['body'].get('graph_version')}, expected {k + 1}")
            continue
        checked.append((rec, sessions[s]["refs"][k]))
    for s, session in enumerate(sessions):
        _check_from_scratch(res, s, session,
                            [by_op[i] for i, (t, _k) in where.items()
                             if t == s])
    _score(res, records, checked)
    dirty = [d for session in sessions for d in session["dirty"]]
    nodes = [ref[2] for session in sessions for ref in session["refs"]]
    res.set("models.dirty_nodes", float(np.mean(dirty)))
    res.set("models.dirty_ratio", float(np.mean(np.divide(dirty, nodes))))
    edits = [edit["op"] for session in sessions for edit in session["edits"]]
    res.info["edits"] = " ".join(f"{op}={edits.count(op)}"
                                 for op in sorted(set(edits)))
    if args.trace:
        _trace_summary(res, spans, DELTA_LAYERS + ["serving.payload_ms"],
                       len(dirty))


def _check_from_scratch(res, s, session, recs):
    """Served delta answers vs the session's from-scratch flows."""
    tol = layers.payload_tolerance()
    for version, predicted in sorted(session["scratch"].items()):
        rec = recs[version - 1]
        if rec["status"] != 200 or rec["body"].get("degraded"):
            continue
        served = rec["body"]["prediction"]["endpoint_setup_slack_ps"]
        excess = layers.compare(served, predicted, tol)
        if excess > 0:
            res.fail(f"session {s} version {version}: served slack differs "
                     f"from a from-scratch flow by {excess:.3g} ps")
