"""Shared machinery of the timing-GNN benchmark.

Everything here runs in the benchmark's own process or starts the
program from outside: the pinned environment, the one-off build of the
served checkpoint, the ``repro serve`` process, a closed-loop HTTP
client, the host calibration kernel, an in-memory span recorder and the
result line the benchmark prints.

The program lives in ``src/`` of the checkout that holds this
directory; nothing here writes outside ``<checkout>/.timingbench``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".timingbench")
# Inputs and references the benchmark derives from the current sources
# (emptied with the build when src/ changes).
DERIVED = os.path.join(WORK, "derived")

# One design scale for the served checkpoint, the served graphs and the
# training graphs: the suite's standard quick-run scale.
SCALE = 0.25
# Epochs of the served checkpoint (trained once per checkout, cached).
SERVE_EPOCHS = 30
# Closed-loop clients: one per CPU of the 2-CPU reference host.
CLIENTS = 2
SERVER_WORKERS = 2
# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3
# BLAS/OpenMP pools are pinned to one thread in every process.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run (program absent, build or server failed)."""


# -- metric catalogue -------------------------------------------------------------
# (name, unit, better).  BENCHMARK.json lists exactly these; the
# self-test checks that the two agree.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("slack_mae_ps", "ps", "lower"),
    ("wns_err_ps", "ps", "lower"),
]

FLOW_LAYERS = ["netlist.generate_ms", "placement.place_ms",
               "routing.route_ms", "sta.timing_graph_ms",
               "sta.analysis_ms", "graphdata.extract_ms"]
FORWARD_LAYERS = ["models.net_embedding_ms", "models.propagation_ms",
                  "serving.payload_ms"]
DELTA_LAYERS = ["graphdata.patch_ms", "sta.incremental_ms",
                "models.incremental_forward_ms"]
TRAIN_LAYERS = ["training.forward_ms", "training.loss_ms",
                "training.backward_ms", "training.optimizer_ms"]

PER_LAYER = (
    [(n, "ms", "lower") for n in FLOW_LAYERS + FORWARD_LAYERS]
    + [("serving.server_ms", "ms", "lower"),
       ("serving.transport_ms", "ms", "lower"),
       ("serving.unattributed_ms", "ms", "lower"),
       ("serving.batch_size_mean", "count", "higher"),
       ("serving.graph_cache_hit_ratio", "ratio", "higher"),
       ("serving.graph_cache_evictions", "count", "lower"),
       ("serving.shed", "count", "lower"),
       ("serving.degraded", "count", "lower")]
    + [(n, "ms", "lower") for n in DELTA_LAYERS]
    + [("models.dirty_nodes", "count", "lower"),
       ("models.dirty_ratio", "ratio", "lower")]
    + [(n, "ms", "lower") for n in TRAIN_LAYERS]
    + [("nn.allocations_per_step", "count", "lower"),
       ("training.loss", "loss", "lower"),
       ("graphdata.nodes", "count", "lower"),
       ("graphdata.levels", "count", "lower"),
       ("trace.coverage_ratio", "ratio", "higher"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("host.calibration_ms", "ms", "lower")]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

_SERVING_COMMON = ["serving.server_ms", "serving.transport_ms",
                   "serving.unattributed_ms", "serving.batch_size_mean",
                   "serving.graph_cache_hit_ratio", "graphdata.nodes",
                   "graphdata.levels"]
_DIAGNOSTICS = ["trace.coverage_ratio", "trace.overhead_ratio",
                "host.calibration_ms"]
# Per-layer metrics that do work on each workload; every other
# per-layer metric of a workload reads 0 (its layer is idle there).
# Counters that must stay 0 (shed, degraded, evictions off the cold
# path) are printed everywhere and are not listed.
ACTIVE_LAYERS = {
    "cold_predict": FLOW_LAYERS + FORWARD_LAYERS + _SERVING_COMMON
    + ["serving.graph_cache_evictions"] + _DIAGNOSTICS,
    "eco_delta": DELTA_LAYERS + ["serving.payload_ms", "models.dirty_nodes",
                                 "models.dirty_ratio"]
    + _SERVING_COMMON + _DIAGNOSTICS,
    "train_epoch": TRAIN_LAYERS + ["nn.allocations_per_step",
                                   "training.loss", "graphdata.nodes",
                                   "graphdata.levels"] + _DIAGNOSTICS,
}


# -- environment and build --------------------------------------------------------
def require_program():
    """Fail unless the checkout holds the program's sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"program not found: no src/repro under {ROOT}")


def bench_env():
    """Environment of every process the benchmark starts.

    Inherited ``REPRO_*`` knobs are dropped so the program runs with its
    own defaults; caches, run ledger and audit log stay in the checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = os.path.join(WORK, "cache")
    env["REPRO_RUNS_DIR"] = os.path.join(WORK, "runs")
    return env


def apply_env_in_process():
    """Pin this process the same way (call before importing numpy)."""
    env = bench_env()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in list(PINNED_THREADS) + ["REPRO_CACHE_DIR", "REPRO_RUNS_DIR",
                                       "PYTHONPATH"]:
        os.environ[key] = env[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _source_digest():
    """Digest of the program's sources and the benchmark's own."""
    h = hashlib.sha256(f"{SCALE}:{SERVE_EPOCHS}".encode())
    for top in (os.path.join(SRC, "repro"), os.path.dirname(__file__)):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def ensure_built():
    """Build the dataset and train the served checkpoint once per source tree.

    Runs ``repro train`` (which caches the 21-design dataset and the
    ``timing-full`` checkpoint under the benchmark's cache directory).
    Later runs find the marker and skip it, so set-up never trains.
    The program keys its own cache entries by configuration, not by
    source, so a changed ``src/`` empties the cache and DERIVED first:
    dataset, labels, checkpoint and the benchmark's own references are
    then all rebuilt by the current sources.
    """
    require_program()
    os.makedirs(WORK, exist_ok=True)
    marker = os.path.join(WORK, "built.json")
    digest = _source_digest()
    try:
        with open(marker) as fh:
            if json.load(fh).get("digest") == digest:
                return
    except (OSError, ValueError):
        pass
    for stale in ("cache", "derived"):
        shutil.rmtree(os.path.join(WORK, stale), ignore_errors=True)
    try:
        os.remove(marker)
    except OSError:
        pass
    log_path = os.path.join(WORK, "build.log")
    cmd = [sys.executable, "-m", "repro.cli", "train", "--variant", "full",
           "--scale", str(SCALE), "--epochs", str(SERVE_EPOCHS)]
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(), stdout=log,
                              stderr=subprocess.STDOUT, timeout=840)
    if proc.returncode != 0:
        raise BenchError(f"build failed ({proc.returncode}); see {log_path}")
    with open(marker, "w") as fh:
        json.dump({"digest": digest}, fh)


# -- process tree helpers ------------------------------------------------------------
def _children(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[1] == pid:
                kids.append(int(entry))
    return kids


def _stat(pid):
    """``(state, ppid, pgid)`` of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), int(fields[2])


def process_tree(pid):
    """``pid`` and all its live descendants."""
    tree, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        tree.append(p)
        frontier.extend(_children(p))
    return tree


def _reap(pid):
    """Collect ``pid``'s exit status if it is an ended child of this process."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def become_subreaper():
    """Adopt the orphans of every process the benchmark starts.

    A descendant whose parent ends (a server's worker or its
    multiprocessing resource tracker) is then re-parented to this
    process instead of to init, so :func:`end_descendants` finds and
    waits for it.  Linux only; elsewhere a no-op.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)          # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def end_descendants(grace_s=5.0):
    """Stop every process this one started and wait until each has ended.

    Called on every path out of a run.  The resource tracker of the
    ``spawn`` pools that run the untimed checks ends only when this
    process closes its pipe, so it is stopped first, and waited for.
    Anything else still alive is a leak: it gets SIGTERM, then SIGKILL
    after ``grace_s``, and is reaped.  Returns how many were ended.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    me = os.getpid()
    ended, signalled = set(), {}
    deadline = time.monotonic() + grace_s
    give_up = deadline + 10
    while time.monotonic() < give_up:
        tree = [p for p in process_tree(me) if p != me]
        if not tree:
            break
        sig = signal.SIGTERM if time.monotonic() < deadline \
            else signal.SIGKILL
        for pid in tree:
            stat = _stat(pid)
            if stat is None:
                continue
            if stat[0] == "Z":
                _reap(pid)
                continue
            ended.add(pid)
            if signalled.get(pid) != sig:
                signalled[pid] = sig
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
    return len(ended)


def peak_rss_mb(pids):
    """Sum of each process's peak resident set (VmHWM), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- the server -------------------------------------------------------------------
class Server:
    """One ``repro serve --workers 2`` process tree, started from outside."""

    def __init__(self, tag):
        os.makedirs(WORK, exist_ok=True)
        self._out_path = os.path.join(WORK, f"server-{tag}.out")
        self._err_path = os.path.join(WORK, f"server-{tag}.err")
        self.proc = None
        self.port = None

    def start(self, timeout_s=120.0):
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--workers", str(SERVER_WORKERS), "--port", "0",
               "--scale", str(SCALE), "--epochs", str(SERVE_EPOCHS)]
        with open(self._out_path, "w") as out, \
                open(self._err_path, "w") as err:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=bench_env(),
                                         stdout=out, stderr=err,
                                         start_new_session=True)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self._out_path) as fh:
                for line in fh:
                    if line.startswith("serving on http://"):
                        address = line.split()[2]
                        self.port = int(address.rsplit(":", 1)[1])
                        return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise BenchError(f"server did not become ready; see {self._err_path}")

    def pids(self):
        return process_tree(self.proc.pid)

    def stop_async(self):
        """:meth:`stop` on a thread; join it before anything is timed.

        The pool's graceful drain mostly waits idle (about 2 s here), so
        the benchmark overlaps it with untimed work.
        """
        thread = threading.Thread(target=self.stop)
        thread.start()
        return thread

    def stop(self):
        """SIGTERM (graceful drain), then kill whatever is left; waits."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Orphans of the server's group are re-parented to this process
        # (become_subreaper): reap each until none is left.
        me = os.getpid()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            members = [(pid, stat) for pid, stat in
                       ((int(e), _stat(int(e))) for e in os.listdir("/proc")
                        if e.isdigit())
                       if stat is not None and stat[2] == pgid]
            if not members:
                break
            for pid, (_state, ppid, _pgid) in members:
                if ppid == me:
                    _reap(pid)
            time.sleep(0.02)
        self.proc = None


class Client:
    """One keep-alive HTTP connection, used by one closed-loop client."""

    def __init__(self, port):
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=120)

    def post(self, path, body):
        data = json.dumps(body).encode()
        self._conn.request("POST", path, body=data,
                           headers={"Content-Type": "application/json"})
        resp = self._conn.getresponse()
        return resp.status, json.loads(resp.read())

    def get(self, path):
        self._conn.request("GET", path)
        resp = self._conn.getresponse()
        return resp.status, json.loads(resp.read())

    def close(self):
        self._conn.close()


def drive(port, queues, path):
    """Run each client's op queue closed-loop, one thread per client.

    ``queues[c]`` is a list of ``(op_index, body)``.  Returns
    ``(records, window_s)`` with one record per op:
    ``{"index", "status", "body", "client_ms", "done_s"}`` (status 0 =
    transport error; ``done_s`` = reply time from the start).  The
    window runs from the first send to the last reply.
    """
    records = []
    lock = threading.Lock()
    start = None

    def client_loop(queue):
        client = Client(port)
        try:
            for index, body in queue:
                t0 = time.perf_counter()
                try:
                    status, reply = client.post(path, body)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, reply = 0, {"error": str(exc)}
                    client.close()
                    client = Client(port)
                done = time.perf_counter()
                with lock:
                    records.append({"index": index, "status": status,
                                    "body": reply,
                                    "client_ms": (done - t0) * 1000.0,
                                    "done_s": done - start})
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(q,), daemon=True)
               for q in queues]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window = time.perf_counter() - start
    records.sort(key=lambda r: r["index"])
    return records, window


# -- statistics ----------------------------------------------------------------------
def median(values):
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return float("nan")
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def block_rate(done_s, ok, blocks=10, min_block=10):
    """Median of per-block completion rates (ops checked correct / s).

    Replies are cut, in completion order, into ``blocks`` equal blocks
    (at least ``min_block`` replies each); a burst of host noise then
    moves one block's rate, not the run's figure.
    """
    order = sorted(range(len(done_s)), key=lambda i: done_s[i])
    size = max(min_block, len(order) // blocks)
    rates, prev = [], 0.0
    for lo in range(0, len(order) - size + 1, size):
        chunk = order[lo:lo + size]
        end = done_s[chunk[-1]]
        good = sum(1 for i in chunk if ok[i])
        rates.append(good / (end - prev))
        prev = end
    return median(rates)


def percentile(values, q):
    """Linear-interpolated ``q``-quantile (0..1); ``inf`` entries allowed."""
    vals = sorted(values)
    if not vals:
        return float("nan")
    pos = q * (len(vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(vals) - 1)
    if vals[hi] == float("inf"):
        return float("inf") if pos > lo or vals[lo] == float("inf") \
            else vals[lo]
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def calibration_ms(reps=9):
    """Median time of a fixed kernel: the host's current speed.

    Mixes what the program spends its time on: interpreted Python,
    small dense numpy, and gathers/streams over arrays larger than the
    CPU caches (which a noisy neighbour's memory traffic slows).
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160))
    big = rng.standard_normal(4_000_000)
    idx = rng.integers(0, len(big), size=400_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        b = a
        for _ in range(6):
            b = np.tanh(b @ a * 0.01)
        acc = 0
        for i in range(20000):
            acc += i % 7
        np.add.reduceat(big[idx], np.arange(0, len(idx), 400))
        float((big * 1.5).sum())
        times.append((time.perf_counter() - t0) * 1000.0)
    return median(times)


# -- span recorder ---------------------------------------------------------------------
class Spans:
    """In-memory spans around the benchmark's calls into program layers.

    ``enabled=False`` makes :meth:`span` a no-op context (untraced
    verification runs the same code path without timing it).  Spans
    nest; a layer's *self* time excludes its child spans.  Nothing is
    written until :meth:`totals` is read at the end of the run.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.records = []          # (name, start, end, parent index)
        self._stack = []

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def totals(self):
        """``{name: self time in ms}`` summed over all spans."""
        child_ms = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent is not None:
                child_ms[parent] += (end - start) * 1000.0
        out = {}
        for i, (name, start, end, _parent) in enumerate(self.records):
            out[name] = out.get(name, 0.0) + (end - start) * 1000.0 \
                - child_ms[i]
        return out

    def overhead_ms(self):
        """Estimated recorder cost of the spans taken (calibrated)."""
        if not self.records:
            return 0.0
        probe = Spans(True)
        reps = 2000
        t0 = time.perf_counter()
        for _ in range(reps):
            with probe.span("probe"):
                pass
        per_span = (time.perf_counter() - t0) / reps
        return per_span * len(self.records) * 1000.0


class _Span:
    __slots__ = ("_rec", "_name", "_start", "_index")

    def __init__(self, rec, name):
        self._rec = rec
        self._name = name

    def __enter__(self):
        rec = self._rec
        parent = rec._stack[-1] if rec._stack else None
        self._index = len(rec.records)
        rec.records.append((self._name, 0.0, 0.0, parent))
        rec._stack.append(self._index)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self._rec
        rec._stack.pop()
        _name, _s, _e, parent = rec.records[self._index]
        rec.records[self._index] = (self._name, self._start, end, parent)
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


# -- result ------------------------------------------------------------------------------
class Result:
    """Metrics of one run plus its op accounting and correctness."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []          # human-readable correctness failures
        self.metrics = {}
        self.info = {}              # printed in the table, not gated
        self.t0 = time.perf_counter()
        self.stopping = None        # thread draining the server, if any

    def fail(self, message):
        self.problems.append(message)

    def set(self, name, value):
        self.metrics[name] = float(value)

    def emit(self, trace):
        """Print the table, then the one JSON result line; returns it."""
        names = [n for n, _u, _b in (PER_LAYER if trace else END_TO_END)]
        self.info["run_s"] = f"{time.perf_counter() - self.t0:.3f}"
        for name in names:
            self.metrics.setdefault(name, 0.0)
        print(f"# workload {self.workload} "
              f"({'traced' if trace else 'untraced'}): "
              f"attempted {self.attempted}, failed {self.failed}, "
              f"blas threads {PINNED_THREADS['OPENBLAS_NUM_THREADS']}")
        for key, value in sorted(self.info.items()):
            print(f"#   {key:<34} {value}")
        for name in names:
            print(f"#   {name:<34} {self.metrics[name]:>14.4f} "
                  f"{UNITS[name]}")
        for problem in self.problems[:20]:
            print(f"# INCORRECT: {problem}")
        line = {"correct": not self.problems,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {n: {"value": self.metrics[n], "unit": UNITS[n]}
                            for n in names}}
        print(json.dumps(line), flush=True)
        return line
