"""In-process replay of the program's layers, one public call per span.

The served numbers come from ``repro serve``; this module recomputes
them in the benchmark's own process from the program's public layer
functions.  Untraced runs use it only to check outputs (untimed); traced
runs wrap each call in a :class:`~harness.Spans` span, so the per-layer
table names the layer that moved.

Ground truth is always the benchmark's own STA run here, never a label
carried by a response.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.graphdata import TIME_SCALE, GraphPatcher, extract_graph
from repro.liberty import make_sky130_like_library
from repro.netlist import build_benchmark
from repro.placement import place_design
from repro.routing import route_design
from repro.sta import build_timing_graph, run_sta
from repro.training import slack_from_arrival

from harness import SCALE, SERVE_EPOCHS, Spans

# Span recorder of untraced calls: records nothing.
UNTRACED = Spans(False)


def served_model():
    """The served ``timing-full`` checkpoint (the program memoizes it)."""
    from repro.experiments import trained_timing_gnn
    return trained_timing_gnn("full", scale=SCALE, epochs=SERVE_EPOCHS)


def payload_tolerance():
    """(rtol, atol in ps) a served slack must meet against the replay.

    The loosest of the program's dtype contracts (``nn.contract_tol``),
    so a serving dtype change is judged by the accuracy metrics rather
    than by failing every op; the atol adds the payload's 1e-3 ps
    rounding.
    """
    rtol = max(nn.contract_tol(d)[0] for d in nn.DTYPES)
    atol = max(nn.contract_tol(d)[1] for d in nn.DTYPES) * TIME_SCALE
    return rtol, atol + 1e-3


class Artefacts:
    """One design's flow artefacts as the benchmark built them."""

    def __init__(self, design, placement, routing, graph, result, hetero):
        self.design = design
        self.placement = placement
        self.routing = routing
        self.graph = graph
        self.result = result
        self.hetero = hetero


def run_flow(name, seed, spans, scale=SCALE):
    """generate -> place -> route -> timing graph -> STA -> extract."""
    with spans.span("netlist.generate_ms"):
        library = make_sky130_like_library()
        design = build_benchmark(name, library, scale=scale)
    with spans.span("placement.place_ms"):
        placement = place_design(design, seed=seed)
    with spans.span("routing.route_ms"):
        routing = route_design(design, placement)
    with spans.span("sta.timing_graph_ms"):
        graph = build_timing_graph(design)
    with spans.span("sta.analysis_ms"):
        result = run_sta(design, placement, routing, graph=graph)
    with spans.span("graphdata.extract_ms"):
        hetero = extract_graph(graph, placement, result)
    return Artefacts(design, placement, routing, graph, result, hetero)


def forward(model, hetero, spans):
    """Arrival prediction, split into the model's two stages when traced."""
    if not spans.enabled:
        return model.predict(hetero).numpy_arrival()
    from repro.models import TimingPrediction
    with nn.no_grad():
        with spans.span("models.net_embedding_ms"):
            embedding, net_delay = model.net_embedding(hetero)
        with spans.span("models.propagation_ms"):
            atslew, cell_delay, order = model.propagation(hetero, embedding)
    return TimingPrediction(embedding, net_delay, atslew, cell_delay,
                            order).numpy_arrival()


def endpoint_setup_ps(hetero, arrival, spans=None):
    """Worst setup slack per endpoint (ps), as the served payload reports."""
    if spans is None:
        slack = slack_from_arrival(hetero, arrival)
    else:
        with spans.span("serving.payload_ms"):
            slack = slack_from_arrival(hetero, arrival)
    return slack[:, 2:4].min(axis=1) * TIME_SCALE


def truth_setup_ps(hetero):
    """Endpoint setup slack from the benchmark's own STA labels."""
    return endpoint_setup_ps(hetero, hetero.arrival)


def cold_reference(design, seed):
    """Untraced reference of one cold op (runs in a worker process).

    Returns ``(predicted, truth, nodes, levels)``: endpoint setup slack
    of the served checkpoint on the benchmark's own flow, and of the
    benchmark's own STA.
    """
    art = run_flow(design, seed, UNTRACED)
    arrival = served_model().predict(art.hetero).numpy_arrival()
    return (endpoint_setup_ps(art.hetero, arrival),
            truth_setup_ps(art.hetero), art.hetero.num_nodes,
            len(art.hetero.levels))


def compare(served, reference, tol):
    """Largest violation of ``|served - ref| <= atol + rtol |ref|`` (<=0 ok)."""
    served = np.asarray(served, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if served.shape != reference.shape:
        return float("inf")
    rtol, atol = tol
    excess = np.abs(served - reference) - (atol + rtol * np.abs(reference))
    return float(excess.max()) if len(excess) else 0.0


class Accuracy:
    """Served slack against the benchmark's own STA, over a fixed op list."""

    def __init__(self):
        self.abs_err_sum = 0.0
        self.endpoints = 0
        self.wns_err = []

    def add(self, served_setup_ps, truth_ps):
        served = np.asarray(served_setup_ps, dtype=np.float64)
        self.abs_err_sum += float(np.abs(served - truth_ps).sum())
        self.endpoints += len(truth_ps)
        self.wns_err.append(abs(float(served.min()) - float(truth_ps.min())))

    def slack_mae_ps(self):
        return self.abs_err_sum / max(self.endpoints, 1)

    def wns_err_ps(self):
        return float(np.mean(self.wns_err)) if self.wns_err else 0.0


# -- delta (ECO) layers ----------------------------------------------------------------
class DeltaReplay:
    """The benchmark's own live ECO session for one (design, seed).

    Applies edits through the program's :class:`GraphPatcher` (whose
    incremental STA is the ground truth here) and re-predicts through
    :class:`repro.models.IncrementalForwardState`, with spans around
    the patch, the incremental timer inside it and the cone forward.
    A buffer edit's full re-route, STA and extraction runs inside the
    patch, so it counts towards ``graphdata.patch_ms``.
    """

    def __init__(self, design, seed, model, spans):
        from repro.models import IncrementalForwardState
        art = run_flow(design, seed, UNTRACED)
        self.patcher = GraphPatcher(art.design, art.placement, art.routing,
                                    art.graph, art.result, art.hetero)
        self.state = IncrementalForwardState(model)
        self.spans = spans
        self.dirty = []
        self._timer = None
        self.state.refresh(self.patcher.hetero, [], self.patcher.version)

    def _wrap_timer(self):
        """Span the timer's edit calls (a buffer edit replaces the timer)."""
        timer = self.patcher.timer
        if timer is self._timer:
            return
        for method in ("move_cell", "resize_cell"):
            fn = getattr(timer, method)
            setattr(timer, method, self._timed(fn))
        self._timer = timer

    def _timed(self, fn):
        def call(*args, **kwargs):
            with self.spans.span("sta.incremental_ms"):
                return fn(*args, **kwargs)
        return call

    def current(self):
        """Endpoint setup slack (ps) of the current version (untraced)."""
        return endpoint_setup_ps(self.patcher.hetero, self.state.arrival)

    def apply(self, edit):
        """Apply one parsed edit; returns endpoint setup slack (ps)."""
        self._wrap_timer()
        with self.spans.span("graphdata.patch_ms"):
            delta = self.patcher.apply(edit)
        hetero = self.patcher.hetero
        with self.spans.span("models.incremental_forward_ms"):
            stats = self.state.refresh(hetero, [delta], self.patcher.version)
        self.dirty.append(stats["dirty_nodes"])
        return endpoint_setup_ps(hetero, self.state.arrival,
                                 self.spans if self.spans.enabled else None)


def from_scratch_at(design, seed, edits, versions, model):
    """Fresh flow of ``design`` with ``edits`` applied, fully re-analysed.

    The edits are applied in order to a fresh design/placement; after
    each version in ``versions`` (1 = after the first edit) routing,
    timing graph, STA, extraction and the forward run from scratch on
    the edited design.  Returns ``{version: predicted endpoint setup
    slack in ps}``.
    """
    art = run_flow(design, seed, UNTRACED)
    patcher = GraphPatcher(art.design, art.placement, art.routing,
                           art.graph, art.result, art.hetero)
    out = {}
    for version, edit in enumerate(edits[:max(versions)], start=1):
        patcher.apply(edit)
        if version not in versions:
            continue
        routing = route_design(patcher.design, patcher.placement)
        graph = build_timing_graph(patcher.design)
        result = run_sta(patcher.design, patcher.placement, routing,
                         clock_period=patcher.clock_period, graph=graph)
        hetero = extract_graph(graph, patcher.placement, result,
                               split=patcher.hetero.split)
        arrival = model.predict(hetero).numpy_arrival()
        out[version] = endpoint_setup_ps(hetero, arrival)
    return out
