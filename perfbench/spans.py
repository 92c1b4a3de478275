"""In-memory span recorder and the layer boundary it wraps.

Ops never call the library directly: they call the attributes of a
`Layers` object.  Untraced, those are the library functions themselves,
so an untraced pass pays nothing.  Traced, each is wrapped in a span
(name, start, end, parent, op id) that also records counts taken from
the call's result.  The plane-map functions that other plane-map
functions call through module globals (face tracing, Claim 1, Claim 2,
the facially odd search) are also swapped in the `planemaps` module for
the length of a traced pass, so the pipeline's inner stages get spans
of their own.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from strongodd import colorings, constructive, graphs, planemaps, solver
from strongodd.gallery import check_structural_constraints, gallery

# planemaps globals that planemaps itself calls; swapped while tracing
_PATCHED = ("trace_faces", "decompose_claim1", "augment_claim2", "chi_pfo_exact")


def load_graph(text: str) -> graphs.Graph:
    return graphs.from_json_dict(json.loads(text))


def load_coloring(text: str) -> colorings.Coloring:
    return colorings.coloring_from_json_dict(json.loads(text))


def load_map(text: str) -> planemaps.PlaneMultigraph:
    return planemaps.map_from_json_dict(json.loads(text))


def _solve_counts(args, res):
    if isinstance(res, solver.DecisionResult):
        exhausted = res.status == solver.UNKNOWN
    else:
        exhausted = res.value is None
    return {"nodes": res.nodes_explored, "exhausted": int(exhausted)}


def _vertices(args, res):
    return {"vertices": len(res[1] if isinstance(res, tuple) else res)}


def _pieces(args, res):
    return {"pieces": len(res)}


def _edges_added(args, res):
    return {"edges_added": res.m - args[0].m}


# attribute -> (span name, library function, counts from (args, result))
LAYERS = {
    "load_graph": ("graphs.load", load_graph, None),
    "load_coloring": ("colorings.load", load_coloring, None),
    "load_map": ("planemaps.load", load_map, None),
    "is_proper": ("colorings.verify", colorings.is_proper, None),
    "is_odd": ("colorings.verify", colorings.is_odd, None),
    "is_strong_odd": ("colorings.verify", colorings.is_strong_odd, None),
    "is_square_coloring": ("colorings.verify", colorings.is_square_coloring, None),
    "chi_so_exact": ("solver.so", solver.chi_so_exact, _solve_counts),
    "chi_exact": ("solver.chi", solver.chi_exact, _solve_counts),
    "chi_odd_exact": ("solver.odd", solver.chi_odd_exact, _solve_counts),
    "chi_square_exact": ("solver.square", solver.chi_square_exact, _solve_counts),
    "refute": ("solver.refute", solver.is_k_strong_odd_colorable, _solve_counts),
    "witness": ("solver.witness", solver.is_k_strong_odd_colorable, _solve_counts),
    "chi_pfo_exact": ("solver.pfo", planemaps.chi_pfo_exact, _solve_counts),
    "trace_faces": ("planemaps.trace", planemaps.trace_faces, None),
    "annihilate": ("planemaps.annihilate", planemaps.annihilate, None),
    "decompose_claim1": ("planemaps.decompose", planemaps.decompose_claim1, _pieces),
    "augment_claim2": ("planemaps.augment", planemaps.augment_claim2, _edges_added),
    "pipeline": ("planemaps.pipeline", planemaps.strong_odd_via_planar_detailed, None),
    "color_tree": ("constructive", constructive.color_tree, _vertices),
    "color_cycle": ("constructive", constructive.color_cycle, _vertices),
    "color_unicyclic": ("constructive", constructive.color_unicyclic, _vertices),
    "compose_product_coloring": ("constructive", constructive.compose_product_coloring,
                                 _vertices),
    "compose_lexicographic": ("constructive", constructive.compose_lexicographic, _vertices),
    "color_direct_complete": ("constructive", constructive.color_direct_complete, _vertices),
    "c5_box_c5_table": ("constructive", constructive.c5_box_c5_table, _vertices),
    "nordhaus_gaddum": ("constructive", constructive.nordhaus_gaddum, _vertices),
    "gallery_check": ("gallery.check", check_structural_constraints, None),
}


class Tracer:
    """Spans as lists [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[5] = counts(args, out)
            return out

        return traced

    @contextmanager
    def op_span(self, op_id: int, name: str):
        self.op = op_id
        rec = [name, perf_counter(), 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


class Layers:
    """The library functions ops call, traced or not."""

    def __init__(self):
        for attr, (_, fn, _) in LAYERS.items():
            setattr(self, attr, fn)
        self.gallery = gallery

    @contextmanager
    def traced(self, tracer: Tracer):
        wrapped = {attr: tracer.wrap(name, fn, counts)
                   for attr, (name, fn, counts) in LAYERS.items()}
        saved = {attr: getattr(planemaps, attr) for attr in _PATCHED}
        for attr, fn in wrapped.items():
            setattr(self, attr, fn)
        for attr in _PATCHED:
            setattr(planemaps, attr, wrapped[attr])
        try:
            yield
        finally:
            for attr in _PATCHED:
                setattr(planemaps, attr, saved[attr])
            for attr, (_, fn, _) in LAYERS.items():
                setattr(self, attr, fn)


def layer_totals(spans: list[list], scale: list[float]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time (duration minus the part covered
    by child spans, times the speed scale of the span's op) and summed
    counts."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        agg = out.setdefault(rec[0], {"calls": 0, "busy_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += ((rec[2] - rec[1]) - child[i]) * scale[rec[4]]
        for key, val in (rec[5] or {}).items():
            agg[key] = agg.get(key, 0) + val
    return out
