"""Spans around calls into topo_recon's public functions, installed from outside.

``install`` wraps every public function of each topo_recon module and rebinds
every module attribute that refers to it, so calls made inside the package
(``mscan.sweep`` calling ``edge_births``, ``cli`` calling ``ami_curve``) get
spans of their own.  A span keeps its name, start, end, parent, repetition id
and, once ``start_memory`` has run, the tracemalloc peak reached inside it,
relative to the memory in use when it opened.  ``layer_metrics`` turns one
repetition's spans and counters into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc

import numpy as np

LAYERS = ("signal", "embed", "landmarks", "witness", "persistence", "mscan", "render", "cli")


class Tracer:
    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[dict] = []
        self._memory = False

    def start_memory(self) -> None:
        tracemalloc.start()
        self._memory = True

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        base = 0
        if self._memory:
            base, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
        span = {
            "name": name,
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "rep": self.rep,
            "_base": base,
            "_peak": base,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.monotonic()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()
        if self._memory:
            span["_peak"] = max(span["_peak"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            if self._stack:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], span["_peak"])
        span["peak_bytes"] = span.pop("_peak") - span.pop("_base")

    def wrap(self, name: str, fn, after=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, result, bound.arguments)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Route every public topo_recon function, wherever it is referenced, through a span."""
    modules = [importlib.import_module("topo_recon")]
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"topo_recon.{layer}")
        modules.append(mod)
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, _COUNTERS.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


# Counters recorded after a call returns, from its arguments and result.


def _file_bytes(metric):
    return lambda t, result, a: t.add(metric, os.path.getsize(a["path"]))


def _births(t, result, a):
    n, ell = a["dm"].entries.shape
    t.add("witness.births_pair_evals", n * ell * (ell - 1) // 2)  # computed
    t.add("witness.births_bytes", 3 * n * ell * 8)  # computed: distances, excess, its transpose


def _capped_edges(t, births, cap):
    iu, ju = np.triu_indices(births.shape[0], k=1)
    t.add("witness.edges_le_cap", int(np.count_nonzero(births[iu, ju] <= cap)))
    t.add("witness.edge_pairs", iu.size)


def _expand(t, ff, a):
    for d, n in ff.counts_by_dim().items():
        t.add(f"witness.simplices_d{d}", n)
    if a["max_value"] is not None:
        _capped_edges(t, a["ef"].births, a["max_value"])


def _sweep(t, sw, a):
    for ef, eps in zip(sw.per_m, sw.epsilons):
        _capped_edges(t, ef.births, eps)


def _reduce(t, bc, a):
    t.add("persistence.columns", sum(1 for verts, _ in a["ff"].simplices if len(verts) > 1))
    t.add("persistence.intervals", len(bc.intervals))


def _lifespans(t, ls, a):
    t.counts["mscan.lifespan1_edges"] = int(np.count_nonzero(np.triu(ls, k=1) == 1))


def _ell(t, lms, a):
    t.counts["landmarks.ell"] = lms.ell


_COUNTERS = {
    "embed.save_cloud": _file_bytes("embed.cloud_bytes"),
    "witness.save_filtration": _file_bytes("witness.filtration_bytes"),
    "landmarks.select_evenly_spaced": _ell,
    "landmarks.select_maxmin": _ell,
    "witness.edge_births": _births,
    "witness.flag_expand": _expand,
    "mscan.sweep": _sweep,
    "persistence.persistent_homology": _reduce,
    "mscan.lifespan_matrix": _lifespans,
}

# per-layer time metric -> the spans it sums
_SPAN_TIMES = {
    "signal.integrate_s": ["signal.integrate_lorenz"],
    "signal.load_series_s": ["signal.load_series"],
    "embed.ami_s": ["embed.ami_curve"],
    "embed.delay_embed_s": ["embed.delay_embed"],
    "embed.cloud_io_s": ["embed.save_cloud", "embed.load_cloud"],
    "landmarks.select_s": ["landmarks.select_evenly_spaced", "landmarks.select_maxmin"],
    "landmarks.io_s": ["landmarks.save_landmarks", "landmarks.load_landmarks"],
    "witness.distance_matrix_s": ["witness.distance_matrix"],
    "witness.births_s": ["witness.edge_births"],
    "witness.expand_s": ["witness.flag_expand"],
    "witness.filtration_io_s": ["witness.save_filtration", "witness.load_filtration"],
    "persistence.reduce_s": ["persistence.persistent_homology"],
    "persistence.cycles_s": ["persistence.representative_cycles"],
    "mscan.sweep_s": ["mscan.sweep"],
    "mscan.lifespan_s": ["mscan.lifespan_matrix"],
    "mscan.dm_filtration_s": ["mscan.dm_filtration"],
    "render.svg_s": ["render.render_barcode", "render.render_heatmap", "render.render_skeleton"],
    "cli.ami_s": ["cli.cmd_ami"],
    "cli.embed_s": ["cli.cmd_embed"],
    "cli.landmarks_s": ["cli.cmd_landmarks"],
    "cli.complex_s": ["cli.cmd_complex"],
    "cli.barcode_s": ["cli.cmd_barcode"],
    "cli.render_s": ["cli.cmd_render"],
}
_SPAN_CALLS = {"embed.ami_calls": "embed.ami_curve", "witness.births_calls": "witness.edge_births"}
_SPAN_PEAKS = {"witness.births_peak_mb": "witness.edge_births", "persistence.reduce_peak_mb": "persistence.persistent_homology"}
PEAK_METRICS = tuple(_SPAN_PEAKS)
_COUNTS = (
    "embed.cloud_bytes",
    "landmarks.ell",
    "witness.births_pair_evals",
    "witness.births_bytes",
    "witness.edges_le_cap",
    "witness.simplices_d0",
    "witness.simplices_d1",
    "witness.simplices_d2",
    "witness.filtration_bytes",
    "persistence.columns",
    "persistence.intervals",
    "mscan.lifespan1_edges",
    "cli.artifact_bytes",
)
# counts that must repeat exactly across repetitions of one input
EXACT_COUNTS = _COUNTS + tuple(_SPAN_CALLS)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list, counts: dict, ready: float, done: float) -> dict:
    """Per-layer metrics of one repetition.

    Self times cover the spans inside [ready, done]; with ``trace.untimed_s``
    (the part of that window no top-level span covers) they add up to
    ``trace.wall_s``.  ``signal.integrate_s`` is set-up work before ``ready``.
    """
    out = {}
    for metric, names in _SPAN_TIMES.items():
        out[metric] = sum(_duration(s) for s in spans if s["name"] in names)
    for metric, name in _SPAN_CALLS.items():
        out[metric] = sum(1 for s in spans if s["name"] == name)
    for metric, name in _SPAN_PEAKS.items():
        out[metric] = max((s["peak_bytes"] for s in spans if s["name"] == name), default=0) / 2**20
    for metric in _COUNTS:
        out[metric] = counts.get(metric, 0)
    pairs = counts.get("witness.edge_pairs", 0)
    out["witness.edges_useful_frac"] = out["witness.edges_le_cap"] / pairs if pairs else 0.0

    inside = [s for s in spans if s["start"] >= ready]
    children: dict = {}
    for s in inside:
        children.setdefault(s["parent"], []).append(s)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s in inside:
        covered = sum(_duration(c) for c in children.get(s["id"], ()))
        self_time[s["name"].split(".")[0]] += _duration(s) - covered
    for layer, value in self_time.items():
        out[f"{layer}.self_s"] = value
    out["mscan.sweep_self_s"] = sum(
        _duration(s) - sum(_duration(c) for c in children.get(s["id"], ()) if c["name"].startswith("witness."))
        for s in inside if s["name"] == "mscan.sweep"
    )
    top = sum(_duration(s) for s in children.get(None, ()))
    out["trace.wall_s"] = done - ready
    out["trace.untimed_s"] = done - ready - top
    return out
