"""Spans around the calls into each qcss layer, for the traced run.

Layers are the modules cli, codebook, correlation, modarith and bounds.
Spans come from wrappers the benchmark installs, not from code inside the
program: every public function of one layer that another layer binds by
name (``cli.build_qcss``, ``codebook.factorize``, ``bounds.factorize``, ...)
is wrapped where it is bound; a layer that another binds as a module
(``cli`` uses ``correlation.verify_ccc``) has its public functions wrapped
on the module; the entry points the benchmark itself calls are wrapped on
their modules; and cli's encoders, decoders and ``json`` calls are marked
as serialization. Classes are left alone so that isinstance checks keep
working; constructing one counts towards the caller's self time.

A span records layer, function name, start, end, parent span and op id.
Self time is a span's duration less the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from qcss import bounds, cli, codebook, correlation, modarith

LAYERS = {"cli": cli, "codebook": codebook, "correlation": correlation, "modarith": modarith, "bounds": bounds}

# Functions the benchmark's own ops call directly (module, attribute).
ENTRY_POINTS = (
    ("cli", "main"),
    ("cli", "load_family_json"),
    ("cli", "load_matrix_csv"),
    ("modarith", "factorize"),
    ("modarith", "pi_perm"),
)

SERIALIZERS = (
    "matrix_to_csv_text",
    "matrix_from_csv_text",
    "family_to_json_obj",
    "family_from_json_obj",
    "load_family_json",
    "load_matrix_csv",
)


@dataclass
class Span:
    layer: str
    name: str
    op_id: int
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    peak_bytes: int = 0
    counts: Counter = field(default_factory=Counter)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def enters_layer(self) -> bool:
        """True when the caller sits outside this span's layer."""
        return self.parent is None or self.parent.layer != self.layer

    @property
    def serializes(self) -> bool:
        return self.layer == "cli" and (self.name in SERIALIZERS or self.name.startswith("json."))


def _values_checked(name: str, args) -> int:
    """Domain size of one correlation call, from its inputs' sizes."""
    if name == "delta_max_scan":
        members = list(args[0])
        k = len(members)
        return k * k * members[0].n - k
    if name == "verify_ccc":
        members = list(args[0])
        return len(members) ** 2 * members[0].n
    if name == "verify_interset":
        return len(args[0].members) * len(args[1].members) * (2 * args[0].n - 1)
    return 0


def _count(span: Span, args, result) -> None:
    if span.layer == "correlation" and span.enters_layer:
        span.counts["values_checked"] = _values_checked(span.name, args)
    elif span.layer == "codebook" and span.enters_layer and span.name.startswith("build_"):
        members = [result] if span.name == "build_set" else list(result.members)
        span.counts["matrices_built"] = len(members)
        span.counts["entries_built"] = sum(mat.phases.size for mat in members)
    if span.layer == "modarith" and span.name == "factorize":
        span.counts["factorize_calls"] = 1


class Tracer:
    """Records spans while an op runs (``op_id`` set), nothing otherwise.

    tracemalloc runs only inside calls that enter the correlation layer, so
    it measures what a scan allocates without slowing the pure-Python layers.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._stack: list[Span] = []

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, name, self.op_id, parent)
            watch = layer == "correlation" and span.enters_layer
            if watch:
                tracemalloc.start()
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                if watch:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans.append(span)
            _count(span, args, result)
            return result

        return traced

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics, keyed '<layer>.<metric>'."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            spans = [s for s in self.spans if s.layer == layer]
            out[f"{layer}.calls"] = sum(s.enters_layer for s in spans) / passes
            out[f"{layer}.self_s"] = sum(s.self_s for s in spans) / passes
        totals = Counter()
        for s in self.spans:
            totals.update(s.counts)
        for key, metric in (
            ("values_checked", "correlation.values_checked"),
            ("matrices_built", "codebook.matrices_built"),
            ("entries_built", "codebook.entries_built"),
            ("factorize_calls", "modarith.factorize_calls"),
        ):
            out[metric] = totals[key] / passes
        corr_s = out["correlation.self_s"]
        out["correlation.values_per_s"] = out["correlation.values_checked"] / corr_s if corr_s > 0 else 0.0
        out["correlation.peak_traced_mb"] = max((s.peak_bytes for s in self.spans), default=0) / 2**20

        def total(pred) -> float:
            return sum(s.duration for s in self.spans if pred(s)) / passes

        out["modarith.pi_perm_s"] = total(lambda s: s.layer == "modarith" and s.name == "pi_perm")
        out["modarith.unique_solution_s"] = total(
            lambda s: s.layer == "modarith" and s.name == "verify_unique_solution"
        )
        out["cli.serialize_s"] = total(lambda s: s.serializes and not (s.parent and s.parent.serializes))
        return out

    def span_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "layer": s.layer,
                "name": s.name,
                "op": s.op_id,
                "parent": index.get(id(s.parent)),
                "start": s.start,
                "end": s.end,
            }
            for i, s in enumerate(self.spans)
        ]


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    name = module.rpartition(".")[2]
    return name if module.startswith("qcss.") and name in LAYERS else None


def _binding_sites():
    """(module, attribute, layer, name) for every function to wrap."""
    sites = {}
    for home, module in LAYERS.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and _layer_of(obj) not in (None, home):
                sites[(home, attr)] = (module, attr, _layer_of(obj), obj.__name__)
            elif inspect.ismodule(obj) and obj.__name__.rpartition(".")[2] in LAYERS and obj is not module:
                layer = obj.__name__.rpartition(".")[2]
                for fattr, fn in vars(obj).items():
                    if not fattr.startswith("_") and inspect.isfunction(fn) and _layer_of(fn) == layer:
                        sites[(layer, fattr)] = (obj, fattr, layer, fn.__name__)
    for home, attr in ENTRY_POINTS + tuple(("cli", name) for name in SERIALIZERS):
        fn = getattr(LAYERS[home], attr, None)
        if inspect.isfunction(fn):
            sites[(home, attr)] = (LAYERS[home], attr, home, attr)
    return list(sites.values())


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding site for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, layer, name in _binding_sites():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(layer, name, getattr(module, attr)))
        if isinstance(getattr(cli, "json", None), types.ModuleType):
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(json))
            for name in ("dump", "dumps", "load", "loads"):
                setattr(proxy, name, tracer.wrap("cli", f"json.{name}", getattr(json, name)))
            saved.append((cli, "json", cli.json))
            cli.json = proxy
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
