"""Layer spans recorded from outside the program.

The traced run wraps every public function and method of each ``repro``
layer (the packages of ``LayeringRule.LAYERS``, the section 7 layer map
the ``layering`` lint rule enforces) in a span: name, start, end and
parent.  Spans live in four parallel arrays in memory and are written
out once, when the run ends.  A layer's self time is the duration of its
spans minus the time their child spans cover.

A call from a layer into itself opens no span: the time is the same
layer's either way, and skipping it keeps the tracing cost to one stack
check per intra-layer call.  The few functions whose own spans feed a
metric (trace scans, server uploads, sweep cache loads) are recorded on
every call.

Process generator bodies are resumed by the kernel and run under the
kernel's span, so their time is reported as the ``sim`` remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: The root span: the benchmark's own code around the timed phase.
ROOT = "bench"
#: ``repro.sim.trace`` is reported apart from the kernel so the trace
#: scans show on their own row.
SUBLAYERS = {"repro.sim.trace": "sim.trace"}
#: Private methods other layers call back into: the trace subscribers
#: ``Trace.emit`` calls for every record, and the hooks the fault
#: injectors install on modems, probe links and servers.
PRIVATE_ENTRY_POINTS = frozenset({
    ("repro.obs.observability", "Observability", "_on_trace_record"),
    ("repro.faults.invariants", "InvariantChecker", "_on_record"),
    ("repro.faults.injectors", "GprsOutageInjector", "_available"),
    ("repro.faults.injectors", "GprsOutageInjector", "_hazard"),
    ("repro.faults.injectors", "ProbeLossInjector", "_extra"),
    ("repro.faults.injectors", "ServerOutageInjector", "_in_window"),
})
#: ``Trace`` queries that walk records (``iter_select`` is a generator and
#: runs inside them).
SCAN_METHODS = ("select", "byte_size", "series")
SCAN_SPANS = tuple(f"sim.trace:Trace.{name}" for name in SCAN_METHODS)
UPLOAD_SPAN = "server:SouthamptonServer.upload_data"
CACHE_LOAD_SPAN = "fleet:SweepCache.load"
#: Spans recorded even when the caller is in the same layer, because a
#: metric is read from them.
ALWAYS_RECORD = frozenset(SCAN_SPANS + (UPLOAD_SPAN, CACHE_LOAD_SPAN))


def layer_map() -> Dict[str, int]:
    """The section 7 layer map, as the ``layering`` lint rule holds it."""
    from repro.lint.rules import LayeringRule

    return dict(LayeringRule.LAYERS)


class SpanLog:
    """Spans in parallel arrays, indexed by span id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        #: ``(span id, layer)`` of every open span, innermost last.
        self.stack: List[Tuple[int, str]] = [(-1, "")]

    def intern(self, name: str, layer: str) -> int:
        key = self._ids.get(name)
        if key is None:
            key = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(sys.intern(layer))
        return key

    def __len__(self) -> int:
        return len(self.name)

    def clear(self) -> None:
        """Drop every recorded span; no span may be open."""
        if len(self.stack) != 1:
            raise RuntimeError("clear() with spans still open")
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]

    def open(self, name: str, layer: str) -> int:
        """Open a span by hand (the benchmark's root span)."""
        sid = len(self.name)
        self.name.append(self.intern(name, layer))
        self.parent.append(self.stack[-1][0])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append((sid, sys.intern(layer)))
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        top, _ = self.stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` recording a span per cross-layer call."""
        layer = sys.intern(layer)
        nid = self.intern(name, layer)
        stack = self.stack
        push, pop = stack.append, stack.pop
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter
        always = name in ALWAYS_RECORD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top[1] is layer and not always:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(top[0])
            ends.append(0.0)
            starts.append(clock())
            push((sid, layer))
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                pop()

        return traced

    def dump(self, path: str) -> None:
        """Write the spans out: a name table line, then the four arrays."""
        import json

        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names, "layers": self.name_layer,
                                 "count": len(self)})
            fh.write(header.encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def load(path: str) -> SpanLog:
    """Read back what :meth:`SpanLog.dump` wrote."""
    import json

    log = SpanLog()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name, layer in zip(header["names"], header["layers"]):
            log.intern(name, layer)
        count = header["count"]
        for column in (log.name, log.parent, log.start, log.end):
            column.fromfile(fh, count)
    return log


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _layer_of(module_name: str, layers: Iterable[str]) -> str:
    if module_name in SUBLAYERS:
        return SUBLAYERS[module_name]
    parts = module_name.split(".")
    head = parts[1] if len(parts) > 1 else ""
    return head if head in layers else ""


def layer_modules(layers: Iterable[str]) -> List[str]:
    """Every importable module of the given ``repro`` packages."""
    names: List[str] = []
    for layer in sorted(layers):
        package = importlib.import_module(f"repro.{layer}")
        names.append(package.__name__)
        for info in pkgutil.walk_packages(getattr(package, "__path__", []),
                                          prefix=package.__name__ + "."):
            names.append(info.name)
    return names


def _public(name: str) -> bool:
    return not name.startswith("_")


#: Layers left unwrapped: the lint rules the layer map is read from, and
#: the command line, which no workload calls.
NOT_TRACED = ("lint", "cli")


def install(log: SpanLog) -> None:
    """Wrap every layer's public functions and methods."""
    layers = [name for name in layer_map() if name not in NOT_TRACED]
    replaced: Dict[int, Callable] = {}
    for module_name in layer_modules(layers):
        module = importlib.import_module(module_name)
        layer = _layer_of(module_name, layers)
        if not layer:
            continue
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module_name:
                continue
            if (inspect.isfunction(obj) and _public(attr)
                    and not inspect.isgeneratorfunction(obj)):
                wrapped = log.wrap(obj, layer, f"{layer}:{obj.__qualname__}")
                replaced[id(obj)] = wrapped
                setattr(module, attr, wrapped)
            elif inspect.isclass(obj):
                _wrap_class(log, obj, layer, module_name)
    # ``from x import f`` bound the original elsewhere: rebind every alias.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, obj in list(vars(module).items()):
            wrapped = replaced.get(id(obj))
            if wrapped is not None:
                setattr(module, attr, wrapped)


def _wrap_class(log: SpanLog, cls: type, layer: str, module_name: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if not (_public(attr)
                or (module_name, cls.__name__, attr) in PRIVATE_ENTRY_POINTS):
            continue
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            continue
        wrapped = log.wrap(fn, layer, f"{layer}:{cls.__qualname__}.{attr}")
        setattr(cls, attr, kind(wrapped) if kind is not None else wrapped)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one call stack, so the children of a span never
    overlap and the time they cover is the sum of their durations.
    """
    out = [e - s for s, e in zip(start, end)]
    for sid, up in enumerate(parent):
        if up >= 0:
            out[up] -= end[sid] - start[sid]
    return out


def layer_self_times(log: SpanLog) -> Dict[str, float]:
    """Self time summed per layer."""
    own = self_times(log.parent, log.start, log.end)
    totals: Dict[str, float] = {}
    layer_of = log.name_layer
    for sid, seconds in enumerate(own):
        layer = layer_of[log.name[sid]]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def span_durations(log: SpanLog, name: str) -> List[float]:
    """Durations of every span called ``name``."""
    key = log._ids.get(name)
    if key is None:
        return []
    return [log.end[sid] - log.start[sid]
            for sid in range(len(log)) if log.name[sid] == key]


# ----------------------------------------------------------------------
# Records scanned by trace queries
# ----------------------------------------------------------------------
class ScanCounter:
    """Counts the trace records inside each query's time window.

    The window is found by bisecting ``trace.records`` after the query
    returns, outside its span, so counting costs the query nothing.
    """

    def __init__(self) -> None:
        self.records = 0

    def install(self) -> None:
        from repro.sim.trace import Trace

        for name in SCAN_METHODS:
            fn = getattr(Trace, name)
            setattr(Trace, name, self._wrap(fn, inspect.signature(fn)))

    def _wrap(self, fn: Callable, signature: inspect.Signature) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            filters = dict(bound.arguments)
            filters.update(filters.pop("filters", {}))
            self.records += window_size(bound.arguments["self"].records,
                                        filters.get("start"), filters.get("end"))
            return out

        return counted


def window_size(records: Sequence, start, end) -> int:
    """How many time-ordered ``records`` fall in ``[start, end)``."""
    from bisect import bisect_left
    from operator import attrgetter

    key = attrgetter("time")
    lo = 0 if start is None else bisect_left(records, start, key=key)
    hi = len(records) if end is None else bisect_left(records, end, key=key)
    return max(0, hi - lo)
