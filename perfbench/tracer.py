"""Spans around the public functions and methods of bridgeforest's modules.

`Tracer.install()` replaces every public function, and every public method
(plus an explicit `__init__`) of every class, defined in the layer modules
with a wrapper that records one span per call: name, start, end, parent
span and the tracer's run id. Re-entrant calls of a function already on the
stack (the `MaxWeightTable.value` recursion, for instance) run unwrapped,
so only the outermost call has a span. Private helpers are not wrapped:
their time is part of their caller's span. `restore()` puts every original
object back.

Spans are kept in flat arrays until the run ends; `self_times` and
`stage_times` reduce them to per-layer numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import resource
from array import array
from time import perf_counter

LAYERS = ("treekit", "weights", "optimizer", "forestlab", "serialize", "cli")
PACKAGE = "bridgeforest"


class Tracer:
    def __init__(self, run_id: str, probes=None):
        self.run_id = run_id
        # name -> callable(tracer, args, result), run after the outermost call
        self.probes = probes or {}
        self.counts: dict[str, float] = {}
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # peak-RSS growth (KiB) while a layer is entered from another layer
        self.rss_growth_kb = dict.fromkeys(LAYERS, 0)
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _intern(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = len(self.names)
            self.name_id[name] = nid
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
            self._depth.append(0)
        return nid

    def wrap(self, name: str, fn):
        """A wrapper around fn that records a span named `name`."""
        nid = self._intern(name)
        layer = self.layer_of[nid]
        depth, stack = self._depth, self._stack
        names_layer = self.layer_of
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        probe = self.probes.get(name)
        rss = self.rss_growth_kb

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[nid]:
                return fn(*args, **kwargs)
            idx = len(start)
            up = stack[-1] if stack else -1
            entering = up < 0 or names_layer[span_name[up]] != layer
            if entering:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            depth[nid] = 1
            stack.append(idx)
            span_name.append(nid)
            parent.append(up)
            end.append(0.0)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[nid] = 0
                if entering:
                    rss[layer] += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every layer module."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    # `from .x import f` copies the reference into other modules
                    for other in modules:
                        for name, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, name, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls):
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                # dataclass constructors are value builders, called per forest
                if dataclasses.is_dataclass(cls):
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                self._patch(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(name, member))

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        """Put back every object `install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output ----------------------------------------------------------

    def spans(self):
        """Spans as (name, start, end, parent index) tuples, in start order."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent)
        ]

    def dump(self, path):
        """Write every span to `path` as columnar JSON."""
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "span_name": list(self.span_name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def exclusive_times(spans):
    """Each span's duration minus the durations of its direct children."""
    excl = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            excl[parent] -= end - start
    return excl


def self_times(spans):
    """Per-layer self time: the layer's spans minus their child spans in
    other layers (a same-layer child's time stays with the layer)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), ex in zip(spans, exclusive_times(spans)):
        out[name.split(".", 1)[0]] += ex
    return out


def stage_times(spans, stage_of):
    """Time per stage. A span named in `stage_of` starts that stage; other
    spans inherit their parent's stage. Returns {stage: {layer: seconds}}
    of exclusive time, so a nested stage's time is not counted twice."""
    stages = []
    out: dict[str, dict[str, float]] = {}
    for (name, _, _, parent), ex in zip(spans, exclusive_times(spans)):
        stage = stage_of.get(name) or (stages[parent] if parent >= 0 else None)
        stages.append(stage)
        if stage is not None:
            by_layer = out.setdefault(stage, {})
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + ex
    return out


def durations(spans, name):
    return [end - start for n, start, end, _ in spans if n == name]


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]
