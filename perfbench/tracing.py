"""Span tracing for the traced benchmark run.

``install`` wraps every public module-level function of the kneserlab
layers and rebinds the wrapper wherever the original is bound: in the
defining module and in every kneserlab module that imported the name.
Spans stay in memory as ``[name, start, end, parent]`` lists; ``summary``
folds them into per-function call counts, inclusive times and self times
once, at the end. Timed runs never call ``install``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("constructions", "invariants", "chromatic", "prooflab", "experiments", "cache", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.alt_keys: set = set()
        self.alt_repeats = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def region(self, label: str):
        """A benchmark-side span, so that layer spans can be attributed to
        what the benchmark was doing (for example ``bench.unsat``)."""
        rec = ["bench." + label, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def summary(self) -> dict:
        """Per function: [calls, inclusive seconds, self seconds]. Inclusive
        time counts only calls with no ancestor of the same name. Also the
        inclusive times split by the enclosing benchmark region, and the
        time covered by invariants and chromatic calls together."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        names: dict[str, list] = {}
        regions: dict[str, float] = {}
        solver_cover = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            row = names.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += dur - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                row[1] += dur
                region = next((a for a in ancestors if a.startswith("bench.")), "")
                key = f"{name}@{region}"
                regions[key] = regions.get(key, 0.0) + dur
            if name.split(".")[0] in ("invariants", "chromatic") and not any(
                a.split(".")[0] in ("invariants", "chromatic") for a in ancestors
            ):
                solver_cover += dur
        return {
            "names": names,
            "regions": regions,
            "solver_cover_s": solver_cover,
            "alt_min_repeat_calls": self.alt_repeats,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every loaded kneserlab layer module and
    rebind each wrapper in every kneserlab module holding the original."""
    loaded = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "kneserlab"}
    originals: dict[int, object] = {}
    for layer in LAYERS:
        module = loaded.get("kneserlab." + layer)
        if module is None:
            continue
        for attr, fn in _public_functions(module):
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            if layer == "invariants" and attr == "alt_min":
                wrapped = _count_repeats(tracer, wrapped)
            originals[id(fn)] = wrapped
    for module in loaded.values():
        for attr, obj in list(vars(module).items()):
            wrapped = originals.get(id(obj))
            if wrapped is not None:
                setattr(module, attr, wrapped)
    cache_mod = loaded.get("kneserlab.cache")
    if cache_mod is not None:
        store = cache_mod.ResultCache
        get = store.get

        def counted_get(self, key):
            value = get(self, key)
            if value is None:
                tracer.cache_misses += 1
            else:
                tracer.cache_hits += 1
            return value

        store.get = counted_get


def _count_repeats(tracer: Tracer, fn):
    """Count alt_min calls whose (H, r, mode, seed) came up before in this
    interpreter: the calls its memo can serve."""

    @functools.wraps(fn)
    def counted(H, r, mode="exact", seed=0):
        key = (H.n, H.edge_masks, r, mode, seed)
        if key in tracer.alt_keys:
            tracer.alt_repeats += 1
        tracer.alt_keys.add(key)
        return fn(H, r, mode, seed)

    return counted
