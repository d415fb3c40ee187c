"""Outside-in layer trace for the benchmark.

Wraps public functions of the ``hdts`` modules from outside: each
wrapper is rebound in every ``hdts.*`` module namespace that holds the
original, so calls from inside the package are caught too.  Nothing in
the package changes; ``uninstall`` puts every original back.

A span wrapper records (name, start, end, parent) into an in-memory
list; a count-only wrapper, for hot leaves such as ``encoding.compose``,
only bumps a counter.  Some wrappers also add sizes taken from their
arguments or results.  A layer's self time is its span's duration minus
the durations of its child spans; spans nest strictly (one thread).
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable


def _counters_colimit(args, kwargs, result):
    objects = args[0]
    arrows = args[1] if len(args) > 1 else kwargs.get("arrows", ())
    return {"arrows": len(arrows), "cells_in": sum(K.size for K in objects),
            "cells_out": result[0].size}


def _text_bytes(args, kwargs, result):
    return {"out_bytes": len(result.encode("utf-8"))}


# (module, function, span name, counters from (args, kwargs, result))
SPANS: list[tuple[str, str, str, Callable | None]] = [
    ("cli", "main", "cli.main", None),
    ("serialize", "detect_kind", "serialize.load", None),
    ("serialize", "alphabet_from_json", "serialize.load", None),
    ("serialize", "hdts_from_json", "serialize.load", None),
    ("serialize", "precube_from_json", "serialize.load", None),
    ("serialize", "hdts_to_json", "serialize.dump", None),
    ("serialize", "precube_to_json", "serialize.dump", None),
    ("serialize", "dumps", "serialize.dump", _text_bytes),
    ("serialize", "hdts_to_dot", "serialize.dump", _text_bytes),
    ("serialize", "precube_to_dot", "serialize.dump", _text_bytes),
    ("ccs", "parse", "ccs.parse", None),
    ("ccs", "semantics", "ccs.semantics", None),
    ("sync", "tensor_sync", "sync.tensor_sync",
     lambda a, k, r: {"cells_out": r.size}),
    ("precube", "check_precube_map", "precube.check_precube_map", None),
    ("precube", "colimit_presheaf", "precube.colimit_presheaf", _counters_colimit),
    ("precube", "iso_check_precube", "precube.iso_check_precube",
     lambda a, k, r: {"hits": int(bool(r))}),
    ("precube", "make_precube", "precube.make_precube", None),
    ("precube", "hda_check", "precube.hda_check", None),
    ("realize", "realize", "realize.realize",
     lambda a, k, r: {"closure_added": r.closure_added}),
    ("realize", "cubify", "realize.cubify", None),
    ("realize", "cube_maps_into", "realize.cube_maps_into",
     lambda a, k, r: {"maps": len(r)}),
    ("core", "validate", "core.validate", None),
    # the package passes sets here, so the input can be measured after the call
    ("core", "coherence_closure", "core.coherence_closure",
     lambda a, k, r: {"added": len(r) - len(set(a[0]))}),
    ("core", "is_orthogonal", "core.is_orthogonal", None),
    ("core", "cube_inclusion", "core.cube_inclusion", None),
    ("core", "hom_enumerate", "core.hom_enumerate",
     lambda a, k, r: {"found": len(r)}),
]

# (module, function, counter name): counted, not timed
COUNTS: list[tuple[str, str, str]] = [
    ("encoding", "compose", "encoding.compose"),
    ("encoding", "all_encodings", "encoding.all_encodings"),
]


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # name id, start ns, end ns, parent
        self.counters: Counter = Counter()
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _span_wrapper(self, fn, name: str, extra):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        fixed_id = None if name == "ccs.semantics" else self._name_id(name)
        name_id = self._name_id

        def wrapper(*args, **kwargs):
            nid = fixed_id
            if nid is None:  # one span name per operator of the term
                nid = name_id(f"{name}.{type(args[0]).__name__}")
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counters = self.counters
        info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            counters[f"{name}.calls"] += 1
            if info is None:
                return fn(*args, **kwargs)
            before = info().misses
            result = fn(*args, **kwargs)
            counters[f"{name}.misses"] += info().misses - before
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every loaded ``hdts`` module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hdts" or n.startswith("hdts.")) and m is not None]
        wrapped = []
        for mod, attr, name, extra in SPANS:
            fn = getattr(sys.modules[f"hdts.{mod}"], attr)
            wrapped.append((fn, self._span_wrapper(fn, name, extra)))
        for mod, attr, name in COUNTS:
            fn = getattr(sys.modules[f"hdts.{mod}"], attr)
            wrapped.append((fn, self._count_wrapper(fn, name)))
        for fn, wrapper in wrapped:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def mark(self) -> int:
        """The span index where the next item starts."""
        return len(self.spans)

    def top_level_ns(self, since: int) -> int:
        """Total duration of the top-level spans recorded since ``since``."""
        return sum(end - start for _, start, end, parent in self.spans[since:] if parent == -1)

    def self_ns(self) -> dict[str, int]:
        """Self time per span name, over every span recorded."""
        child = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for k, (nid, start, end, _) in enumerate(self.spans):
            out[self.names[nid]] += end - start - child[k]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(self.names[nid] for nid, *_ in self.spans)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}
