"""Span tracing around qlink's public functions, installed from outside.

Each public function of the traced modules is replaced, in every qlink
module that looks it up by name, by a wrapper that records one span: name,
start and end (perf_counter_ns), the span that was running when it was
called, and the op it belongs to. Spans stay in memory until the run
writes them out. Nothing in the program changes; uninstall() puts every
original back.
"""
from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("codes", "analytic", "montecarlo", "circuits", "workload", "timing")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent span or None, op]
        self.tags: dict[int, object] = {}
        self.op = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag=None):
        """fn recording a span per call; tag(bound arguments) is kept per span."""
        signature = inspect.signature(fn) if tag else None
        local, spans, tags = self._local, self.spans, self.tags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0, 0, stack[-1] if stack else None, self.op]
            if tag:
                tags[id(span)] = tag(signature.bind(*args, **kwargs).arguments)
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self, package, tags: dict | None = None) -> None:
        """Wrap every public function of the traced modules wherever it is looked up."""
        tags = tags or {}
        modules = {name: getattr(package, name) for name in TRACED_MODULES + ("cli",)}
        modules["__init__"] = package
        for owner in TRACED_MODULES:
            module = modules[owner]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{owner}.{attr}"
                wrapper = self.wrap(name, fn, tags.get(name))
                for lookup in modules.values():
                    for key, value in list(vars(lookup).items()):
                        if value is fn:
                            self._patched.append((lookup, key, fn))
                            setattr(lookup, key, wrapper)
        cli = modules["cli"]
        self._patched.append((cli, "main", cli.main))
        cli.main = self.wrap("cli.main", cli.main)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def export(self) -> dict:
        """Spans as rows [name index, start_ns, end_ns, parent index or -1, op]."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        names = sorted({span[0] for span in self.spans})
        lookup = {name: i for i, name in enumerate(names)}
        rows = [[lookup[s[0]], s[1], s[2], index[id(s[3])] if s[3] is not None else -1, s[4]]
                for s in self.spans]
        return {"names": names, "spans": rows}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Self time per span: its duration minus the union of its children's intervals.

    spans is a sequence of (start, end, parent index or -1). Children are
    clipped to their parent and overlapping children count once.
    """
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive and self nanoseconds, and parent-name counts."""
    exported = tracer.export()
    names, rows = exported["names"], exported["spans"]
    selfs = self_times([(r[1], r[2], r[3]) for r in rows])
    stats = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "from": defaultdict(int),
                                 "from_self_ns": defaultdict(int)})
    for row, self_ns in zip(rows, selfs):
        name = names[row[0]]
        entry = stats[name]
        entry["calls"] += 1
        entry["incl_ns"] += row[2] - row[1]
        entry["self_ns"] += self_ns
        caller = names[rows[row[3]][0]] if row[3] >= 0 else ""
        entry["from"][layer_of(caller)] += 1
        entry["from_self_ns"][layer_of(caller)] += self_ns
    return stats
