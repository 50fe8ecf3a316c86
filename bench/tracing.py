"""Span tracing from outside the program.

``Tracer.install`` replaces the public functions of the compgen modules with
wrappers that record a span (name, start, end, parent) per call.  It also
replaces the names other modules bound with ``from .x import y``, so that a
call like ``evaluation.parse_sparql`` is seen as ``sparql.parse_sparql``.
Spans live in flat arrays until ``take`` hands them over.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from contextlib import contextmanager

# Functions whose first argument is a file: the wrapper also counts its bytes.
FILE_READERS = ("data.load_dataset", "data.load_predictions")


class Spans:
    """One batch of finished spans: parallel arrays, parents before children."""

    def __init__(self, names, name, start, end, parent, counters):
        self.names, self.name = names, name
        self.start, self.end, self.parent = start, end, parent
        self.counters = counters


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.enabled = False
        self._reset()

    def _reset(self):
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        i = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(i)

    def take(self) -> Spans:
        """Hand over the spans recorded so far and start a new batch."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans = Spans(self.names, self.name, self.start, self.end, self.parent,
                      self.counters)
        self._reset()
        return spans

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        reads_file = name in FILE_READERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Direct recursion stays inside the outer span.
            if not self.enabled or (self._stack and self.name[self._stack[-1]] == nid):
                return fn(*args, **kwargs)
            if reads_file:
                key = name + ".bytes"
                self.counters[key] = self.counters.get(key, 0) + os.path.getsize(args[0])
            i = self.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(i)

        return traced

    def install(self, modules) -> None:
        """Wrap every public function defined in one of ``modules`` wherever
        one of them binds it, and start recording.  Generator functions are
        left alone: calling one does no work, so its span would be empty."""
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ not in short
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short[fn.__module__]}.{fn.__name__}"
                self._installed.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name))
        self.enabled = True

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()
        self.enabled = False


def self_times(spans: Spans) -> list:
    """Self time of every span: its duration minus the durations of its
    direct children.  Spans nest (one thread, one stack), so the children
    of a span are disjoint and lie inside it."""
    out = [e - s for s, e in zip(spans.start, spans.end)]
    for i, p in enumerate(spans.parent):
        if p >= 0:
            out[p] -= spans.end[i] - spans.start[i]
    return out


def roots(spans: Spans) -> list:
    """Index of the outermost span above each span (itself for a root)."""
    out = []
    for i, p in enumerate(spans.parent):
        out.append(i if p < 0 else out[p])
    return out


def summarize(spans: Spans) -> dict:
    """{"all": {name: (calls, total s, self s)}, "by_root": {root span name:
    {name: (calls, total s, self s)}}}, where total is inclusive time."""
    selfs = self_times(spans)
    root = roots(spans)
    names = spans.names
    total: dict = {}
    by_root: dict = {}
    for i, nid in enumerate(spans.name):
        name = names[nid]
        dur = spans.end[i] - spans.start[i]
        for table in (total, by_root.setdefault(names[spans.name[root[i]]], {})):
            calls, inc, slf = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, inc + dur, slf + selfs[i])
    return {"all": total, "by_root": by_root}
