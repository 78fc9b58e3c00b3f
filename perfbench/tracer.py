"""A span tracer that wraps module attributes for the length of a traced run.

Each target names a function by the module attribute its callers look it up
under (a function imported with ``from x import f`` is looked up in the
importing module, so it is a separate target there). While installed, every
call records a span: name, layer, call site, start, end, parent span and
thread, plus an optional payload computed from the arguments and result.
Spans stay in memory; :meth:`Tracer.restore` puts every original attribute
back.

A span opened on a thread with no open span of its own (a thread-pool worker)
takes as parent the innermost open span of the thread that installed the
tracer, which is the call that handed out the work.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    name: str                           # span name, e.g. "filters.finish_step"
    layer: str
    payload: Optional[Callable] = None  # (args, kwargs, result) -> value kept with the span
    result: Optional[Callable] = None   # (tracer, result) -> object handed back to the caller

    @property
    def site(self) -> str:
        return self.module.__name__.rsplit(".", 1)[-1]


class Span(NamedTuple):
    sid: int
    name: str
    layer: str
    site: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    payload: object


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.missing = []
        self._saved = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        self._owner = self._stack()
        for t in self.targets:
            original = getattr(t.module, t.attr, None)
            if original is None:
                self.missing.append(f"{t.module.__name__}.{t.attr}")
                continue
            self._saved.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self.wrap(original, t.name, t.layer, t.site, t.payload, t.result))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer, site="", payload=None, result=None):
        clock = time.perf_counter
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._owner:
                parent = self._owner[-1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            out = None
            done = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                end = clock()
                stack.pop()
                value = payload(args, kwargs, out) if payload is not None and done else None
                spans.append(Span(sid, name, layer, site, start, end, parent, threading.get_ident(), value))
            return result(self, out) if result is not None else out

        return traced


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, lo), min(b, s.end)
            if b > a:
                covered += b - a
                lo = b
        out[s.sid] = (s.end - s.start) - covered
    return out


def outermost(spans, names) -> list:
    """Spans named in names that have no ancestor named in names."""
    names = set(names)
    covered = set()   # ids of named spans and of spans below one
    out = []
    for s in sorted(spans, key=lambda s: s.sid):   # a parent opens, so is numbered, first
        below = s.parent in covered
        if s.name in names:
            covered.add(s.sid)
            if not below:
                out.append(s)
        elif below:
            covered.add(s.sid)
    return out


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("sid,name,layer,site,start,end,parent,thread\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.sid},{s.name},{s.layer},{s.site},{s.start!r},{s.end!r},{parent},{s.thread}\n")
