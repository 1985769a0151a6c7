"""Outside-in tracing of the nidtopics layers.

The tracer never edits the package.  It replaces a public function at the
module attribute where its caller looks it up (``learn`` finds ``whiten`` in
``nidtopics.decompose``'s globals, ``density`` is looked up in
``nidtopics.mcmc``, and so on), records one span per call and puts the
original back when tracing ends.  A target attribute that the package no
longer has is listed in ``absent`` instead of failing the run.

Spans are (name, start, end, parent) kept in memory; ``write`` stores them
as JSON lines.  A span's self time is its duration minus the union of its
children's intervals.  While ``tracemalloc`` is tracing, each span also
records the peak of tracemalloc-tracked allocations above what was live when
it started; memory that native code allocates outside Python's allocator
(LAPACK workspace, for one) is not in that figure.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    mem_start: int = 0
    mem_peak: int = 0
    info: dict = field(default_factory=dict)

    @property
    def peak_bytes(self) -> int:
        return self.mem_peak - self.mem_start


@dataclass(frozen=True)
class Target:
    """Function ``attr`` as looked up in module ``module``, traced as ``span``.

    ``on_result(span_info, result)`` may copy facts out of the return value.
    """

    module: str
    attr: str
    span: str
    on_result: Optional[Callable[[dict, object], None]] = None


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields its ``info`` dict."""
        parent = self._stack[-1] if self._stack else None
        rec = Span(name=name, start=0.0, parent=parent)
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                top = self.spans[parent]
                top.mem_peak = max(top.mem_peak, peak)
            tracemalloc.reset_peak()
            rec.mem_start = rec.mem_peak = cur
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec.info
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if tracemalloc.is_tracing():
                rec.mem_peak = max(rec.mem_peak, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    top = self.spans[parent]
                    top.mem_peak = max(top.mem_peak, rec.mem_peak)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.span) as info:
                result = fn(*args, **kwargs)
                if target.on_result is not None:
                    target.on_result(info, result)
                return result
        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Patch every target for the duration of the block."""
        saved: List[Tuple[object, str, Callable]] = []
        try:
            for t in targets:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr, None)
                if not callable(original):
                    name = f"{t.module}.{t.attr}"
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                saved.append((module, t.attr, original))
                setattr(module, t.attr, self.wrap(original, t))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": own,
                    "peak_bytes": s.peak_bytes, **s.info}) + "\n")
            for name in self.absent:
                fh.write(json.dumps({"absent": name}) + "\n")


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the union of its children, clipped to it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(lo, s.start), min(hi, s.end))
                   for lo, hi in children.get(i, ()) if hi > s.start and lo < s.end]
        out.append((s.end - s.start) - union_length(clipped))
    return out


@dataclass
class Summary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    peak_bytes: int = 0
    info: Dict[str, float] = field(default_factory=dict)


def summarize(spans: List[Span]) -> Dict[str, Summary]:
    """Per span name: call count, total and self time, largest peak, summed info."""
    out: Dict[str, Summary] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, Summary())
        agg.calls += 1
        agg.total_s += s.end - s.start
        agg.self_s += own
        agg.peak_bytes = max(agg.peak_bytes, s.peak_bytes)
        for key, val in s.info.items():
            agg.info[key] = agg.info.get(key, 0) + val
    return out
