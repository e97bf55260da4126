"""Span tracing from outside the program, and span-time arithmetic.

The tracer wraps public functions of the ``curvewalk`` modules by replacing
module attributes at run time: every module attribute bound to the original
function is pointed at the wrapper, so calls are seen whether the caller
imported the function by name or through its module. ``restore`` puts the
originals back, so untraced invocations run unmodified code.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    thread: int


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the part of it its children cover."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return (span.end - span.start) - union_length(
        (s, e) for s, e in clipped if e > s)


def busy_ratio(spans) -> float:
    """Summed span durations over the length of their union (0 if none).

    Above 1 means spans overlapped in time, e.g. chains on pool threads that
    all count time spent waiting for the interpreter lock.
    """
    covered = union_length((s.start, s.end) for s in spans)
    if covered == 0:
        return 0.0
    return sum(s.end - s.start for s in spans) / covered


class Tracer:
    """Collects spans in memory; one instance per benchmark run.

    The parent of a span is the innermost open span on its thread. A span
    opened on a thread with no open span (a pool worker) takes the innermost
    open span of the thread that created the tracer as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"),
                                   parent, self.invocation, tid))
            stack.append(idx)
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans[idx].end = end
                stack.pop()

    def wrap(self, fn, namer):
        """``fn`` recording one span per call, named by ``namer(bound_args)``."""
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span(namer(bound.arguments)):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets, package="curvewalk"):
        """Wrap each ``(module, attribute, namer)`` target everywhere it is bound.

        Returns a function that restores every replaced attribute.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        replaced = []
        for module, attr, namer in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, namer)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        replaced.append((mod, name, original))

        def restore():
            for mod, name, original in reversed(replaced):
                setattr(mod, name, original)

        return restore

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def children_of(spans, idx):
    return [s for s in spans if s.parent == idx]
