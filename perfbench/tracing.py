"""Span tracing at the boundaries between slotshare modules.

The benchmark never edits the package.  For a traced call it replaces, from
outside, every reference that a ``slotshare`` module holds to a boundary
function (a function through which one module calls another) with a wrapper
that records a span: its name, start, end, the span that caused it and
optional counters.  Spans stay in memory; ``summarize`` turns them into
per-name call counts, total and self seconds once the call has finished.

A span's self time is its duration minus the part of that interval that its
child spans cover.  Children started by a thread pool are parented to the
span that submitted them, so a fan-out's self time is the time it spent
neither waiting for nor running its tasks' traced work.

A target that no longer exists (a function renamed or removed by a later
change) is listed in ``Boundaries.absent`` instead of failing the run.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = 0
PACKAGE = "slotshare"


class Tracer:
    """Collects spans from every thread for one traced call."""

    def __init__(self):
        # (span id, parent id, name, start, end, counters or None)
        self.spans = []
        self.uncountable = set()
        self._ids = itertools.count(ROOT + 1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [ROOT]
        return stack

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span; returns its result."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((ROOT, None, "root", start, time.perf_counter(), None))

    def wrap(self, name, fn, count=None):
        """Wrapper recording one span per call of ``fn``.

        ``count(args, result)`` returns a dict of counters for the span; a
        counter that cannot be computed marks the name as uncountable.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counters = None
                if done and count is not None:
                    try:
                        counters = count(args, result)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        self.uncountable.add(name)
                self.spans.append((span_id, parent, name, start, end, counters))

        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose tasks inherit the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]

                def adopted(*a, **k):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(adopted, *args, **kwargs)

        return TracedPool


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Boundaries:
    """Context manager installing a tracer's wrappers on boundary targets.

    ``targets`` is a sequence of ``(span name, module name, attribute path,
    counter or None)``.  A dotted attribute path names a method on a class
    of that module; a plain name is a module-level function, replaced in
    every module of the package that refers to it.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self.absent = []
        self._restore = []

    def _replace_everywhere(self, original, replacement):
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, replacement)

    def __enter__(self):
        for name, module_name, path, count in self.targets:
            module = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.tracer.wrap(name, original, count)
            if owner_path:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        self._replace_everywhere(ThreadPoolExecutor, self.tracer.pool_class())
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def summarize(spans):
    """Per-name aggregates: calls, total_s, self_s, durations and counters."""
    children = {}
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, name, start, end, counters in spans:
        entry = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "counters": {}}
        )
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(children.get(span_id, ()), start, end)
        entry["durations"].append(duration)
        for key, value in (counters or {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return out
