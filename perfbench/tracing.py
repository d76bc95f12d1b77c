"""Span recording for the traced benchmark run.

Timing wrappers are installed around public functions at module boundaries
for the length of a ``with tracer.patched(...)`` block and restored after
it, so the library itself carries no tracing code. Each span records its
name, start, end, parent span and operation id; spans stay in memory until
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Tracer:
    """In-memory span store.

    A span opened in a worker thread that has no open span of its own takes
    as parent the innermost span open in the thread that created the tracer,
    which is blocked waiting for the workers (the executor in
    ``sync_distance_mc`` is the case this covers).
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return -1

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        record = [name, 0.0, 0.0, self._parent(stack), self.op_id]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, span name)`` triples.

        ``owner`` is a module or a class; classmethods stay classmethods.
        The original attributes are put back on exit.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name))
                else:
                    new = self.wrap(raw, name)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
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


def summarize(spans, op_ids, op_name="op"):
    """Aggregate the spans of operations ``op_ids`` into per-name totals,
    self times and op coverage.

    Returns a dict with ``total[name]`` (summed duration), ``self[name]``
    (duration minus the union of its child spans), ``calls[name]``, and
    ``op_s``/``covered_s``: the summed op durations and the part of them
    covered by the op's direct child spans.
    """
    children = {}
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    total, self_time, calls = {}, {}, {}
    op_s = covered_s = 0.0
    for index, (name, start, end, _, op) in enumerate(spans):
        if op not in op_ids:
            continue
        duration = end - start
        kids = [(spans[c][1], spans[c][2]) for c in children.get(index, ())]
        covered = union_length(kids)
        if name == op_name:
            op_s += duration
            covered_s += covered
            continue
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - covered
        calls[name] = calls.get(name, 0) + 1
    return {"total": total, "self": self_time, "calls": calls,
            "op_s": op_s, "covered_s": covered_s}
