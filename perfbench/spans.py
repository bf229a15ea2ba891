"""Spans and counters recorded from outside the program.

A span is taken by replacing a name with a timing wrapper where its
callers resolve it: a module global for a function called by name (for
example ``trainer.ma_exp_ix_batch``, which ``trainer.process_layer``
calls, not ``cce.ma_exp_ix_batch``) or a class attribute for a method.
Nothing inside ``src/`` changes. Spans and counters stay in memory and are
written out once, when the worker ends.

All times come from one :class:`Clock` that stops while the benchmark's
own checks run, so spans and end-to-end times leave the checks out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Clock:
    """``time.perf_counter`` minus the time spent inside :meth:`paused`."""

    def __init__(self):
        self._paused_total = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused_total

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused_total += time.perf_counter() - t0


class Tracer:
    """In-memory span list: (name, start, end, parent index or -1)."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._undo: list = []

    def count(self, name: str, amount: float = 1.0):
        self.counts[name] = self.counts.get(name, 0.0) + amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock.now(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock.now()

    def wrap(self, owner, attr: str, name: str, counter=None):
        """Time every call of ``owner.attr`` as span ``name``.

        ``counter(args, kwargs, result)`` may return a dict of counts to
        add after each call.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.count(key, amount)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, fn):
        """Set ``owner.attr`` to ``fn`` until :meth:`unwrap_all`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def unwrap_all(self):
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    def totals(self) -> dict:
        """Inclusive seconds per span name; a span nested in one of the
        same name is not counted twice."""
        out: dict = {}
        for name, start, end, parent in self.spans:
            p = parent
            nested = False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def child_total(self, parent_name: str) -> float:
        """Seconds covered by the direct children of spans ``parent_name``."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(end - start for _, start, end, parent in self.spans
                   if parent in parents)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}
