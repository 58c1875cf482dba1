"""In-memory span tracer for the benchmark's traced run.

Wrappers replace a function under the name its calling module imported it by
(so `sftlab.training.token_loss` is traced while `sftlab.losses.token_loss`,
which the output checks call, is not). Each call records one span: name,
start, end, parent span and the op id the benchmark set. Spans stay in memory
until the run ends. Only the process that installed the wrappers records; a
forked sweep worker inherits the wrappers and calls straight through them.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self, targets):
        """targets: (owner, attribute, span name)."""
        for owner, attr, name in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(original.__func__, name))
            else:
                replacement = self.wrap(original, name)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class SpanTable:
    """Totals over the recorded spans, keyed by (name, op prefix)."""

    def __init__(self, spans: list[list]):
        self.spans = [s for s in spans if s[OP] is not None]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        # self time: duration minus the time its (sequential) children cover
        self.self_time = {id(s): s[END] - s[START] - child_time[i] for i, s in enumerate(spans)}

    def select(self, name: str, op_prefix: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name and s[OP].startswith(op_prefix)]

    def count(self, name: str, op_prefix: str) -> int:
        return len(self.select(name, op_prefix))

    def total(self, name: str, op_prefix: str) -> float:
        return sum(s[END] - s[START] for s in self.select(name, op_prefix))

    def self_total(self, name: str, op_prefix: str) -> float:
        return sum(self.self_time[id(s)] for s in self.select(name, op_prefix))
