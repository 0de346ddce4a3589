"""Spans recorded in memory around calls into the program's modules.

The benchmark installs wrappers on module attributes of ``sfanas`` (the
program is not edited). Each call of a wrapped function records one span:
name, tag, parent span and start/end times from ``time.perf_counter``.
Spans are kept in a list and written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Span store plus the wrappers that feed it.

    A span is ``[name, tag, parent, start, end]``; ``parent`` is the index
    of the enclosing span or -1 for a root. Recording happens only while
    ``enabled`` is true, so the benchmark's own checks leave no spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str, tag) -> list:
        rec = [name, tag, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        rec = self._open(name, tag)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, tag=None):
        """``fn`` with a span around every call; ``tag(args, kwargs)`` labels it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name, tag(args, kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def patch(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` by its wrapped form until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, tag))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def roots(self) -> list[int]:
        """Root span index of every span."""
        root = []
        for i, (_, _, parent, _, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def under(self, root: int, name: str) -> list[list]:
        """Spans called ``name`` below root span ``root``, in start order."""
        roots = self.roots()
        return [s for i, s in enumerate(self.spans) if roots[i] == root and s[0] == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, tag, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "tag": tag, "parent": parent,
                                     "start": start, "end": end}) + "\n")
