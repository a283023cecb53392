"""Outside-in span recorder for the grwflash benchmark.

Spans are recorded around calls into grwflash's public functions, from the
benchmark's own code: a layer's function is rebound, in the module that
calls it, to a wrapper that opens a span, calls the original and closes the
span.  Nothing under ``src/`` changes.

Spans live in memory as ``(name, start, end, parent)`` rows and are written
out once, when the run ends.  A layer's self time is its span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans plus named counters for one traced run."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(_clock())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = _clock()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed while {top} is open")

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(result, args, kwargs)`` after it."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children.

        Spans open and close as a stack, so a span's children lie inside it
        and do not overlap one another.
        """
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[sid] - self.starts[sid]
        return out

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, summed self time)`` over all spans."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, self_s in zip(self.names, self.self_times()):
            totals[name][0] += 1
            totals[name][1] += self_s
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path) -> None:
        """Write every span as one CSV row: run, id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start,end\n")
            rows = zip(self.parents, self.names, self.starts, self.ends)
            for sid, (parent, name, start, end) in enumerate(rows):
                fh.write(f"{self.run_id},{sid},{parent},{name},{start!r},{end!r}\n")


@contextmanager
def rebound(bindings):
    """Temporarily set ``module.attr = value`` for ``(module, attr, value)``."""
    saved = []
    try:
        for module_name, attr, value in bindings:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
