"""Span tracing installed from outside the package.

Each traced function is replaced, wherever ``gecdiff`` looks it up, by a
wrapper that records a span (name, start, end, parent) in flat arrays.  A
span's self time is its duration minus the time its child spans cover.

The wrapper reads the clock four times: on entry, just before and just
after the real call, and on exit.  The call itself is the span.  The
wrapper's own bookkeeping (including the counters below) is charged to the
``trace`` bucket, not to the parent, so the self times of all layers, the
tracer's own time and the time outside any span add up to the wall time.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
import time
from array import array


def gecdiff_modules():
    import gecdiff

    names = [f"gecdiff.{m.name}" for m in pkgutil.iter_modules(gecdiff.__path__)]
    return [importlib.import_module(n) for n in names]


def patch(original, replacement) -> list:
    """Rebind every ``gecdiff`` module global that is ``original``; return an undo list."""
    undo = []
    for mod in gecdiff_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    if not undo:
        raise RuntimeError(f"{original!r} is bound in no gecdiff module")
    return undo


def patch_attr(owner, name: str, replacement) -> list:
    undo = [(owner, name, owner.__dict__[name])]
    setattr(owner, name, replacement)
    return undo


def unpatch(undo: list) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


class LatencyProbe:
    """Times each call of one function, with no span bookkeeping."""

    def __init__(self):
        self.samples: list[float] = []

    def wrap(self, fn):
        clock = time.perf_counter
        append = self.samples.append

        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            append(clock() - t0)
            return result

        return timed


class Tracer:
    """In-memory span store with per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.overhead_s = 0.0
        self.covered_s = 0.0  # time inside top-level spans, tracer time included

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    def wrap(self, name: str, fn, after=None):
        """Span-recording wrapper; ``after(args, result, start, end)`` runs as tracer time."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            t_in = clock()
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            starts[idx] = t0
            ends[idx] = t1
            tracer.calls[nid] += 1
            tracer.self_s[nid] += (t1 - t0) - frame[1]
            if after is not None:
                after(args, result, t0, t1)
            t_out = clock()
            tracer.overhead_s += (t_out - t_in) - (t1 - t0)
            if stack:
                stack[-1][1] += t_out - t_in
            else:
                tracer.covered_s += t_out - t_in
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the four arrays as raw bytes."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        tmp = path + ".part"
        with open(tmp, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        os.replace(tmp, path)
