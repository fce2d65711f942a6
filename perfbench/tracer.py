"""Spans and counts recorded from outside the program.

A `Tracer` replaces a function or method of a growthlab layer with a
wrapper, in every growthlab module that holds a reference to it, so the
callers' own lookups reach the wrapper.  Each call records one span
(name, start, end, parent index) and, optionally, counts taken from its
arguments.  Spans stay in memory until `write` is called.  Nothing in the
program itself is edited: the wrappers live only in the traced process.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps


def _holders(obj):
    """(module, attribute) pairs of growthlab modules that bind obj."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "growthlab" or name.startswith("growthlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is obj:
                out.append((mod, attr))
    return out


class Tracer:
    """Wraps layer callables; `timed=False` keeps counts but records no spans."""

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.spans: list[list] = []        # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        if name is None or not self.timed:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, args, kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name, fn, count):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer.counts, args, kwargs)
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def patch_function(self, module, attr, name, count=None, holders=None,
                       build=None):
        """Wrap module.attr wherever growthlab binds it (or only in holders).

        name None counts without a span; build(orig) supplies a custom wrapper.
        """
        orig = getattr(module, attr)
        new = build(orig) if build is not None else self._wrapper(name, orig, count)
        for mod, key in holders if holders is not None else _holders(orig):
            setattr(mod, key, new)

    def patch_method(self, cls, attr, name, count=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrapper(name, raw.__func__, count))
        else:
            new = self._wrapper(name, raw, count)
        setattr(cls, attr, new)

    def patch_module(self, module, prefix):
        """Wrap every public function and method defined in module."""
        for attr, val in list(vars(module).items()):
            if attr.startswith("_") or getattr(val, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(val):
                self.patch_function(module, attr, f"{prefix}.{attr}")
            elif inspect.isclass(val):
                for mattr, mval in list(vars(val).items()):
                    if not mattr.startswith("_") and (
                            inspect.isfunction(mval)
                            or isinstance(mval, (classmethod, staticmethod))):
                        self.patch_method(val, mattr, f"{prefix}.{attr}.{mattr}")

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def inclusive(self, name) -> float:
        """Time under spans called name, counting nested repeats once."""
        total = 0.0
        for n, start, end, parent in self.spans:
            if n != name:
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (name, *_), s in zip(self.spans, self.self_times()):
            out[name] = out.get(name, 0.0) + s
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
