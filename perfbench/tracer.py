"""Per-layer tracing for the benchmark's traced pass.

Wrappers are installed from outside, on every eqgym module namespace
that holds the function (``evaluate`` is imported by name into
``environment`` and ``evaluation``, for instance) and on the classes whose
methods are traced, and removed afterwards.  Each wrapper records one
span per outermost call: a function that recurses through its module
global (``canonicalize``, ``render``) is timed once per top-level call.
Spans are kept in memory as per-layer lists of durations.

The tracer is not thread-safe; the traced pass runs sessions serially.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = defaultdict(list)  # seconds
        self.counts: Counter = Counter()
        self.by_key: dict[str, list[float]] = defaultdict(list)
        # Time spent in hooks; subtracted from every span open around them.
        self._hook_time = 0.0

    def wrap(self, layer: str, fn, hook=None):
        """A wrapper timing outermost calls of fn as `layer`.

        hook(tracer, args, kwargs, result, error, seconds) runs after the
        call, outside the span and outside every enclosing span.
        """
        depth = 0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            depth = 1
            hooked = self._hook_time
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                depth = 0
                seconds = clock() - start - (self._hook_time - hooked)
                self.spans[layer].append(seconds)
                if hook is not None:
                    began = clock()
                    hook(self, args, kwargs, result, error, seconds)
                    self._hook_time += clock() - began

        traced.__wrapped__ = fn
        return traced


class Installed:
    """Wrappers patched into eqgym; `remove()` puts every original back."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def function(self, tracer: Tracer, module, name: str, layer: str, hook=None):
        original = getattr(module, name)
        wrapper = tracer.wrap(layer, original, hook)
        for owner in _eqgym_modules():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def method(self, tracer: Tracer, cls, name: str, layer: str, hook=None):
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, tracer.wrap(layer, original, hook))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def _eqgym_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "eqgym" or name.startswith("eqgym."))
    ]


def leftover_wrappers() -> list[str]:
    """Names in eqgym that still hold a tracer wrapper (should be none)."""
    found = []
    for module in _eqgym_modules():
        for attr, value in vars(module).items():
            candidates = [value]
            if isinstance(value, type):
                candidates = list(vars(value).values())
            if any(getattr(c, "__qualname__", "").startswith("Tracer.wrap.")
                   for c in candidates):
                found.append(f"{module.__name__}.{attr}")
    return found
