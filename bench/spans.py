"""In-memory span tracer that wraps openconvex's public functions from outside.

A span is (name, start, end, parent, request, tags).  Self time is a span's
duration minus the time its traced children cover.  Hot per-point calls are
not given spans: each target marked hot keeps a call count and a total time,
and that time is still subtracted from the enclosing span's self time.

Wrapping replaces the function object in every ``openconvex`` module that
refers to it, because modules import each other's functions by name
(``checks`` imports ``global_bound_interval`` from ``bounds``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: str
    self_s: float
    tags: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and hot-call aggregates while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}      # name -> [calls, total_s]
        self.request = ""
        self._stack: list[list] = []        # [span index, child time]
        self._saved: list[tuple[dict, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, targets) -> None:
        """targets: iterable of (module, attr, hot, tag_fn)."""
        for module, attr, hot, tag_fn in targets:
            original = getattr(module, attr)
            wrapper = (self._hot_wrapper(f"{_short(module)}.{attr}", original) if hot
                       else self._span_wrapper(f"{_short(module)}.{attr}", original, tag_fn))
            for mod in _package_modules(module):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((vars(mod), name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._saved):
            namespace[name] = original
        self._saved.clear()

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn, tag_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            span = Span(name, perf_counter(), 0.0, parent, self.request, 0.0)
            spans.append(span)
            stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                _, child = stack.pop()
                span.self_s = span.dur - child
                if stack:
                    stack[-1][1] += span.dur
            if tag_fn is not None:
                span.tags = tag_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, name, fn):
        acc = self.hot.setdefault(name, [0, 0.0])
        stack = self._stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    stack[-1][1] += dt

        counted.__wrapped__ = fn
        return counted

    # -- queries --------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def hot_totals(self, prefix: str) -> tuple[int, float]:
        calls = sum(v[0] for k, v in self.hot.items() if k.startswith(prefix))
        total = sum(v[1] for k, v in self.hot.items() if k.startswith(prefix))
        return calls, total

    def dump(self, path: str) -> None:
        doc = {
            "spans": [[s.name, s.start, s.end, s.parent, s.request, s.self_s, s.tags]
                      for s in self.spans],
            "hot": self.hot,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _package_modules(module):
    root = module.__name__.split(".", 1)[0]
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == root or name.startswith(root + "."))]
