"""In-memory span recorder built from wrappers around module-level functions.

Each wrapped call records one span: name, start, end, parent span and
whether it raised.  A span's self time is its duration minus the time its
direct child spans cover; calls run one after another in one thread, so
children never overlap.

Installing a wrapper rebinds every attribute, in every module given, that
holds the original function: `from .numroots import roots_from_coeffs`
copies the binding into the importing module at import time, so patching
only the defining module would miss those callers.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "failed", "outer", "note")

    def __init__(self, name: str, parent: int | None, outer: bool):
        self.name = name
        self.parent = parent
        self.outer = outer  # no enclosing span of the same name
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.failed = False
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Stats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # outermost spans only, so recursion is not counted twice


class Tracer:
    """Records spans while installed; `note(args, kwargs, result)` attaches data to a span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args=(), kwargs=None, note=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        depth = self._active.get(name, 0)
        span = Span(name, parent, depth == 0)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        self._active[name] = depth + 1
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
            self._active[name] = depth
            if parent is not None:
                self.spans[parent].child_s += span.duration
        if note is not None:
            span.note = note(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return wrapper

    def install(self, modules, targets) -> None:
        """Wrap each (module, attribute, note) target wherever `modules` bind it.

        The span name is the module's last dotted component, a dot, and
        the attribute name.
        """
        try:
            for module, attr, note in targets:
                original = getattr(module, attr)
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self.wrap(name, original, note)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def summary(self) -> dict[str, Stats]:
        out: dict[str, Stats] = {}
        for span in self.spans:
            stats = out.setdefault(span.name, Stats())
            stats.calls += 1
            stats.failed += span.failed
            stats.self_s += span.self_s
            if span.outer:
                stats.total_s += span.duration
        return out

    def ancestor(self, index: int, names) -> int | None:
        """Index of the nearest enclosing span whose name is in names."""
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name in names:
                return parent
            parent = self.spans[parent].parent
        return None
