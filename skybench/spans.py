"""In-memory span recorder for the traced benchmark runs.

The recorder wraps public functions of the program from outside: each
call becomes one span ``(name, start, end, parent, count)`` held in a
list in memory; the owner writes the list out once, at the end.
``count`` is the amount of work the call did (1 by default, or
whatever the wrap's ``count`` callable reads off the result), so
ratios are measured where the work happens.

Self time of a span is its duration minus the part of its interval
covered by its direct children; :func:`self_time` computes it from the
union of the child intervals, so overlapping or clipped children are
never subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from typing import Callable, Iterable, Optional, Union

#: one recorded call: [name, start, end, parent index (-1 = root), count]
Span = list

Name = Union[str, Callable[[tuple, dict], str]]


def covered(intervals: Iterable[tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals."""
    start, end = span[1], span[2]
    return (end - start) - covered(((c[1], c[2]) for c in children),
                                   start, end)


class SpanRecorder:
    """Wraps callables, keeps their spans in memory, restores them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, 1]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self, span: Span, result, count) -> None:
        span[2] = self.clock()
        self._stack().pop()
        if count is not None:
            span[4] = count(result)

    def instrument(self, fn: Callable, name: Name,
                   count: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``name`` is a string or a callable ``(args, kwargs) -> str``;
        ``count`` maps the call's result to its work count.  Coroutine
        functions get a coroutine wrapper; its span is only nested
        correctly when the coroutine does not suspend while other
        wrapped calls run.
        """
        def span_name(args, kwargs) -> str:
            return name if isinstance(name, str) else name(args, kwargs)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = self._open(span_name(args, kwargs))
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    self._close(span, result, count)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(span_name(args, kwargs))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span, result, count)
        return wrapper

    def wrap(self, owner, attr: str, name: Name,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module function, method, static- or
        class-method) with a recording wrapper; :meth:`unwrap_all`
        puts the original object back."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(
                self.instrument(original.__func__, name, count))
        elif isinstance(original, classmethod):
            replacement = classmethod(
                self.instrument(original.__func__, name, count))
        else:
            replacement = self.instrument(original, name, count)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span[0] == name]

    def children(self) -> list[list[Span]]:
        """Direct children of every span, by span index."""
        out: list[list[Span]] = [[] for _ in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                out[span[3]].append(span)
        return out

    def self_times(self, name: str) -> list[float]:
        """Self time of every span called ``name``, in call order."""
        kids = self.children()
        return [self_time(span, kids[i])
                for i, span in enumerate(self.spans) if span[0] == name]

    def has_ancestor(self, index: int, names: set[str]) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost_total(self, names: set[str], under: str) -> float:
        """Seconds in spans named in ``names`` that run inside an
        ``under`` span, counting nested members of ``names`` once."""
        total = 0.0
        for i, span in enumerate(self.spans):
            if (span[0] in names and self.has_ancestor(i, {under})
                    and not self.has_ancestor(i, names)):
                total += span[2] - span[1]
        return total


def durations(spans: Iterable[Span]) -> list[float]:
    return [span[2] - span[1] for span in spans]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0 for no values (a layer that never ran)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
