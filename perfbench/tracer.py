"""In-memory span recorder used by the traced benchmark run.

Spans are recorded only by the benchmark's own code, around calls into
the program's public functions: either directly (``with tracer.span``)
or by temporarily replacing a public method or module function with a
timing wrapper (``tracer.patch``) that is removed again on ``restore``.
Nothing inside ``src/`` is edited; an untraced run installs no span
wrapper (its only wrapper notes stretch ends after
``MultiplexIndex.pump`` in ``hotspot-shards``, see ``scenarios``).

A span is ``(id, name, start, end, parent, thread)`` with times from
``time.perf_counter``.  ``parent`` is the id of the span open on the
same thread when this one started (0 at top level), so a layer's self
time is its span's duration minus what its children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, int]

_clock = time.perf_counter


class Tracer:
    """Collects spans from any thread; wrappers are installed on demand."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span(name):`` records one span around the block."""
        return _SpanContext(self, name)

    def wrap(self, fn: Callable, name: str,
             label: Optional[Callable[[Any], str]] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``, or
        ``label(result)`` when ``label`` is given and the call returned."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            span_name = name
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                if label is not None:
                    span_name = label(result)
                return result
            finally:
                t1 = _clock()
                stack.pop()
                spans.append((sid, span_name, t0, t1, parent,
                              threading.get_ident()))

        traced.__wrapped__ = fn
        return traced

    # -- temporary wrappers ----------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str,
              label: Optional[Callable[[Any], str]] = None) -> int:
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`restore`.  ``owner`` is a class, an instance or a module.
        Returns a mark for ``restore`` (the patches before this one)."""
        mark = len(self._patched)
        original = vars(owner).get(attr)
        fn = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(fn, name, label))
        return mark

    def restore(self, mark: int = 0) -> None:
        """Remove the wrappers :meth:`patch` installed since ``mark``,
        newest first (all of them by default)."""
        while len(self._patched) > mark:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def durations(self, name: str, since: int = 0) -> List[float]:
        """Durations of the spans called ``name`` recorded after the
        first ``since`` spans."""
        return [s[3] - s[2] for s in self.spans[since:] if s[1] == name]

    def totals(self, since: int = 0) -> Dict[str, float]:
        """Seconds per span name, over the spans after the first ``since``."""
        out: Dict[str, float] = defaultdict(float)
        for _, name, t0, t1, _, _ in self.spans[since:]:
            out[name] += t1 - t0
        return out


class _SpanContext:
    __slots__ = ("tracer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1]
        stack.append(self.sid)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = _clock()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.t0, t1,
                                  self.parent, threading.get_ident()))


class NullTracer:
    """Stand-in for untraced runs: ``span`` records nothing."""

    def span(self, name: str) -> "_NullContext":
        return _NULL


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL = _NullContext()
