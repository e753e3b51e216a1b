"""Timing proxies around the calls into each layer, and span arithmetic.

A :class:`Tracer` replaces a method on a class (or a function in a
module) with a proxy that records one span per call: an id, a name, the
start and end on ``CLOCK_MONOTONIC`` (which is system-wide on Linux, so
spans from forked workers and from the client share one clock), the id
of the enclosing span in the same thread, the thread, and an optional
dict of counts taken from the call. Spans stay in memory; a process
writes its own out with :meth:`Tracer.dump`.

The rest of the module is the arithmetic the benchmark's tests pin:

- a span's *self time* is its duration minus the part of it that the
  union of its children covers (:func:`covered_length`);
- a request's spans from another process are attached to the client
  span by the pinned worker pid and the request's sequence number
  (:func:`attach_remote`);
- per request, the self times of every span in its tree add up to the
  client-observed time; what does not is reported as unattributed
  (:func:`reconcile`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

CLOCK: Callable[[], float] = time.monotonic


@dataclass
class Span:
    """One recorded call (times in seconds on ``CLOCK_MONOTONIC``)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    thread: int = 0
    pid: int = 0
    extra: dict[str, Any] | None = None
    children: list["Span"] = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from proxies installed on classes and modules.

    Install proxies before forking: children inherit them, call
    :meth:`reset` when they start, and :meth:`dump` before they exit.
    """

    def __init__(self) -> None:
        self.records: list[list[Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, nest: bool = True) -> list[Any]:
        """Start a span; ``nest=False`` records it as a root that pushes
        nothing (for coroutines, whose thread is shared)."""
        stack = self._stack()
        record = [
            next(self._ids),
            name,
            CLOCK(),
            None,
            stack[-1] if stack else None,
            threading.get_ident(),
            None,
        ]
        if not nest:
            record[4] = None
        self.records.append(record)
        if nest:
            stack.append(record[0])
        return record

    def close(self, record: list[Any], nest: bool = True) -> None:
        record[3] = CLOCK()
        if nest:
            self._stack().pop()

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the harness's own)."""
        return _SpanContext(self, name)

    # -- proxies -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., dict[str, Any] | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a proxy recording span *name*.

        *before(args, kwargs)* runs before the start stamp and its value
        is passed on; *after(state, args, kwargs, result)* runs after the
        end stamp and returns the span's counts. Neither is timed in the
        span itself.
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def proxy(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before is not None else None
            record = tracer.open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(record)
                if after is not None:
                    record[6] = after(state, args, kwargs, result)

        setattr(owner, attr, kind(proxy) if kind is not None else proxy)
        self._patches.append((owner, attr, raw, own))

    def wrap_async(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[..., dict[str, Any] | None] | None = None,
    ) -> None:
        """Like :meth:`wrap` for a coroutine method; its span is a root
        (no thread-local nesting) and *before* supplies its counts."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        async def proxy(*args: Any, **kwargs: Any) -> Any:
            extra = before(args, kwargs) if before is not None else None
            record = tracer.open(name, nest=False)
            record[6] = extra
            try:
                return await raw(*args, **kwargs)
            finally:
                tracer.close(record, nest=False)

        setattr(owner, attr, proxy)
        self._patches.append((owner, attr, raw, True))

    def wrap_enter(self, owner: Any, attr: str, name: str) -> None:
        """Proxy a method returning a context manager: the span covers
        only its ``__enter__`` (the wait to get in)."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def proxy(*args: Any, **kwargs: Any) -> Any:
            return _TimedEnter(tracer, name, raw(*args, **kwargs))

        setattr(owner, attr, proxy)
        self._patches.append((owner, attr, raw, True))

    def uninstall(self) -> None:
        """Restore every proxied attribute, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------------

    def reset(self) -> None:
        self.records = []
        self._local = threading.local()

    def spans(self) -> list[Span]:
        """This process's spans so far."""
        return [_span(record, os.getpid()) for record in list(self.records)]

    def dump(self, path: str | os.PathLike) -> None:
        payload = {"pid": os.getpid(), "records": self.records}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.record: list[Any] | None = None

    def __enter__(self) -> "_SpanContext":
        self.record = self._tracer.open(self._name)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self.record is not None
        self._tracer.close(self.record)


class _TimedEnter:
    def __init__(self, tracer: Tracer, name: str, manager: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._manager = manager

    def __enter__(self) -> Any:
        record = self._tracer.open(self._name)
        try:
            return self._manager.__enter__()
        finally:
            self._tracer.close(record)

    def __exit__(self, *exc_info: Any) -> Any:
        return self._manager.__exit__(*exc_info)


def _span(record: Sequence[Any], pid: int) -> Span:
    ident, name, start, end, parent, thread, extra = record
    return Span(ident, name, start, end, parent, thread, pid, extra)


def load_dump(path: str | os.PathLike) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return [_span(record, payload["pid"]) for record in payload["records"]]


# -- arithmetic ---------------------------------------------------------------


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span) -> float:
    """*span*'s duration minus what the union of its children covers."""
    covered = covered_length(
        ((child.start, child.end) for child in span.children),
        span.start,
        span.end,
    )
    return span.duration - covered


def link(spans: Iterable[Span]) -> list[Span]:
    """Fill ``children`` from ``parent`` ids (within one process);
    return the roots in start order."""
    by_id = {span.id: span for span in spans}
    roots: list[Span] = []
    for span in by_id.values():
        span.children = []
    for span in sorted(by_id.values(), key=lambda s: (s.start, s.id)):
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            roots.append(span)
        else:
            parent.children.append(span)
    return roots


def attach_remote(
    clients: Sequence[Span],
    remote_roots: dict[int, Sequence[Span]],
    match_name: str,
) -> int:
    """Attach each process's root spans under the client requests.

    A client span carries ``extra = {"pid": p, "seq": s}``: the request
    went over the connection pinned to worker *p* and carried sequence
    number *s*. Every root span of *p* that starts inside the client
    span's interval belongs to that request; within the request it nests
    under the innermost other such root whose interval holds its start
    (a coroutine span holds the executor-thread span it awaited), else
    directly under the client span. The request is *matched* when
    exactly one attached root is a *match_name* span whose ``seq``
    equals the client's. Returns the number of matched requests.
    """
    starts = {
        pid: [root.start for root in roots] for pid, roots in remote_roots.items()
    }
    matched = 0
    for client in clients:
        pid = client.extra["pid"]
        roots = remote_roots.get(pid, ())
        lo = bisect.bisect_left(starts.get(pid, []), client.start)
        hi = bisect.bisect_right(starts.get(pid, []), client.end)
        inside = list(roots[lo:hi])
        for root in inside:
            holders = [
                other
                for other in inside
                if other is not root
                and other.start <= root.start <= other.end
                and other.duration >= root.duration
            ]
            parent = min(holders, key=lambda s: s.duration) if holders else client
            parent.children.append(root)
        keys = [
            root for root in inside
            if root.name == match_name
            and root.extra is not None
            and root.extra.get("seq") == client.extra["seq"]
        ]
        if len(keys) == 1:
            matched += 1
    return matched


def walk(span: Span) -> Iterable[Span]:
    stack = [span]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def reconcile(root: Span, layer_of: Callable[[str], str]) -> tuple[dict[str, float], float]:
    """Per-layer self times of *root*'s tree, and the unattributed rest.

    Returns ``(self_by_layer, unattributed)`` where *unattributed* is the
    client-observed duration minus the sum of every self time. With
    properly nested spans it is zero up to rounding; a child sticking
    out of its parent, or overlapping siblings, make it non-zero.
    """
    by_layer: dict[str, float] = {}
    total = 0.0
    for node in walk(root):
        own = self_time(node)
        layer = layer_of(node.name)
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        total += own
    return by_layer, root.duration - total
