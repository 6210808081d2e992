"""In-memory span tracer and the wrappers that feed it.

A :class:`Meter` records one span per call of every wrapped function
(name, start, end, parent span, thread, run id) plus free-form counters,
keeps them in memory and writes them out as JSON lines when the run ends.
Wrapping happens from the outside: :meth:`Meter.wrap` replaces an
attribute of a module or class with a timing wrapper and
:meth:`Meter.restore` puts every original back.

With ``timed=False`` the same wrappers keep the span *stack* (so hooks can
ask what they run inside) and call their counting hooks, but read no clock
and record no span: the untimed runs use this to count solver outcomes
without paying for tracing.

With ``mark`` set, every wrapped call that starts on the thread which made
the meter also calls ``mark()`` first; the untraced runs pass a
:class:`speed.SpeedGauge` there.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: ``hook(meter, args, kwargs, result)`` runs after every wrapped call
Hook = Callable[["Meter", tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    """One traced call."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Meter:
    """Span and counter recorder for one benchmark run."""

    def __init__(
        self,
        run_id: str,
        timed: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        mark: Callable[[], None] | None = None,
    ) -> None:
        self.run_id = run_id
        self.timed = timed
        self.clock = clock
        self.mark = mark
        self._mark_thread = threading.get_ident()
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # spans and counters
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether the calling thread is currently inside a span ``name``."""
        return any(n == name for _, n in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _enter(self, name: str) -> tuple[int, int | None, float]:
        if self.mark is not None and threading.get_ident() == self._mark_thread:
            self.mark()
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        return sid, parent, self.clock() if self.timed else 0.0

    def _exit(self, name: str, opened: tuple[int, int | None, float]) -> None:
        end = self.clock() if self.timed else 0.0
        self._stack().pop()
        sid, parent, start = opened
        with self._lock:
            self.counters[name + ".calls"] += 1
            if self.timed:
                self.spans.append(
                    Span(sid, parent, name, start, end, threading.get_ident(), self.run_id)
                )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span ``name``."""
        opened = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, opened)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, name: str, hook: Hook | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``owner`` is a module or a class; class-, static- and plain
        methods are all handled.  ``hook`` runs after each call with the
        call's arguments and result.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            func, rebind = original.__func__, type(original)
        else:
            func, rebind = original, None
        meter = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = meter._enter(name)
            try:
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(meter, args, kwargs, result)
            finally:
                meter._exit(name, opened)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(func, "__name__", attr)
        setattr(owner, attr, rebind(wrapper) if rebind else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end) for s in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out
