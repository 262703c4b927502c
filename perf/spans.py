"""Outside-in span recorder: boundary wrappers around layer callables.

Nothing under ``src/`` knows about this module.  :class:`Recorder` wraps the
callables named in :mod:`layers` *at run time* — a module-level function is
replaced in every ``repro.*`` namespace that holds the function object, a
method on its class — and each wrapped call becomes one :class:`Span`
(name, thread, parent, start, end).  Spans are kept in memory and only
folded into per-layer numbers after the traced passes have finished.

Self time is per thread: a span's duration minus the time its *same-thread*
children cover.  A child that ran on a scatter worker thread is parented to
the ``ScatterPool.map`` call that submitted it (so the tree is connected)
but does not shrink the caller's self time — the caller really was blocked
for that long, and two workers can together cover more than the interval.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One completed call of a wrapped layer callable."""

    id: int
    name: str
    thread: int
    parent: int | None
    start: float
    end: float
    #: Duration minus the same-thread children (see module docstring).
    self_s: float
    #: Whatever the target's ``measure`` hook read off the return value.
    measured: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A layer callable to wrap: ``"repro.pkg.module:Class.method"``."""

    path: str
    #: Optional ``measure(result) -> number`` read off every return value
    #: (e.g. the node count of a lowered DAG).
    measure: Callable[[object], float] | None = None
    #: The callable's first positional argument after ``self`` is a function
    #: that may run on other threads (``ScatterPool.map``): spans it opens on
    #: a thread with no open span are parented to this call.
    scatters: bool = False


class _Frame:
    __slots__ = ("id", "children_s")

    def __init__(self, span_id: int) -> None:
        self.id = span_id
        self.children_s = 0.0


class Recorder:
    """Resolves and patches the wrappers, collects spans while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self.unresolved: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: (owner, attribute, original, wrapper) of every resolved target.
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """The boundary wrapper of one callable (pass-through when inactive)."""
        name = target.path
        measure = target.measure
        scatters = target.scatters
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            adopted = getattr(recorder._local, "adopted", None)
            parent = stack[-1].id if stack else adopted
            frame = _Frame(next(recorder._ids))
            if scatters:
                args = recorder._adopting(args, frame.id)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].children_s += end - start
            recorder.spans.append(Span(
                frame.id, name, threading.get_ident(), parent, start, end,
                (end - start) - frame.children_s,
                float(measure(result)) if measure is not None else 0.0,
            ))
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _adopting(self, args: tuple, span_id: int) -> tuple:
        """Rewrite a scatter call so the scattered function adopts ``span_id``.

        ``args`` is ``(self, fn, items, ...)``; on a thread whose span stack
        is empty (a pool worker) the spans ``fn`` opens get ``span_id`` as
        parent.  Inline execution keeps the ordinary stack parenting.
        """
        local = self._local
        scattered = args[1]

        def adopted(item):
            previous = getattr(local, "adopted", None)
            local.adopted = span_id
            try:
                return scattered(item)
            finally:
                local.adopted = previous

        return (args[0], adopted, *args[2:])

    # --------------------------------------------------------- installation
    def resolve(self, targets: Iterable[Target]) -> None:
        """Find every target and prepare its wrapper; note the unresolvable."""
        for target in targets:
            try:
                self._resolve_one(target)
            except (ImportError, AttributeError):
                self.unresolved.append(target.path)

    def _resolve_one(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            if attr not in vars(owner):
                raise AttributeError(target.path)
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(self.wrap(raw.__func__, target))
            else:
                replacement = self.wrap(raw, target)
            self._patches.append((owner, attr, raw, replacement))
            return
        original = getattr(module, attr)
        replacement = self.wrap(original, target)
        # ``from m import f`` copies the function object into the importer's
        # namespace, so every repro module holding it is patched.
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._patches.append((candidate, key, original, replacement))

    def patch(self) -> None:
        """Put the wrappers in place."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every wrapped callable (idempotent)."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.active = False


# ------------------------------------------------------------- span algebra
def totals_by_name(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Self time, call count and ``measured`` sum of every span name."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span.name, {"self_s": 0.0, "calls": 0, "measured": 0.0}
        )
        entry["self_s"] += span.self_s
        entry["calls"] += 1
        entry["measured"] += span.measured
    return totals


def self_time_on_thread(spans: Iterable[Span], thread: int) -> float:
    """Sum of self times of the spans one thread ran (never exceeds its wall)."""
    return sum(span.self_s for span in spans if span.thread == thread)


def enclosing(span: Span, by_id: dict[int, Span], name: str) -> Span | None:
    """The nearest ancestor of ``span`` called ``name`` (following parents)."""
    parent = span.parent
    while parent is not None:
        ancestor = by_id.get(parent)
        if ancestor is None:
            return None
        if ancestor.name == name:
            return ancestor
        parent = ancestor.parent
    return None
