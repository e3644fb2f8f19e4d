"""In-memory span recording around functions of the program under test.

:func:`install` replaces each target function with a wrapper that
records one span per call: ``(span_id, parent_id, name, start, end,
thread, request_id, extra)``.  The parent is the innermost span open in
the caller's context (a :class:`contextvars.ContextVar`, so asyncio
tasks and pool threads that run a copied context nest correctly).
Spans stay in memory; :meth:`Recorder.dump` writes them out once the run
ends.  :meth:`Installation.restore` puts every original back.

Nothing here imports the program; targets are named by module and
attribute, and every alias of a module-level function in already
imported modules of the same package is patched too, so
``from x import f`` call sites see the wrapper.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

_current_span = contextvars.ContextVar("perfbench_span", default=0)
_request_id = contextvars.ContextVar("perfbench_request_id", default="")


def set_request_id(request_id: str) -> None:
    """Tag spans opened from now on in this context with ``request_id``."""
    _request_id.set(request_id)


class Span(NamedTuple):
    span_id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    request_id: str
    extra: tuple | None


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``attr`` is a dotted path inside ``module``: ``"f"``, ``"Class.m"``,
    or ``"instance.m"`` for a method of a module-level object.
    ``label(args, kwargs)``, when given, replaces the span name;
    ``extract(args, kwargs, result)`` returns the span's ``extra``.
    """

    span: str
    module: str
    attr: str
    extract: Callable | None = None
    label: Callable | None = None


class Recorder:
    """Holds spans in memory for one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh)

    @staticmethod
    def load(path: str) -> list[Span]:
        with open(path, encoding="utf-8") as fh:
            return [Span(*row[:7], tuple(row[7]) if row[7] else None)
                    for row in json.load(fh)]

    def wrap(self, fn: Callable, target: Target) -> Callable:
        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                sid, parent, token, start = self._open()
                result = ok = None
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    self._close(target, sid, parent, token, start,
                                args, kwargs, result, ok)
        else:
            def wrapper(*args, **kwargs):
                sid, parent, token, start = self._open()
                result = ok = None
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    self._close(target, sid, parent, token, start,
                                args, kwargs, result, ok)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.span)
        return wrapper

    def _open(self):
        sid = next(self._ids)
        parent = _current_span.get()
        token = _current_span.set(sid)
        return sid, parent, token, time.perf_counter()

    def _close(self, target, sid, parent, token, start, args, kwargs,
               result, ok) -> None:
        end = time.perf_counter()
        _current_span.reset(token)
        extra = None
        if ok and target.extract is not None:
            extra = target.extract(args, kwargs, result)
        name = target.label(args, kwargs) if target.label else target.span
        # list.append is atomic under the interpreter lock, so pool
        # threads and the event loop can record concurrently.
        self.spans.append(Span(sid, parent, name, start, end,
                               threading.get_ident(), _request_id.get(),
                               extra))


class Installation:
    """The patches one :func:`install` made, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, bool, object]] = []

    def patch(self, owner: object, name: str, value: object) -> None:
        had_own = name in vars(owner)
        self._patches.append((owner, name, had_own, vars(owner).get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, had_own, old in reversed(self._patches):
            if had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._patches.clear()


def install(recorder: Recorder, targets) -> Installation:
    """Wrap every target; returns the handle that restores them."""
    inst = Installation()
    try:
        for target in targets:
            _install_one(recorder, target, inst)
    except BaseException:
        inst.restore()
        raise
    return inst


def _install_one(recorder: Recorder, target: Target,
                 inst: Installation) -> None:
    module = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if name not in vars(owner):
            raise AttributeError(
                f"{target.module}.{target.attr} is not defined on the class")
        original = vars(owner)[name]
        inst.patch(owner, name, recorder.wrap(original, target))
        return
    original = getattr(owner, name)
    wrapper = recorder.wrap(original, target)
    inst.patch(owner, name, wrapper)
    if owner is not module:
        return  # a method of an object: one attribute to replace
    package = target.module.split(".")[0]
    for mod_name, mod in list(sys.modules.items()):
        if mod is module or mod is None or \
                mod_name.split(".")[0] != package:
            continue
        for alias, value in list(vars(mod).items()):
            if value is original:
                inst.patch(mod, alias, wrapper)


# -- analysis ---------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.span_id: (s.end - s.start)
            - covered_length(children.get(s.span_id, ()), s.start, s.end)
            for s in spans}


def by_name(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        agg = out[s.name]
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += selfs[s.span_id]
    return dict(out)
