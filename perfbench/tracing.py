"""Outside-in span tracer: wraps a package's public callables in place.

Every public function and method defined in the given modules is replaced,
in every module namespace that binds it (``from`` imports included), by a
wrapper that records a span: name, start, end and the enclosing span.
Functions named in ``counted`` are called so often that a span would
distort the timing; their wrappers only count calls, and their time falls
into the caller's self time.  Generator functions are counted too, because
a span would time only the creation of the generator.

Nothing here knows about gaugelatt; ``layers.py`` says which spans make up
which layer metric.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str      # "<module>.<qualname>"
    module: str    # module name relative to the package, e.g. "manybody"
    parent: int    # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it covered by its child spans.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result never counts covered time twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            a, b = max(c.start, lo), min(c.end, s.end)
            if b > a:
                covered += b - a
                lo = b
        out.append((s.end - s.start) - covered)
    return out


def _is_public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    """Spans, call counts, counters and per-module exception counts of one
    traced run.  ``instrument`` installs the wrappers; ``restore`` removes
    them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.wrapped_codes: set = set()
        self._stack: list[int] = []
        self._seen_errors: set = set()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def spanned(self, fn, name: str, module: str, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, result,
        args)`` runs on each successful return to update counters."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, module, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(module, exc)
                raise
            finally:
                stack.pop()
                span.end = clock()
            if after is not None:
                after(self, result, args)
            return result

        self._covers(fn)
        return wrapper

    def counted(self, fn, name: str, module: str):
        """Wrap ``fn`` so each call only increments ``calls[name]``."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(module, exc)
                raise

        self._covers(fn)
        return wrapper

    def _covers(self, fn):
        code = getattr(fn, "__code__", None)  # numpy dispatchers have none
        if code is not None:
            self.wrapped_codes.add(code)

    def _error(self, module: str, exc: Exception):
        # an exception crossing several spans of one module counts once
        key = (module, id(exc))
        if key not in self._seen_errors:
            self._seen_errors.add(key)
            self.errors[module] += 1

    # -- installing --------------------------------------------------------

    def rebind(self, target, attr: str, value):
        """Rebind ``target.attr`` and remember the old value for restore()."""
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def restore(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)

    def instrument(self, package: str, modules, counted=(), after=None):
        """Wrap every public callable defined in ``modules``.

        ``package`` is the prefix stripped from module names to get layer
        names.  ``counted`` holds span names to count instead of span, and
        ``after`` maps span names to counter hooks (see ``spanned``).
        """
        after = after or {}
        wrappers = {}

        def wrap(fn, module):
            name = f"{module}.{fn.__qualname__}"
            if name in counted or inspect.isgeneratorfunction(fn):
                return self.counted(fn, name, module)
            return self.spanned(fn, name, module, after.get(name))

        for mod in modules:
            layer = mod.__name__.removeprefix(package + ".")
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _is_public(obj.__name__):
                    wrappers[obj] = wrap(obj, layer)
                elif inspect.isclass(obj) and _is_public(obj.__name__):
                    self._instrument_class(obj, layer, wrap)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.rebind(mod, attr, wrappers[obj])

    def _instrument_class(self, cls, layer, wrap):
        for attr, member in list(vars(cls).items()):
            if not _is_public(attr):
                continue
            if inspect.isfunction(member):
                new = wrap(member, layer)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(wrap(member.__func__, layer))
            elif isinstance(member, property) and member.fget is not None:
                new = property(wrap(member.fget, layer), member.fset,
                               member.fdel, member.__doc__)
            else:
                continue
            self.rebind(cls, attr, new)
