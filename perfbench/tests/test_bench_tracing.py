"""Self-time arithmetic and wrapping of the outside-in tracer."""

import types

import pytest

from tracing import Span, Tracer, self_times


def test_self_time_of_nested_spans():
    spans = [
        Span("root", "m", -1, 0.0, 10.0),
        Span("a", "m", 0, 1.0, 3.0),
        Span("b", "m", 0, 4.0, 8.0),
        Span("b1", "m", 2, 5.0, 6.0),
        Span("b2", "m", 2, 6.5, 7.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.0, 0.5])
    # self times partition the root interval
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_not_counted_twice():
    spans = [
        Span("root", "m", -1, 0.0, 10.0),
        Span("a", "m", 0, 1.0, 5.0),
        Span("b", "m", 0, 3.0, 7.0),   # overlaps a by 2
        Span("c", "m", 0, 6.0, 6.5),   # inside b
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    spans = [Span("root", "m", -1, 2.0, 4.0), Span("a", "m", 0, 1.0, 3.0)]
    assert self_times(spans) == pytest.approx([1.0, 2.0])


def _package():
    """A two-module package: ``pkg.low`` defines functions and a class,
    ``pkg.high`` imports one of them by name."""
    low = types.ModuleType("pkg.low")
    exec(
        "def work(n):\n"
        "    return sum(helper(i) for i in range(n))\n"
        "def helper(i):\n"
        "    return i\n"
        "def boom():\n"
        "    raise ValueError('no')\n"
        "def _private():\n"
        "    return 1\n"
        "class Box:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    @property\n"
        "    def doubled(self):\n"
        "        return 2 * self.v\n"
        "    @classmethod\n"
        "    def make(cls, v):\n"
        "        return cls(v)\n",
        low.__dict__)
    high = types.ModuleType("pkg.high")
    high.work = low.work
    high.boom = low.boom
    return low, high


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_instrument_spans_counts_and_restores():
    low, high = _package()
    original = low.work
    tracer = Tracer(clock=FakeClock())
    tracer.instrument("pkg", [low, high], counted={"low.helper"})
    assert high.work is low.work is not original
    assert low._private.__name__ == "_private"
    assert not hasattr(low._private, "__wrapped__")

    assert high.work(3) == 3
    assert low.Box.make(4).doubled == 8
    assert [s.name for s in tracer.spans] == [
        "low.work", "low.Box.make", "low.Box.doubled"]
    assert tracer.calls["low.helper"] == 3
    # each span took two ticks of the fake clock
    assert self_times(tracer.spans) == [1.0, 1.0, 1.0]

    with pytest.raises(ValueError):
        high.boom()
    assert tracer.errors["low"] == 1

    tracer.restore()
    assert high.work is low.work is original
    assert isinstance(low.Box.__dict__["doubled"], property)
    assert low.Box.make(1).doubled == 2 and len(tracer.spans) == 4


def test_after_hook_sees_result_and_arguments():
    low, high = _package()
    tracer = Tracer()
    seen = []
    tracer.instrument("pkg", [low, high],
                      after={"low.work": lambda t, r, a: seen.append((r, a))})
    high.work(4)
    tracer.restore()
    assert seen == [(6, (4,))]
