"""Self-time arithmetic and wrap/unwrap of the benchmark's span recorder.

Run with ``python3 -m pytest skybench/tests -q`` from the repo root.
"""

import asyncio
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
    __file__)), os.pardir))

from spans import SpanRecorder, covered, self_time  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSelfTime:
    def test_no_children_is_whole_duration(self):
        assert self_time(["a", 1.0, 4.0, -1, 1], []) == 3.0

    def test_disjoint_children_subtract(self):
        children = [["b", 1.5, 2.0, 0, 1], ["c", 3.0, 3.5, 0, 1]]
        assert self_time(["a", 1.0, 4.0, -1, 1], children) == 2.0

    def test_overlapping_children_count_once(self):
        children = [["b", 1.0, 3.0, 0, 1], ["c", 2.0, 3.5, 0, 1]]
        assert self_time(["a", 0.0, 4.0, -1, 1], children) == 1.5

    def test_children_clipped_to_parent(self):
        children = [["b", -1.0, 1.0, 0, 1], ["c", 3.0, 9.0, 0, 1]]
        assert self_time(["a", 0.0, 4.0, -1, 1], children) == 2.0

    def test_covered_ignores_empty_intervals(self):
        assert covered([(2.0, 2.0), (3.0, 1.0)], 0.0, 5.0) == 0.0

    def test_recorder_self_times_use_direct_children_only(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)

        def leaf():
            clock.now += 1.0

        def middle():
            clock.now += 2.0
            wrapped_leaf()

        def top():
            clock.now += 4.0
            wrapped_middle()

        wrapped_leaf = recorder.instrument(leaf, "leaf")
        wrapped_middle = recorder.instrument(middle, "middle")
        recorder.instrument(top, "top")()
        assert recorder.self_times("top") == [4.0]
        assert recorder.self_times("middle") == [2.0]
        assert recorder.self_times("leaf") == [1.0]
        names = [span[0] for span in recorder.spans]
        parents = [span[3] for span in recorder.spans]
        assert names == ["top", "middle", "leaf"]
        assert parents == [-1, 0, 1]

    def test_outermost_total_counts_nested_members_once(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)

        def inner():
            clock.now += 1.0

        def outer():
            clock.now += 2.0
            wrapped_inner()

        wrapped_inner = recorder.instrument(inner, "inner")
        wrapped_outer = recorder.instrument(outer, "outer")

        def ingest():
            wrapped_outer()
            wrapped_inner()

        wrapped_inner()  # outside any ingest: not counted
        recorder.instrument(ingest, "ingest")()
        total = recorder.outermost_total({"inner", "outer"}, under="ingest")
        assert total == 4.0


class Target:
    def method(self, x):
        return x + 1

    @staticmethod
    def static(x):
        return x * 2

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)

    def __len__(self):
        return 7

    async def coro(self, x):
        return x - 1


def module_function(x):
    return -x


class TestWrapping:
    def test_wrap_records_and_unwrap_restores_identity(self):
        originals = {name: Target.__dict__[name]
                     for name in ("method", "static", "klass", "__len__",
                                  "coro")}
        module = sys.modules[__name__]
        original_function = module.module_function
        recorder = SpanRecorder()
        for name in originals:
            recorder.wrap(Target, name, f"t.{name}")
        recorder.wrap(module, "module_function", "t.function")

        target = Target()
        assert target.method(1) == 2
        assert Target.static(3) == 6
        assert Target.klass(4) == ("Target", 4)
        assert len(target) == 7
        assert asyncio.run(target.coro(5)) == 4
        assert module.module_function(2) == -2
        assert sorted(span[0] for span in recorder.spans) == sorted(
            ["t.method", "t.static", "t.klass", "t.__len__", "t.coro",
             "t.function"])

        recorder.unwrap_all()
        for name, original in originals.items():
            assert Target.__dict__[name] is original
        assert module.module_function is original_function
        recorded = len(recorder.spans)
        target.method(1)
        assert len(recorder.spans) == recorded

    def test_count_and_callable_name(self):
        recorder = SpanRecorder()
        wrapped = recorder.instrument(
            lambda n: list(range(n)),
            lambda args, kwargs: f"range.{args[0]}", count=len)
        wrapped(3)
        assert recorder.spans[0][0] == "range.3"
        assert recorder.spans[0][4] == 3

    def test_exception_still_closes_span(self):
        recorder = SpanRecorder()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            recorder.instrument(boom, "boom")()
        assert recorder.spans[0][2] >= recorder.spans[0][1]
        recorder.instrument(lambda: None, "after")()
        assert recorder.spans[1][3] == -1
