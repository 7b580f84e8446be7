"""Registry routing of the matrix engine's metrics, and the zero-overhead
claim for the disabled (null) instruments."""

import time

from repro.distance.matrix import DistanceMatrix
from repro.obs.metrics import (MetricsRegistry, NullRegistry,
                               use_registry)
from repro.obs.trace import NULL_TRACER


def _metric(a: float, b: float) -> float:
    return abs(a - b)


class TestDistanceMatrixParallelMetrics:
    def test_explicit_registry_bypasses_global(self):
        global_registry = MetricsRegistry()
        private = MetricsRegistry()
        items = [float(v) for v in range(8)]
        with use_registry(global_registry):
            DistanceMatrix.compute(items, _metric, registry=private)
        assert global_registry.snapshot()["counters"] == []
        assert private.counter(
            "repro_distance_pairs_computed_total").value == 28


class TestNoOpOverhead:
    """Disabled instruments must stay within noise of bare code.

    The bound is deliberately loose (20×) — CI boxes are noisy and the
    point is to catch accidental allocation/IO on the null paths, not
    to benchmark them.
    """

    ROUNDS = 20_000

    @staticmethod
    def _time(fn) -> float:
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    def test_null_tracer_spans_are_cheap(self):
        def bare():
            total = 0
            for i in range(self.ROUNDS):
                total += i
            return total

        def traced():
            total = 0
            for i in range(self.ROUNDS):
                with NULL_TRACER.span("step"):
                    total += i
            return total

        baseline = self._time(bare)
        instrumented = self._time(traced)
        assert instrumented < baseline * 20 + 0.05

    def test_null_registry_instruments_are_cheap(self):
        registry = NullRegistry()
        counter = registry.counter("repro_x_total")
        histogram = registry.histogram("repro_seconds")

        def bare():
            total = 0
            for i in range(self.ROUNDS):
                total += i
            return total

        def instrumented_loop():
            total = 0
            for i in range(self.ROUNDS):
                counter.inc()
                histogram.observe(i)
                total += i
            return total

        baseline = self._time(bare)
        instrumented = self._time(instrumented_loop)
        assert instrumented < baseline * 20 + 0.05
