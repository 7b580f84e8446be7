"""Run ``repro serve`` with the layers' public functions wrapped in spans.

Usage::

    python3 skybench/serve_traced.py SPANS_OUT serve [repro serve args]

The server behaves exactly like ``python -m repro serve ...``.  When it
stops (SIGINT), the recorded spans are written to ``SPANS_OUT`` once,
together with counters read off the resident state: the buffer pool's
page reads, the intern pool's hit rate, and the number of journal
arrivals replayed at start-up.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
    __file__)), os.pardir, "src"))

import repro.cli  # noqa: E402
import repro.core.extractor as extractor_module  # noqa: E402
import repro.service.state as state_module  # noqa: E402
from repro.clustering.incremental import IncrementalDBSCAN  # noqa: E402
from repro.core.extractor import AccessAreaExtractor  # noqa: E402
from repro.core.pipeline import AccessAreaInterner  # noqa: E402
from repro.core.stream import StreamMonitor  # noqa: E402
from repro.distance.block_sparse import BlockSparseDistanceMatrix  # noqa: E402
from repro.service.asgi import App  # noqa: E402
from repro.service.state import AppState  # noqa: E402
from repro.store.store import AreaStore  # noqa: E402

from spans import SpanRecorder  # noqa: E402


def install(recorder: SpanRecorder, states: list) -> None:
    """Wrap every service-side layer boundary the benchmark reads."""
    recorder.wrap(extractor_module, "parse", "sqlparser.parse")
    recorder.wrap(AccessAreaExtractor, "extract", "core.extract")
    recorder.wrap(StreamMonitor, "process", "core.monitor_process")
    recorder.wrap(IncrementalDBSCAN, "add", "clustering.add")
    recorder.wrap(BlockSparseDistanceMatrix, "insert_row",
                  "distance.insert_row")
    recorder.wrap(BlockSparseDistanceMatrix, "neighbors",
                  "distance.neighbors", count=len)
    recorder.wrap(AppState, "ingest", "service.ingest")
    recorder.wrap(state_module, "fit_recommender",
                  "service.recommender_fit")
    recorder.wrap(App, "__call__", lambda args, kwargs:
                  f"service.{args[1].get('method', 'none').lower()}")
    recorder.wrap(AccessAreaInterner, "__len__", "obs.intern_len")
    recorder.wrap(AccessAreaInterner, "record", "obs.intern_record")
    recorder.wrap(AreaStore, "record", "obs.store_record")
    recorder.wrap(AreaStore, "append_area", "store.append_area")
    recorder.wrap(AreaStore, "append_journal", "store.append_journal")
    recorder.wrap(AreaStore, "checkpoint", "store.checkpoint")
    recorder.wrap(AreaStore, "get_area", "store.get_area")

    init = AppState.__init__

    def capture_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        states.append(self)

    AppState.__init__ = capture_init
    recorder.wrap(AppState, "__init__", "service.state_init")

    snapshot = AppState.snapshot
    rebuild = recorder.instrument(snapshot, "service.snapshot_rebuild")

    def snapshot_or_rebuild(self):
        if self._snapshot.version != self.version:
            return rebuild(self)
        return snapshot(self)

    AppState.snapshot = snapshot_or_rebuild


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    states: list = []
    install(recorder, states)
    code = repro.cli.main(argv)
    extras = {}
    if states:
        state = states[0]
        extras["replayed"] = state.replayed
        extras["intern_hit_rate"] = state.interner.stats().hit_rate
        if state.store is not None:
            pool = state.store.pool.stats
            extras["page_reads"] = pool.hits + pool.misses
            extras["pool_hits"] = pool.hits
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "extras": extras}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
