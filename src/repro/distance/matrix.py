"""Shared condensed distance-matrix engine for the clustering stage.

Every clustering algorithm in the package needs the same thing: the
pairwise ``d = d_tables + d_conj`` values over a population of access
areas.  :class:`DistanceMatrix` computes the upper triangle once into
the scipy-style *condensed* layout (``n·(n−1)/2`` floats, pair
``(i, j)`` with ``i < j`` at index ``i·(2n−i−1)/2 + (j−i−1)``) and
hands the algorithms O(1) lookups and vectorized row/neighbour queries.

When the metric decomposes like the paper's query distance
(``d_tables``/``d_conj`` attributes) the fill is vectorized:

* ``d_tables`` is evaluated once per *relation-set pair* — a
  SkyServer-scale log has millions of statements but only a handful of
  distinct FROM sets — and gathered into the condensed layout;
* ``d_conj`` comes from one :class:`~.kernel.PackedPartition` over the
  whole population, bitwise-equal to the per-pair oracle;
* with a ``cutoff`` (the clustering radius), pairs whose ``d_tables``
  lower bound already exceeds it store that bound instead of the full
  distance, which any threshold query at ``eps ≤ cutoff`` treats
  identically to the true distance.

Populations the kernel cannot replay, and metrics that do not
decompose, fall back to one ``metric(a, b)`` call per pair.
:class:`MatrixStats` reports what happened: pairs computed, pairs
bound-skipped, cache hit rates, wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..obs import get_logger, metrics, trace
from .kernel import KernelUnsupported, PackedPartition

logger = get_logger(__name__)

Metric = Callable[[object, object], float]


def condensed_index(i: int, j: int, n: int) -> int:
    """Index of pair ``(i, j)``, ``i < j``, in the condensed layout."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def is_decomposed(metric, items: Sequence) -> bool:
    """True when ``metric``/``items`` support the ``d_tables + d_conj``
    decomposition the vectorized fills require."""
    return (hasattr(metric, "d_tables") and hasattr(metric, "d_conj")
            and all(hasattr(item, "table_set") and hasattr(item, "cnf")
                    for item in items))


def table_partitions(items: Sequence, metric: Metric,
                     ) -> tuple[list[frozenset], list[list[int]],
                                np.ndarray]:
    """Group ``items`` by canonical table set.

    Returns ``(keys, members, bounds)``: the table sets in canonical
    order (size, then names), the item indices of each, and the
    symmetric P×P table of ``d_tables`` between the partitions'
    representatives, zero on the diagonal.  One evaluation per
    partition pair answers every cross-partition pair of that pair.
    """
    groups: dict[frozenset, list[int]] = {}
    for index, item in enumerate(items):
        groups.setdefault(item.table_set, []).append(index)
    keys = sorted(groups, key=lambda k: (len(k), sorted(k)))
    members = [groups[key] for key in keys]
    p = len(keys)
    bounds = np.zeros((p, p), dtype=float)
    reps = [items[m[0]] for m in members]
    for a in range(p):
        for b in range(a + 1, p):
            bounds[a, b] = bounds[b, a] = metric.d_tables(reps[a], reps[b])
    return keys, members, bounds


def exactness_of(bounds: np.ndarray) -> float:
    """The smallest cross-partition ``d_tables`` of a bound table —
    ``inf`` with fewer than two partitions."""
    p = len(bounds)
    if p < 2:
        return math.inf
    return float(bounds[~np.eye(p, dtype=bool)].min())


def check_cutoff(cutoff: Optional[float], exactness: float) -> None:
    """Refuse a partitioned layout whose query radius reaches the
    partition exactness bound."""
    if cutoff is not None and cutoff >= exactness:
        raise ValueError(
            f"cutoff {cutoff:g} is not below the partition exactness "
            f"bound {exactness:.4g}: cross-partition entries would no "
            f"longer answer threshold queries exactly; use the dense "
            f"DistanceMatrix")


@dataclass
class MatrixStats:
    """Instrumentation of one :meth:`DistanceMatrix.compute` run."""

    n_items: int = 0
    pairs_total: int = 0
    #: pairs whose full metric was evaluated
    pairs_computed: int = 0
    #: pairs resolved by the ``d ≥ d_tables > cutoff`` bound alone
    pairs_skipped: int = 0
    #: distinct relation-set pairs whose Jaccard term was evaluated
    table_pairs: int = 0
    #: ``d_tables`` lookups served from the relation-set memo
    table_cache_hits: int = 0
    predicate_cache_hits: int = 0
    predicate_cache_misses: int = 0
    elapsed_seconds: float = 0.0
    cutoff: Optional[float] = None
    #: partition blocks stored (0 for the dense matrix)
    n_blocks: int = 0
    #: items in the largest stored partition block
    largest_block: int = 0
    #: condensed floats actually allocated — ``n·(n−1)/2`` for the dense
    #: matrix; ``Σ m_p·(m_p−1)/2`` block entries plus the P×P bound
    #: table for the block-sparse one
    stored_floats: int = 0
    #: source population size before access-area interning collapsed it
    #: to ``n_items`` unique areas (0 = the matrix was built without
    #: interning)
    n_source_items: int = 0
    #: per-metric totals already pushed to a registry (see :meth:`record`)
    _recorded: dict = field(default_factory=dict, repr=False,
                            compare=False)

    @property
    def dedup_ratio(self) -> float:
        """Source areas per unique matrix item (1.0 without interning)."""
        if not self.n_source_items or not self.n_items:
            return 1.0
        return self.n_source_items / self.n_items

    @property
    def skip_fraction(self) -> float:
        if not self.pairs_total:
            return 0.0
        return self.pairs_skipped / self.pairs_total

    @property
    def storage_fraction(self) -> float:
        """Stored floats relative to the full condensed triangle."""
        if not self.pairs_total:
            return 0.0
        return self.stored_floats / self.pairs_total

    @property
    def predicate_cache_hit_rate(self) -> float:
        probes = self.predicate_cache_hits + self.predicate_cache_misses
        if not probes:
            return 0.0
        return self.predicate_cache_hits / probes

    def summary(self) -> str:
        interned = ""
        if self.n_source_items:
            interned = (f"interned from {self.n_source_items} source "
                        f"areas ({self.dedup_ratio:.1f}x dedup); ")
        blocks = ""
        if self.n_blocks:
            blocks = (f"{self.n_blocks} blocks (largest "
                      f"{self.largest_block}), {self.stored_floats:,} "
                      f"floats stored ({self.storage_fraction:.1%} of "
                      f"dense); ")
        blocks = interned + blocks
        return (
            f"{self.n_items} items, {self.pairs_total:,} pairs: "
            f"{self.pairs_computed:,} computed, "
            f"{self.pairs_skipped:,} bound-skipped "
            f"({self.skip_fraction:.1%}); {blocks}"
            f"d_tables memo {self.table_cache_hits:,} hits / "
            f"{self.table_pairs:,} entries; "
            f"d_pred cache hit rate {self.predicate_cache_hit_rate:.1%}; "
            f"{self.elapsed_seconds:.3f} s")

    def record(self, registry) -> None:
        """Fold this run into a metrics registry (``repro_distance_*``).

        Delta-based and idempotent: recording the same stats object
        twice (a resident registry's lifecycle) adds nothing the
        second time — counters end equal to the true totals.
        """
        from ..obs.metrics import (observe_when_changed,
                                   record_counter_deltas)
        record_counter_deltas(registry, self._recorded, (
            ("repro_distance_pairs_total", self.pairs_total),
            ("repro_distance_pairs_computed_total",
             self.pairs_computed),
            ("repro_distance_pairs_skipped_total", self.pairs_skipped),
            ("repro_distance_table_cache_hits_total",
             self.table_cache_hits),
            ("repro_distance_pred_cache_hits_total",
             self.predicate_cache_hits),
            ("repro_distance_pred_cache_misses_total",
             self.predicate_cache_misses),
            ("repro_distance_blocks_total", self.n_blocks)))
        observe_when_changed(registry, self._recorded,
                             "repro_distance_matrix_seconds",
                             self.elapsed_seconds)
        if self.stored_floats:
            registry.gauge("repro_distance_stored_floats").set(
                self.stored_floats)
            registry.gauge("repro_distance_storage_fraction").set(
                self.storage_fraction)


class DistanceMatrix:
    """Condensed symmetric pairwise distance matrix.

    Obtain one via :meth:`compute`; the constructor takes an existing
    condensed value array (e.g. from :meth:`submatrix`).
    """

    def __init__(self, n: int, condensed: np.ndarray,
                 stats: Optional[MatrixStats] = None) -> None:
        condensed = np.asarray(condensed, dtype=float)
        expected = n * (n - 1) // 2
        if condensed.shape != (expected,):
            raise ValueError(
                f"condensed shape {condensed.shape} does not match "
                f"{n} items (expected ({expected},))")
        self.n = n
        self._values = condensed
        self.stats = stats or MatrixStats(
            n_items=n, pairs_total=expected, pairs_computed=expected,
            stored_floats=expected)

    # -- construction -------------------------------------------------------

    @classmethod
    def compute(cls, items: Sequence, metric: Metric, *,
                cutoff: Optional[float] = None,
                registry: Optional[metrics.MetricsRegistry] = None,
                ) -> "DistanceMatrix":
        """Evaluate ``metric`` over every unordered pair of ``items``.

        ``cutoff`` — optional threshold enabling the partition-bound
        skip: entries whose ``d_tables`` lower bound already exceeds it
        store that bound instead of the full distance (only valid when
        every later query uses a radius ``≤ cutoff``);
        ``registry`` — metrics sink (defaults to the process-wide
        registry).
        """
        n = len(items)
        if registry is None:
            registry = metrics.get_registry()
        stats = MatrixStats(n_items=n, pairs_total=n * (n - 1) // 2,
                            cutoff=cutoff,
                            stored_floats=n * (n - 1) // 2)
        started = time.perf_counter()
        pred_info = getattr(metric, "pred_cache_info", None)
        before = pred_info() if pred_info is not None else None

        with trace.span("distance_matrix", n_items=n) as span:
            decomposed = is_decomposed(metric, items)
            with trace.span("plan"):
                if decomposed:
                    values = cls._gather_d_tables(items, metric, stats)
                    exact = np.ones(len(values), dtype=bool) \
                        if cutoff is None else values <= cutoff
                else:
                    values = np.zeros(stats.pairs_total, dtype=float)
                    exact = np.ones(stats.pairs_total, dtype=bool)
            stats.pairs_computed = int(exact.sum())
            stats.pairs_skipped = stats.pairs_total - stats.pairs_computed

            fill_started = time.perf_counter()
            with trace.span("fill", pairs=stats.pairs_computed) as fill:
                pack = None
                if decomposed and stats.pairs_computed:
                    try:
                        pack = PackedPartition(items, metric)
                    except KernelUnsupported as exc:
                        logger.debug("dense fill falls back to per-pair "
                                     "evaluation: %s", exc)
                mode = "serial" if pack is None else "kernel"
                fill.set(mode=mode)
                if pack is not None:
                    # d_tables + d_conj, added in the oracle's order.
                    values[exact] += pack.condensed_block()[exact]
                else:
                    for i in range(n - 1):
                        start = i * (2 * n - i - 1) // 2
                        row = exact[start:start + n - 1 - i]
                        for offset in np.flatnonzero(row).tolist():
                            values[start + offset] = metric(
                                items[i], items[i + 1 + offset])
            if stats.pairs_computed:
                registry.histogram("repro_distance_chunk_seconds",
                                   mode=mode).observe(
                    time.perf_counter() - fill_started)

            if before is not None:
                after = pred_info()
                stats.predicate_cache_hits = after.hits - before.hits
                stats.predicate_cache_misses = after.misses - before.misses
            stats.elapsed_seconds = time.perf_counter() - started
            span.set(pairs_computed=stats.pairs_computed,
                     pairs_skipped=stats.pairs_skipped)

        stats.record(registry)
        logger.debug("distance matrix: %s", stats.summary())
        return cls(n, values, stats)

    @classmethod
    def from_square(cls, matrix: np.ndarray) -> "DistanceMatrix":
        """Adopt an ``(n, n)`` symmetric matrix (upper triangle is read)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"not a square matrix: shape {matrix.shape}")
        n = matrix.shape[0]
        return cls(n, matrix[np.triu_indices(n, k=1)])

    @staticmethod
    def _gather_d_tables(items: Sequence, metric: Metric,
                         stats: MatrixStats) -> np.ndarray:
        """``d_tables`` of every pair in the condensed layout, gathered
        from the per-partition-pair table."""
        n = len(items)
        keys, members, bounds = table_partitions(items, metric)
        pids = np.empty(n, dtype=np.intp)
        for pid, member_list in enumerate(members):
            pids[member_list] = pid
        values = np.empty(n * (n - 1) // 2, dtype=float)
        for i in range(n - 1):
            start = i * (2 * n - i - 1) // 2
            values[start:start + n - 1 - i] = bounds[pids[i], pids[i + 1:]]
        p = len(keys)
        stats.table_pairs = p * (p - 1) // 2
        stats.table_cache_hits = stats.pairs_total - stats.table_pairs
        return values

    # -- lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def condensed(self) -> np.ndarray:
        """The raw condensed value array (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def value(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self._values[condensed_index(i, j, self.n)])

    def __getitem__(self, pair: tuple[int, int]) -> float:
        return self.value(*pair)

    def row(self, i: int) -> np.ndarray:
        """Distances from item ``i`` to every item (length ``n``)."""
        n = self.n
        out = np.empty(n, dtype=float)
        out[i] = 0.0
        if i + 1 < n:
            start = condensed_index(i, i + 1, n)
            out[i + 1:] = self._values[start:start + (n - 1 - i)]
        if i > 0:
            js = np.arange(i)
            out[:i] = self._values[js * (2 * n - js - 1) // 2 + (i - js - 1)]
        return out

    def neighbors(self, i: int, eps: float) -> list[int]:
        """Indices within radius ``eps`` of item ``i`` (including ``i``)."""
        return list(np.flatnonzero(self.row(i) <= eps))

    def to_square(self) -> np.ndarray:
        """Expand to the full ``(n, n)`` symmetric matrix."""
        out = np.zeros((self.n, self.n), dtype=float)
        iu = np.triu_indices(self.n, k=1)
        out[iu] = self._values
        out[(iu[1], iu[0])] = self._values
        return out

    def submatrix(self, indices: Sequence[int]) -> "DistanceMatrix":
        """The matrix restricted to ``indices`` (in the given order)."""
        m = len(indices)
        values = np.empty(m * (m - 1) // 2, dtype=float)
        pos = 0
        for a in range(m):
            for b in range(a + 1, m):
                values[pos] = self.value(indices[a], indices[b])
                pos += 1
        return DistanceMatrix(m, values)
