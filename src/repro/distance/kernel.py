"""Vectorized intra-partition distance kernel (struct-of-arrays).

Per-pair Python object math is the last scalability wall after
interning (PR 4) and the block-sparse layout (PR 5): within one
table-set partition every entry is ``d_conj`` over the same small family
of predicates, evaluated ``m·(m−1)/2`` times through dataclass
dispatch, interval objects and dict-backed memos.  This module packs a
partition **once** into flat numpy arrays and produces whole condensed
blocks as array operations:

* **predicate layer** — distinct predicates are deduplicated by value
  (the same equivalence the oracle's pair LRU uses) and their pairwise
  ``d_pred`` matrix is built per category: numeric interval footprints
  as float64 endpoint slots, categorical footprints as uint64 bitset
  rows, coverage products for cross-column pairs, structural keys for
  column-column predicates and degenerate access widths;
* **clause layer** — distinct clauses map to rows of a ``d_disj``
  matrix: unit×unit pairs are a gather of the predicate matrix, the
  rare non-unit pairs run the symmetric best-match average over
  predicate-matrix slices;
* **area layer** — the per-clause best match against every area is one
  ``min``-gather table, and the condensed block accumulates forward and
  backward direction sums with two strided writes per row.

The pure-Python :class:`~.predicate_distance.PredicateDistance` remains
the semantic oracle.  **Every fast-path value is bitwise-equal to the
oracle**, not merely close: per-predicate quantities (widened
footprints, total widths, coverage fractions, categorical footprints)
are computed *by the oracle's own helpers* at pack time, and the
vectorized combination replays the oracle's floating-point operation
order — sequential axis-0 reductions for the direction sums (numpy
reduces the outer axis of a C-contiguous array strictly left-to-right,
matching Python's ``+=`` loop), Python-loop sums for clause-level
best-match totals (1-D ``ndarray.sum`` is *not* sequential beyond 8
elements), and identical guard expressions (``max(0.0, 1 − i/u)``,
``union <= 0`` structural fallbacks, empty-CNF fixups).  The
conformance battery in ``tests/distance/test_kernel_conformance.py``
asserts this equality within 1e-12 (and exactly, in practice) across
hypothesis-generated predicate populations.

The predicate layer grows like the clause and area layers.  Each
predicate's packed quantities are computed once, when it first enters
the pack, and kept in per-column groups (:class:`_Group`): its coverage
fraction; its widened footprint as ``_MAX_SLOTS`` endpoint slots, total
width, empty flag and structure id; its equality-key id when the
column's access is unbounded or zero-width; its categorical bitset over
first-seen value positions (popcounts do not depend on positions); its
join key id.  ``d_pred`` lives in a capacity-doubled buffer, and
:meth:`PackedPartition.extend` fills only the new rows (new × all) and
the new columns (old × new): O(new × P) array work, and oracle calls
(a coverage fraction, a widened footprint) for *new* predicates only.  Rows and columns are computed separately, because
an interval entry ``(a, b)`` sums ``a``'s slots in the outer loop.
Every :class:`KernelUnsupported` check runs in a planning step before
anything is mutated, and the first fill is an ``extend`` from empty.

Anything the pack cannot replay exactly — non-finite or non-float-exact
numeric constants, boolean constants (whose ``True == 1`` predicate
equality makes even the oracle's memo order-dependent), subclassed
metrics — raises :class:`KernelUnsupported` and the caller falls back
to the per-pair pure-Python path for that population.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..algebra.cnf import Clause
from ..algebra.predicates import (ColumnColumnPredicate,
                                  ColumnConstantPredicate,
                                  normalize_constant)
from ..obs import get_logger, trace
from .predicate_distance import PredicateDistance, _categorical_footprint
from .query_distance import QueryDistance

logger = get_logger(__name__)

#: Interval slots per packed numeric footprint.  With a positive
#: resolution every widened footprint is a single interval (the two
#: ``<>`` rays merge); two slots only occur at resolution 0.
_MAX_SLOTS = 2


class KernelUnsupported(Exception):
    """A partition (or metric) the vectorized kernel cannot replay
    bitwise; callers fall back to the pure-Python oracle path."""


@dataclass
class KernelStats:
    """Instrumentation of one :func:`compute_kernel_blocks` run."""

    partitions_packed: int = 0
    partitions_fallback: int = 0
    #: distinct predicates/clauses across all packed partitions
    n_predicates: int = 0
    n_clauses: int = 0
    pairs_vectorized: int = 0
    pairs_fallback: int = 0
    pack_seconds: float = 0.0
    block_seconds: float = 0.0
    #: per-metric totals already pushed to a registry (see :meth:`record`)
    _recorded: dict = field(default_factory=dict, repr=False,
                            compare=False)

    @property
    def vectorized_fraction(self) -> float:
        total = self.pairs_vectorized + self.pairs_fallback
        if not total:
            return 0.0
        return self.pairs_vectorized / total

    def summary(self) -> str:
        return (
            f"{self.partitions_packed} partitions packed "
            f"({self.partitions_fallback} fell back), "
            f"{self.n_predicates} predicates / {self.n_clauses} clauses "
            f"packed; {self.pairs_vectorized:,} pairs vectorized "
            f"({self.vectorized_fraction:.1%}); "
            f"pack {self.pack_seconds:.3f} s, "
            f"blocks {self.block_seconds:.3f} s")

    def record(self, registry) -> None:
        """Fold this run into a metrics registry (``repro_kernel_*``).

        Delta-based and idempotent under re-recording (see
        :func:`repro.obs.metrics.record_counter_deltas`)."""
        from ..obs.metrics import (observe_when_changed,
                                   record_counter_deltas)
        record_counter_deltas(registry, self._recorded, (
            ("repro_kernel_partitions_packed_total",
             self.partitions_packed),
            ("repro_kernel_partitions_fallback_total",
             self.partitions_fallback),
            ("repro_kernel_pairs_vectorized_total",
             self.pairs_vectorized),
            ("repro_kernel_pairs_fallback_total",
             self.pairs_fallback),
            ("repro_kernel_predicates_total", self.n_predicates),
            ("repro_kernel_clauses_total", self.n_clauses)))
        observe_when_changed(registry, self._recorded,
                             "repro_kernel_pack_seconds",
                             self.pack_seconds)
        observe_when_changed(registry, self._recorded,
                             "repro_kernel_block_seconds",
                             self.block_seconds)


def oracle_of(metric) -> PredicateDistance:
    """The :class:`PredicateDistance` behind a plain query metric.

    Only an unmodified :class:`QueryDistance` is replayable: a subclass
    overriding any distance component would change the semantics the
    pack reproduces, so anything else raises :class:`KernelUnsupported`.
    """
    if not isinstance(metric, QueryDistance):
        raise KernelUnsupported(
            f"kernel requires a QueryDistance metric, "
            f"got {type(metric).__name__}")
    for name in ("__call__", "distance", "d_tables", "d_conj", "d_disj",
                 "d_pred"):
        if getattr(type(metric), name) is not getattr(QueryDistance, name):
            raise KernelUnsupported(
                f"metric overrides QueryDistance.{name}; the kernel "
                f"cannot guarantee oracle parity")
    pred = metric._pred
    if type(pred) is not PredicateDistance:
        raise KernelUnsupported(
            f"unexpected predicate oracle {type(pred).__name__}")
    return pred


def _exact(value) -> float:
    """``value`` as float64, refusing any rounding.

    Interval endpoints may be exact Python ints (SkyServer ``objid``
    constants exceed the float53 mantissa at resolution 0); a lossy
    conversion would silently change the width arithmetic the oracle
    performs exactly.
    """
    result = float(value)
    if result != value:
        raise KernelUnsupported(
            f"constant {value!r} is not exactly representable in float64")
    return result


class PackedPartition:
    """Struct-of-arrays pack of a population of access areas.

    The pack produces ``d_conj`` values, bitwise-equal to the metric's.
    Within one table-set partition ``d_tables == 0``, so they are the
    full metric; over a mixed population the dense matrix adds the
    ``d_tables`` term itself.  Raises :class:`KernelUnsupported` when
    any predicate kind cannot be replayed exactly.
    """

    def __init__(self, areas: Sequence, metric) -> None:
        self._oracle = oracle_of(metric)

        # Dedup state is retained so :meth:`extend` can append areas
        # with stable predicate/clause/area ids: clauses and predicates
        # are deduplicated by *value* — the same dataclass equality the
        # oracle's memo keys use, so spelling variants (``x = 5`` vs
        # ``x = 5.0``) share one packed row exactly like they share one
        # memo entry.  Per-position id lists keep duplicates: direction
        # sums count positions, not values.
        self._clause_ids: dict[Clause, int] = {}
        self._pred_ids: dict = {}
        self._preds: list = []
        self._clause_pred_ids: list[list[int]] = []
        # Per-clause shape, for the clause-layer rows: predicate count,
        # the predicate id of unit clauses (-1 otherwise), and the ids
        # of the multi-predicate clauses in ascending order.
        self._clause_len = np.empty(0, dtype=np.intp)
        self._unit_pid = np.empty(0, dtype=np.intp)
        self._multi: list[int] = []

        self.n_areas = 0
        self.n_clauses = 0
        self._pred_table = _PredicateTable(self._oracle, metric.stats)
        self._finish_area_layer([], np.zeros((0, 0), dtype=float))
        self.extend(areas)

    def extend(self, areas: Sequence) -> None:
        """Append ``areas`` to the pack, keeping every existing
        predicate/clause/area id stable.

        The grown pack is **bitwise-identical** to a from-scratch pack
        over the concatenated area list: appending preserves the
        first-seen enumeration order of the dedup pass, predicate and
        clause entries are independent per pair, and the best-match
        table's exact ``min`` is order-insensitive.  The first fill is
        an ``extend`` from empty.  Raises :class:`KernelUnsupported` —
        *before* mutating any state — when a new area's predicates
        cannot be replayed exactly; callers can keep using the
        unmodified pack after catching it.

        Requires the statistics catalog used at construction to be
        unchanged since: widened access intervals would silently
        invalidate the old predicate rows (the incremental clustering
        layer freezes a private snapshot for exactly this reason).
        """
        areas = list(areas)
        if not areas:
            return
        # -- tentative dedup: new ids wait in overlays until commit ----
        c_old = self.n_clauses
        new_clause_ids: dict[Clause, int] = {}
        area_clause_ids = []
        for area in areas:
            ids = []
            for clause in area.cnf.clauses:
                cid = self._clause_ids.get(clause)
                if cid is None:
                    cid = new_clause_ids.setdefault(
                        clause, c_old + len(new_clause_ids))
                ids.append(cid)
            area_clause_ids.append(ids)

        p_old = self.n_predicates
        new_pred_ids: dict = {}
        new_clause_pred_ids = []
        for clause in new_clause_ids:
            ids = []
            for pred in clause.predicates:
                pid = self._pred_ids.get(pred)
                if pid is None:
                    pid = new_pred_ids.setdefault(
                        pred, p_old + len(new_pred_ids))
                ids.append(pid)
            new_clause_pred_ids.append(ids)
        new_preds = list(new_pred_ids)
        _check_supported(new_preds)
        # Packing the new predicates raises KernelUnsupported for
        # constants it cannot replay bitwise, so it runs before any
        # commit; nothing below this point can fail.
        planned = self._pred_table.plan(new_preds)

        # -- commit ----------------------------------------------------
        self._clause_ids.update(new_clause_ids)
        self._pred_ids.update(new_pred_ids)
        self._preds.extend(new_preds)
        # Entries between old predicates are untouched: only the new
        # rows and columns are computed, and every old clause entry
        # built from the old rows remains valid.
        self._pred_table.commit(planned)
        c = c_old + len(new_clause_pred_ids)
        self._clause_len = _grow(self._clause_len, c)
        self._unit_pid = _grow(self._unit_pid, c)
        for cid, ids in enumerate(new_clause_pred_ids, start=c_old):
            self._clause_pred_ids.append(ids)
            self._clause_len[cid] = len(ids)
            self._unit_pid[cid] = ids[0] if len(ids) == 1 else -1
            if len(ids) >= 2:
                self._multi.append(cid)
        if self.n_areas == 0:
            # First fill: the best-match table in one vectorized pass.
            self.n_clauses = c
            self.n_areas = len(area_clause_ids)
            self._finish_area_layer(area_clause_ids,
                                    self._clause_rows(0))
        else:
            if c > c_old:
                self._append_clause_rows(self._clause_rows(c_old))
            self._append_area_columns(area_clause_ids)

    # -- growable views -----------------------------------------------------
    #
    # The clause and area layers live in capacity-doubled buffers so a
    # streaming insert appends rows/columns instead of reallocating
    # O(c·m) state; the public ``_dc``/``_best``/``_counts``/``_id_pad``
    # names are views of the live region.  Downstream consumers only
    # ever *gather* from these (fancy indexing copies into fresh
    # C-contiguous arrays), so the strided views preserve the bitwise
    # summation-order guarantees documented on each method.

    @property
    def n_predicates(self) -> int:
        return self._pred_table.n

    @property
    def _dp(self) -> "np.ndarray":
        return self._pred_table.dp

    @property
    def _dc(self) -> "np.ndarray":
        return self._dc_ext_buf[:self.n_clauses, :self.n_clauses]

    @property
    def _dc_ext(self) -> "np.ndarray":
        return self._dc_ext_buf[:self.n_clauses, :self.n_clauses + 1]

    @property
    def _counts(self) -> "np.ndarray":
        return self._counts_buf[:self.n_areas]

    @property
    def _id_pad(self) -> "np.ndarray":
        return self._id_pad_buf[:self.n_areas]

    @property
    def _best(self) -> "np.ndarray":
        return self._best_buf[:self.n_clauses, :self.n_areas]

    # -- clause layer -------------------------------------------------------

    def _clause_rows(self, c_old: int) -> "np.ndarray":
        """``d_disj`` rows of the clauses at ids ``c_old..`` against
        *every* clause (old and new).

        Unit×unit pairs are a gather of the predicate table, the rare
        non-unit pairs run the symmetric best-match average over its
        slices.  Each pair runs the same formula whichever side is new,
        so stacking these rows under (and their transpose beside) an
        existing block reproduces the from-scratch matrix bitwise;
        ``c_old = 0`` is the from-scratch matrix.
        """
        dp = self._dp
        clause_pred_ids = self._clause_pred_ids
        c = len(clause_pred_ids)
        rows = np.ones((c - c_old, c), dtype=float)
        lengths = self._clause_len[:c]

        unit = np.flatnonzero(lengths == 1)
        new_unit = unit[unit >= c_old]
        if len(new_unit):
            rows[np.ix_(new_unit - c_old, unit)] = \
                dp[np.ix_(self._unit_pid[new_unit], self._unit_pid[unit])]
        empty = np.flatnonzero(lengths == 0)
        new_empty = empty[empty >= c_old]
        if len(new_empty):
            rows[np.ix_(new_empty - c_old, empty)] = 0.0

        for ci in self._multi:
            ids1 = np.asarray(clause_pred_ids[ci], dtype=np.intp)
            n1 = len(ids1)
            # Old-old pairs are retained from the existing block; an old
            # multi clause only pairs against the new id range.
            for cj in range(c_old if ci < c_old else 0, c):
                n2 = int(lengths[cj])
                if n2 == 0 or cj == ci:
                    continue
                if n2 >= 2 and cj < ci:
                    continue  # symmetric, already filled
                sub = dp[np.ix_(ids1, np.asarray(clause_pred_ids[cj],
                                                 dtype=np.intp))]
                # Python-loop totals: 1-D ndarray.sum is not
                # left-to-right beyond 8 elements, the oracle's ``+=``
                # loop is.
                forward = 0.0
                for value in sub.min(axis=1).tolist():
                    forward += value
                backward = 0.0
                for value in sub.min(axis=0).tolist():
                    backward += value
                value = (forward + backward) / (n1 + n2)
                if ci >= c_old:
                    rows[ci - c_old, cj] = value
                if cj >= c_old:
                    rows[cj - c_old, ci] = value
        rows[np.arange(c - c_old), np.arange(c_old, c)] = 0.0
        return rows

    # -- area layer ---------------------------------------------------------

    def _finish_area_layer(self, area_clause_ids: list[list[int]],
                           dc: "np.ndarray") -> None:
        m = self.n_areas
        c = self.n_clauses
        counts = np.array([len(ids) for ids in area_clause_ids],
                          dtype=np.intp)
        self._ids = [np.asarray(ids, dtype=np.intp)
                     for ids in area_clause_ids]
        lmax = int(counts.max()) if m else 0
        self._l_cap = max(lmax, 1)
        self._m_cap = max(m, 4)
        self._c_cap = max(c, 4)
        self._counts_buf = np.zeros(self._m_cap, dtype=np.intp)
        self._counts_buf[:m] = counts
        # Padded clause-id matrix: pad index ``c`` addresses a sentinel
        # column/value in the extended tables below; the sentinel index
        # is remapped whenever the clause layer grows.
        self._id_pad_buf = np.full((self._m_cap, self._l_cap), c,
                                   dtype=np.intp)
        for row, ids in enumerate(area_clause_ids):
            self._id_pad_buf[row, :len(ids)] = ids
        self._dc_ext_buf = np.full(
            (self._c_cap, self._c_cap + 1), np.inf)
        self._dc_ext_buf[:c, :c] = dc
        # best_match[k, j] = min over area j's clauses of d_disj(k, ·):
        # the shared inner term of both direction sums.
        best = self._best_buf = np.full((self._c_cap, self._m_cap),
                                        np.inf)
        dc_ext = self._dc_ext
        for level in range(lmax):
            np.minimum(best[:c, :m], dc_ext[:, self._id_pad[:, level]],
                       out=best[:c, :m])
        self._row_cache: Optional[tuple[int, np.ndarray]] = None

    def _append_clause_rows(self, rows: "np.ndarray") -> None:
        """Commit :meth:`_clause_rows` output: grow the clause dimension of
        the ``d_disj`` and best-match tables and remap the pad
        sentinel."""
        c_old = self.n_clauses
        c = c_old + rows.shape[0]
        if c > self._c_cap:
            cap = max(self._c_cap * 2, c)
            dc_buf = np.full((cap, cap + 1), np.inf)
            dc_buf[:c_old, :c_old] = self._dc_ext_buf[:c_old, :c_old]
            self._dc_ext_buf = dc_buf
            best_buf = np.full((cap, self._m_cap), np.inf)
            best_buf[:c_old] = self._best_buf[:c_old]
            self._best_buf = best_buf
            self._c_cap = cap
        buf = self._dc_ext_buf
        buf[c_old:c, :c] = rows
        buf[:c_old, c_old:c] = rows[:, :c_old].T
        buf[:c, c] = np.inf
        # Old pad rows address the former sentinel column: remap.
        self._id_pad_buf[self._id_pad_buf == c_old] = c
        self.n_clauses = c
        # Best-match rows of the new clauses against every existing
        # area, by the same exact min-gather the full build performs.
        m = self.n_areas
        if m:
            new = self._best_buf[c_old:c, :m]
            new[:] = np.inf
            for level in range(self._l_cap):
                np.minimum(
                    new,
                    buf[c_old:c, :][:, self._id_pad_buf[:m, level]],
                    out=new)
        self._row_cache = None

    def _append_area_columns(
            self, area_clause_ids: list[list[int]]) -> None:
        """Append per-area columns for new members (clause layer must
        already cover their clause ids)."""
        c = self.n_clauses
        m_old = self.n_areas
        m = m_old + len(area_clause_ids)
        need_l = max((len(ids) for ids in area_clause_ids), default=0)
        if need_l > self._l_cap:
            pad = np.full((self._m_cap, max(need_l, 2 * self._l_cap)),
                          c, dtype=np.intp)
            pad[:, :self._l_cap] = self._id_pad_buf
            self._id_pad_buf = pad
            self._l_cap = pad.shape[1]
        if m > self._m_cap:
            cap = max(self._m_cap * 2, m)
            counts = np.zeros(cap, dtype=np.intp)
            counts[:m_old] = self._counts_buf[:m_old]
            self._counts_buf = counts
            pad = np.full((cap, self._l_cap), c, dtype=np.intp)
            pad[:m_old] = self._id_pad_buf[:m_old]
            self._id_pad_buf = pad
            best = np.full((self._c_cap, cap), np.inf)
            best[:, :m_old] = self._best_buf[:, :m_old]
            self._best_buf = best
            self._m_cap = cap
        for offset, ids in enumerate(area_clause_ids):
            row = m_old + offset
            arr = np.asarray(ids, dtype=np.intp)
            self._ids.append(arr)
            self._counts_buf[row] = len(arr)
            self._id_pad_buf[row, :] = c
            self._id_pad_buf[row, :len(arr)] = arr
            if len(arr):
                self._best_buf[:c, row] = \
                    self._dc_ext_buf[:c, arr].min(axis=1)
            else:
                self._best_buf[:c, row] = np.inf
        self.n_areas = m
        self._row_cache = None

    @property
    def storage_floats(self) -> int:
        """Floats held by the pack's tables (predicate + clause +
        best-match layers) — the sub-quadratic footprint that replaces
        the partition's ``m·(m−1)/2`` condensed block."""
        return int(self._dp.size + self._dc_ext.size + self._best.size)

    def _forward_row(self, i: int) -> Optional[np.ndarray]:
        """``Σ_{o ∈ cnf_i} min_{o' ∈ cnf_j} d_disj(o, o')`` for every j.

        The axis-0 reduction of the C-contiguous row gather adds the
        clause rows strictly left-to-right — the oracle's ``forward +=``
        order — so the sums are bitwise-identical.
        """
        if not self._counts[i]:
            return None
        return self._best[self._ids[i]].sum(axis=0)

    def condensed_block(self) -> "np.ndarray":
        """The partition's full condensed ``d_conj`` upper triangle,
        bitwise-equal to the pure-Python per-pair evaluation."""
        m = self.n_areas
        counts = self._counts
        out = np.zeros(m * (m - 1) // 2, dtype=float)
        denom = np.ones_like(out)
        for i in range(m):
            row = self._forward_row(i)
            start = i * (2 * m - i - 1) // 2
            if i + 1 < m:
                stop = start + m - 1 - i
                if row is not None:
                    out[start:stop] += row[i + 1:]
                denom[start:stop] = counts[i] + counts[i + 1:]
            if i > 0 and row is not None:
                js = np.arange(i)
                back = js * (2 * m - js - 1) // 2 + (i - js - 1)
                out[back] += row[:i]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = out / denom
        self._fix_empty_pairs(values)
        return values

    def _fix_empty_pairs(self, values: "np.ndarray") -> None:
        """Replay the oracle's empty-CNF rules (both empty → 0, one
        empty → 1) over the condensed layout."""
        zero = self._counts == 0
        if not zero.any():
            return
        m = self.n_areas
        for i in range(m - 1):
            start = i * (2 * m - i - 1) // 2
            segment = values[start:start + m - 1 - i]
            later_zero = zero[i + 1:]
            if zero[i]:
                segment[later_zero] = 0.0
                segment[~later_zero] = 1.0
            elif later_zero.any():
                segment[later_zero] = 1.0

    def clause_best(self, i: int) -> "np.ndarray":
        """``v[c] = min over area i's clauses of d_disj(c, ·)`` for every
        distinct clause ``c``, padded with a trailing 0.0 sentinel —
        the shared backward-direction ingredient of :meth:`pair_rows`
        and of the metric index's certified pruning bounds."""
        cached = self._row_cache
        if cached is not None and cached[0] == i:
            return cached[1]
        v = self._dc[:, self._ids[i]].min(axis=1) \
            if self.n_clauses and self._counts[i] else \
            np.full(self.n_clauses, np.inf)
        v_ext = np.append(v, 0.0)
        self._row_cache = (i, v_ext)
        return v_ext

    def pair_rows(self, i: int, js: Sequence[int]) -> "np.ndarray":
        """``d_conj`` from area ``i`` to each area in ``js``, bitwise-
        equal to the condensed block entries (one-vs-many form for the
        metric-tree index)."""
        js = np.asarray(js, dtype=np.intp)
        counts = self._counts
        n_i = int(counts[i])
        if n_i == 0:
            return np.where(counts[js] == 0, 0.0, 1.0)
        forward = self._best[self._ids[i]][:, js].sum(axis=0)
        v_ext = self.clause_best(i)
        # C-contiguous transposed gather: each backward sum runs down a
        # column left-to-right, trailing pad zeros are order-neutral.
        back_ids = np.ascontiguousarray(self._id_pad[js].T)
        backward = v_ext[back_ids].sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (forward + backward) / (n_i + counts[js])
        other_zero = counts[js] == 0
        if other_zero.any():
            values[other_zero] = 1.0
        return values


def _check_supported(preds: Sequence) -> None:
    for pred in preds:
        if isinstance(pred, ColumnColumnPredicate):
            continue
        if not isinstance(pred, ColumnConstantPredicate):
            raise KernelUnsupported(
                f"unsupported predicate kind {type(pred).__name__}")
        value = pred.value
        if isinstance(value, bool):
            # ``True == 1`` makes bool/int predicate identity — and
            # therefore the oracle's own memo — evaluation-order
            # dependent; only the true per-pair path reproduces it.
            raise KernelUnsupported(
                "boolean constants are not replayable bitwise")
        if isinstance(value, str):
            continue
        if isinstance(value, (int, float)):
            try:
                numeric = float(value)
            except OverflowError as exc:
                raise KernelUnsupported(
                    f"constant {value!r} overflows float64") from exc
            if not math.isfinite(numeric):
                raise KernelUnsupported(
                    f"non-finite constant {value!r}")
            continue
        raise KernelUnsupported(
            f"unsupported constant type {type(value).__name__}")


# -- predicate layer ---------------------------------------------------------


def _grow(buf: "np.ndarray", rows: int, fill=0) -> "np.ndarray":
    """``buf`` with room for ``rows`` leading rows: ``buf`` itself while
    it fits, else a copy at (at least) double the capacity, so appends
    cost amortised O(1) copies per row."""
    if rows <= buf.shape[0]:
        return buf
    out = np.full((max(2 * buf.shape[0], rows, 4),) + buf.shape[1:],
                  fill, dtype=buf.dtype)
    out[:buf.shape[0]] = buf
    return out


class _Group:
    """Predicates under one same-group ``d_pred`` rule — one numeric
    column, one categorical column, or every join — with each member's
    packed quantities stored once, in first-seen order.

    :meth:`plan` derives a new member's quantities (and is the only
    step that may raise :class:`KernelUnsupported`); :meth:`append`
    stores them; :meth:`block` evaluates ``d_pred`` for member rows
    against member columns as array operations.
    """

    #: ``block(a, b)`` is the transpose of ``block(b, a)`` bit for bit
    symmetric = True

    def __init__(self) -> None:
        self.n = 0
        self.pids = np.empty(0, dtype=np.intp)

    def append(self, pid: int, packed) -> None:
        self.pids = _grow(self.pids, self.n + 1)
        self.pids[self.n] = pid
        self._store(self.n, packed)
        self.n += 1

    def plan(self, pred, oracle: PredicateDistance):
        raise NotImplementedError

    def _store(self, row: int, packed) -> None:
        raise NotImplementedError

    def block(self, rows: slice, cols: slice) -> "np.ndarray":
        raise NotImplementedError


class _KeyGroup(_Group):
    """``near`` on equal structural keys, 1.0 elsewhere: joins over one
    column pair (0.5), and numeric columns whose access width is
    unbounded or zero (0.0, the oracle's degenerate-access rule)."""

    def __init__(self, key, near: float) -> None:
        super().__init__()
        self._key = key
        self._near = near
        self._ids: dict = {}
        self._key_ids = np.empty(0, dtype=np.intp)

    def plan(self, pred, oracle: PredicateDistance):
        return self._key(pred)

    def _store(self, row: int, packed) -> None:
        self._key_ids = _grow(self._key_ids, row + 1)
        self._key_ids[row] = self._ids.setdefault(packed, len(self._ids))

    def block(self, rows: slice, cols: slice) -> "np.ndarray":
        ids = self._key_ids
        return np.where(ids[rows, None] == ids[None, cols],
                        self._near, 1.0)


class _IntervalGroup(_Group):
    """Same-column numeric ``d_pred``: Jaccard of widened footprints.

    Footprints, their total widths and their structural identities come
    from the oracle itself; only the pairwise intersection widths are
    vectorized — slot by slot in the oracle's sorted accumulation order,
    with empty slots as reversed-infinity sentinels whose clipped
    contribution is exactly 0.0.  Entry ``(a, b)`` sums ``a``'s slots in
    the outer loop, so ``block(a, b)`` is not taken to be the transpose
    of ``block(b, a)``.
    """

    symmetric = False

    def __init__(self, access) -> None:
        super().__init__()
        self._access = access
        #: widest footprint so far; narrower rows only add sentinel 0.0s
        self._slots = 1
        self._lo = np.empty((0, _MAX_SLOTS))
        self._hi = np.empty((0, _MAX_SLOTS))
        self._widths = np.empty(0)
        self._empty = np.empty(0, dtype=bool)
        self._structure = np.empty(0, dtype=np.intp)
        self._structure_ids: dict = {}

    def plan(self, pred, oracle: PredicateDistance):
        footprint = oracle._widened(pred, self._access)
        if len(footprint) > _MAX_SLOTS:
            raise KernelUnsupported(
                f"footprint with {len(footprint)} intervals exceeds the "
                f"packed slot budget")
        lo = [_exact(interval.lo) for interval in footprint]
        hi = [_exact(interval.hi) for interval in footprint]
        width = _exact(footprint.total_width)
        if not math.isfinite(2.0 * width):
            # w1 + w2 could overflow to inf and drag the union through
            # inf − inf = NaN, where numpy's maximum() and Python's max()
            # disagree; leave such pathologies to the oracle.
            raise KernelUnsupported("footprint widths overflow float64")
        return footprint, lo, hi, width

    def _store(self, row: int, packed) -> None:
        footprint, lo, hi, width = packed
        self._lo = _grow(self._lo, row + 1, np.inf)
        self._hi = _grow(self._hi, row + 1, -np.inf)
        self._widths = _grow(self._widths, row + 1)
        self._empty = _grow(self._empty, row + 1)
        self._structure = _grow(self._structure, row + 1)
        self._lo[row, :len(lo)] = lo
        self._hi[row, :len(hi)] = hi
        self._widths[row] = width
        self._empty[row] = footprint.is_empty
        self._structure[row] = self._structure_ids.setdefault(
            footprint, len(self._structure_ids))
        self._slots = max(self._slots, len(lo))

    def block(self, rows: slice, cols: slice) -> "np.ndarray":
        lo_a, hi_a = self._lo[rows], self._hi[rows]
        lo_b, hi_b = self._lo[cols], self._hi[cols]
        inter = np.zeros((len(lo_a), len(lo_b)))
        for s in range(self._slots):
            for t in range(self._slots):
                segment = (np.minimum(hi_a[:, s, None], hi_b[None, :, t])
                           - np.maximum(lo_a[:, s, None], lo_b[None, :, t]))
                inter = inter + np.maximum(segment, 0.0)
        union = (self._widths[rows, None] + self._widths[None, cols]) \
            - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            block = np.maximum(0.0, 1.0 - inter / union)
        degenerate = union <= 0.0
        if degenerate.any():
            structure = self._structure
            same = (structure[rows, None] == structure[None, cols]) \
                & ~self._empty[rows, None]
            block = np.where(degenerate, np.where(same, 0.0, 1.0), block)
        return block


class _BitsGroup(_Group):
    """Same-column categorical ``d_pred`` over bitset footprint rows.

    Values get bit positions in first-seen order, append-only; the
    intersection and union popcounts do not depend on positions, so the
    Jaccard entries equal a sorted-universe layout's bit for bit.
    """

    def __init__(self, vocabulary: frozenset) -> None:
        super().__init__()
        self._vocabulary = vocabulary
        self._positions: dict[str, int] = {}
        self._bits = np.zeros((0, 1), dtype=np.uint64)

    def plan(self, pred, oracle: PredicateDistance):
        return _categorical_footprint(pred, self._vocabulary)

    def _store(self, row: int, packed) -> None:
        self._bits = _grow(self._bits, row + 1)
        positions = self._positions
        for value in packed:
            k = positions.setdefault(value, len(positions))
            if k >> 6 >= self._bits.shape[1]:
                wider = np.zeros((self._bits.shape[0],
                                  2 * self._bits.shape[1]), dtype=np.uint64)
                wider[:, :self._bits.shape[1]] = self._bits
                self._bits = wider
            self._bits[row, k >> 6] |= np.uint64(1 << (k & 63))

    def block(self, rows: slice, cols: slice) -> "np.ndarray":
        words = max((len(self._positions) + 63) // 64, 1)
        a = self._bits[rows, None, :words]
        b = self._bits[None, cols, :words]
        inter = np.bitwise_count(a & b).sum(axis=2, dtype=np.int64)
        union = np.bitwise_count(a | b).sum(axis=2, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            block = 1.0 - inter / union
        return np.where(union == 0, 0.0, block)


def _join_key(pred: ColumnColumnPredicate) -> tuple:
    # Operand order is canonical, so the ordered qualified-name pair is
    # exactly the unordered column-pair key the oracle compares.
    return (pred.left.qualified, pred.right.qualified)


def _op_value_key(pred: ColumnConstantPredicate) -> tuple:
    return (pred.op, normalize_constant(pred.value))


def _value_key(pred: ColumnConstantPredicate) -> tuple:
    return normalize_constant(pred.value)


class _PredicateTable:
    """Growable pairwise ``d_pred`` over a pack's distinct predicates.

    The default 1.0 covers every structurally-unrelated pair (mixed
    type on one column, categorical across columns, column-column vs
    column-constant); numeric pairs across columns get ``1 − cov·cov``
    and each :class:`_Group` overwrites exactly the same-group pairs the
    oracle treats specially.  Growing by ``k`` predicates computes the
    ``k`` new rows and the new columns only — O(k·P) array work, with
    oracle calls for the ``k`` new predicates only — into a
    capacity-doubled buffer.
    """

    def __init__(self, oracle: PredicateDistance, stats) -> None:
        self._oracle = oracle
        self._stats = stats
        self._groups: dict = {}
        self._buf = np.empty((0, 0))
        self.n = 0
        # Numeric predicates (every column) and their coverage fractions.
        self._num_pids = np.empty(0, dtype=np.intp)
        self._num_cov = np.empty(0)
        self._n_num = 0

    @property
    def dp(self) -> "np.ndarray":
        return self._buf[:self.n, :self.n]

    def _make_group(self, key) -> _Group:
        kind, ref = key
        if kind == "join":
            return _KeyGroup(_join_key, 0.5)
        if kind == "categorical":
            return _BitsGroup(self._stats.access_values(ref))
        access = self._stats.access_interval(ref)
        width = access.width
        if not math.isfinite(width):
            return _KeyGroup(_op_value_key, 0.0)
        if width <= 0:
            return _KeyGroup(_value_key, 0.0)
        return _IntervalGroup(access)

    def plan(self, preds: Sequence) -> tuple[list, dict]:
        """Packed quantities of each new predicate, as
        ``([(group, packed, coverage), ...], new_groups)``.

        Every :class:`KernelUnsupported` check runs here, before
        :meth:`commit` mutates anything.
        """
        oracle = self._oracle
        new_groups: dict = {}
        plans = []
        for pred in preds:
            if isinstance(pred, ColumnColumnPredicate):
                key = ("join", None)
            elif pred.is_numeric:
                key = ("numeric", pred.ref)
            else:
                key = ("categorical", pred.ref)
            group = self._groups.get(key) or new_groups.get(key)
            if group is None:
                group = new_groups[key] = self._make_group(key)
            coverage = oracle._coverage_fraction(pred) \
                if key[0] == "numeric" else None
            plans.append((group, group.plan(pred, oracle), coverage))
        return plans, new_groups

    def commit(self, planned: tuple[list, dict]) -> None:
        """Append planned predicates: fill the new rows (new × all) and
        the new columns (old × new).  Nothing here can fail."""
        plans, new_groups = planned
        self._groups.update(new_groups)
        p_old = self.n
        p = p_old + len(plans)
        num_first = self._n_num
        first: dict = {}
        for offset, (group, packed, coverage) in enumerate(plans):
            first.setdefault(group, group.n)
            group.append(p_old + offset, packed)
            if coverage is not None:
                self._num_pids = _grow(self._num_pids, self._n_num + 1)
                self._num_cov = _grow(self._num_cov, self._n_num + 1)
                self._num_pids[self._n_num] = p_old + offset
                self._num_cov[self._n_num] = coverage
                self._n_num += 1

        if p > self._buf.shape[0]:
            buf = np.empty((max(2 * self._buf.shape[0], p, 4),) * 2)
            buf[:p_old, :p_old] = self.dp
            self._buf = buf
        rows = self._buf[p_old:p, :p]
        rows[:] = 1.0
        if self._n_num > num_first:
            # Cross-column numeric pairs: 1 − cov·cov everywhere; the
            # same-column groups are overwritten right after.
            cov = self._num_cov[:self._n_num]
            pids = self._num_pids[:self._n_num]
            rows[np.ix_(pids[num_first:] - p_old, pids)] = \
                1.0 - cov[num_first:, None] * cov[None, :]
        for group, start in first.items():
            pids = group.pids[:group.n]
            rows[np.ix_(pids[start:] - p_old, pids)] = \
                group.block(slice(start, group.n), slice(0, group.n))
        rows[np.arange(p - p_old), np.arange(p_old, p)] = 0.0
        self._buf[:p_old, p_old:p] = rows[:, :p_old].T
        for group, start in first.items():
            if start and not group.symmetric:
                pids = group.pids[:group.n]
                self._buf[np.ix_(pids[:start], pids[start:])] = \
                    group.block(slice(0, start), slice(start, group.n))
        self.n = p


# -- partition blocks --------------------------------------------------------


def _evaluate_partition(metric, items: Sequence,
                        members: Sequence[int]) -> list[float]:
    """The per-pair oracle block of one partition: ``metric`` over every
    member pair, row-major condensed upper triangle."""
    subset = [items[index] for index in members]
    m = len(subset)
    return [metric(subset[a], subset[b])
            for a in range(m) for b in range(a + 1, m)]


def compute_kernel_blocks(items: Sequence, metric,
                          members: Sequence[Sequence[int]],
                          ) -> tuple[list, KernelStats]:
    """Condensed blocks for each partition, vectorized where possible.

    Returns one row-major condensed upper triangle per member list plus
    the run's :class:`KernelStats`.  Partitions the pack cannot replay
    bitwise fall back to the per-pair pure-Python oracle, so every block
    equals the oracle's exactly.
    """
    stats = KernelStats()
    blocks: list = []
    with trace.span("kernel_blocks", partitions=len(members)):
        for member_list in members:
            started = time.perf_counter()
            try:
                subset = [items[k] for k in member_list]
                pack = PackedPartition(subset, metric)
                stats.pack_seconds += time.perf_counter() - started
                block_started = time.perf_counter()
                block = pack.condensed_block()
                stats.block_seconds += \
                    time.perf_counter() - block_started
                stats.partitions_packed += 1
                stats.n_predicates += pack.n_predicates
                stats.n_clauses += pack.n_clauses
                stats.pairs_vectorized += len(block)
                blocks.append(block)
            except KernelUnsupported as exc:
                logger.debug("kernel fallback for %d-area partition: %s",
                             len(member_list), exc)
                values = _evaluate_partition(metric, items, member_list)
                stats.partitions_fallback += 1
                stats.pairs_fallback += len(values)
                blocks.append(values)
    logger.debug("kernel blocks: %s", stats.summary())
    return blocks, stats
