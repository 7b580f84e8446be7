"""Differential conformance battery: vectorized kernel vs oracle.

The kernel's contract is *bitwise* agreement with the pure-Python
:class:`PredicateDistance`/:class:`QueryDistance` oracle, not just
closeness: hypothesis generates predicate populations across every
supported kind — numeric intervals and rays (GE/GT/LE/LT), equality and
inequality points, categorical EQ/NE and ordered LT–GE footprints,
column-column joins, multi-predicate and empty (FALSE) clauses, TRUE
(empty-CNF) areas, duplicate spelling variants (``x = 5`` vs
``x = 5.0``) — and every condensed block entry must equal the oracle's
per-pair evaluation exactly (the issue's 1e-12 budget is therefore met
with zero slack).

Edge cases the kernel must *refuse* rather than approximate — NaN/inf
constants, bool constants whose ``True == 1`` identity makes even the
oracle order-dependent, > 2^53 integers at resolution 0, footprint
widths that overflow float64 — are pinned separately: the partition
falls back to the oracle path and the produced block still matches by
construction.

The dense matrix runs the same pack over a *mixed* population (several
table sets at once) and adds the ``d_tables`` term itself; its entries
must equal ``metric(a, b)`` bit for bit too.

A pack grown by ``extend`` in random chunks must hold the one-shot
pack's tables bit for bit, a refused ``extend`` must leave it untouched,
and growing by one area must pack only that area's new predicates.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import (ColumnColumnPredicate,
                                      ColumnConstantPredicate, ColumnRef,
                                      Op)
from repro.core.area import AccessArea
from repro.distance import DistanceMatrix, QueryDistance, condensed_index
from repro.distance import kernel as kernel_module
from repro.distance.kernel import (KernelUnsupported, PackedPartition,
                                   compute_kernel_blocks)
from repro.distance.predicate_distance import PredicateDistance
from repro.obs.metrics import MetricsRegistry
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)

def _dist_stats():
    """The conftest ``stats`` catalog, rebuilt per hypothesis example
    (function-scoped fixtures are off-limits under ``@given``)."""
    schema = Schema("dist")
    schema.add(Relation("T", (
        Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("a1", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("a2", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("s", ColumnType.VARCHAR, categories=("x", "y", "z")),
    )))
    schema.add(Relation("S", (
        Column("b", ColumnType.FLOAT, Interval(0.0, 10.0)),
        Column("u", ColumnType.FLOAT, Interval(0.0, 10.0)),
    )))
    return StatisticsCatalog.from_exact_content(schema, {
        ("T", "a"): Interval(0.0, 5.0),
        ("T", "a1"): Interval(0.0, 5.0),
        ("T", "a2"): Interval(0.0, 5.0),
        ("S", "b"): Interval(0.0, 10.0),
        ("S", "u"): Interval(0.0, 10.0),
    })


T_A = ColumnRef("T", "a")
T_A1 = ColumnRef("T", "a1")
T_A2 = ColumnRef("T", "a2")
T_S = ColumnRef("T", "s")

OPS = list(Op)


def _oracle_block(stats, areas, resolution):
    """Per-pair pure-Python condensed block with a fresh metric (no
    cache cross-talk with the kernel's pack-time oracle calls)."""
    metric = QueryDistance(stats, resolution=resolution)
    m = len(areas)
    return [metric(areas[a], areas[b])
            for a in range(m) for b in range(a + 1, m)]


def _assert_block_matches(stats, areas, resolution, *,
                          expect_packed=None):
    metric = QueryDistance(stats, resolution=resolution)
    blocks, kstats = compute_kernel_blocks(
        areas, metric, [list(range(len(areas)))])
    if expect_packed is True:
        assert kstats.partitions_packed == 1, kstats.summary()
    if expect_packed is False:
        assert kstats.partitions_fallback == 1, kstats.summary()
    want = _oracle_block(stats, areas, resolution)
    got = list(blocks[0])
    assert len(got) == len(want)
    for pair, (value, reference) in enumerate(zip(got, want)):
        assert value == reference, (
            f"pair {pair}: kernel {value!r} != oracle {reference!r}")
    return kstats


# -- strategies --------------------------------------------------------------

numeric_values = st.one_of(
    st.floats(min_value=-10.0, max_value=15.0, allow_nan=False),
    st.integers(min_value=-5, max_value=10),
    st.sampled_from([5, 5.0, 2.5, 0.0, -0.0]))

numeric_predicates = st.builds(
    ColumnConstantPredicate,
    st.sampled_from([T_A, T_A1, T_A2]),
    st.sampled_from(OPS),
    numeric_values)

categorical_predicates = st.builds(
    ColumnConstantPredicate,
    st.just(T_S),
    st.sampled_from(OPS),
    st.sampled_from(["x", "y", "z", "w", ""]))

# Strings on a numeric column: the oracle's mixed-type and empty-
# vocabulary branches.
mixed_type_predicates = st.builds(
    ColumnConstantPredicate,
    st.just(T_A),
    st.sampled_from([Op.EQ, Op.NE, Op.LT]),
    st.sampled_from(["x", "q"]))

join_predicates = st.builds(
    lambda pair, op: ColumnColumnPredicate(pair[0], op, pair[1]),
    st.sampled_from([(T_A, T_A1), (T_A, T_A2), (T_A1, T_A2)]),
    st.sampled_from([Op.EQ, Op.LT, Op.GE]))

predicates = st.one_of(
    numeric_predicates, numeric_predicates, numeric_predicates,
    categorical_predicates, join_predicates, mixed_type_predicates)

clauses = st.lists(predicates, min_size=0, max_size=3).map(Clause.of)

areas = st.lists(clauses, min_size=0, max_size=4).map(
    lambda cl: AccessArea(("T",), CNF.of(cl)))

populations = st.lists(areas, min_size=1, max_size=10)

resolutions = st.sampled_from([0.0, 0.01, 0.05])

S_B = ColumnRef("S", "b")
S_U = ColumnRef("S", "u")

# Mixed populations for the dense matrix: three table sets, predicates
# on both relations (cross-relation pairs take the coverage path).
mixed_predicates = st.one_of(
    predicates,
    st.builds(ColumnConstantPredicate, st.sampled_from([S_B, S_U]),
              st.sampled_from(OPS), numeric_values))

mixed_areas = st.builds(
    lambda relations, cl: AccessArea(relations, CNF.of(cl)),
    st.sampled_from([("T",), ("S",), ("S", "T")]),
    st.lists(st.lists(mixed_predicates, min_size=0, max_size=3)
             .map(Clause.of), min_size=0, max_size=4))


def _assert_dense_matches(stats, areas, resolution, cutoff, *,
                          expect_packed):
    """Every dense entry is bitwise ``metric(a, b)`` — or, above the
    cutoff, the ``d_tables`` lower bound stored in its place."""
    registry = MetricsRegistry()
    matrix = DistanceMatrix.compute(
        areas, QueryDistance(stats, resolution=resolution), cutoff=cutoff,
        registry=registry)
    if matrix.stats.pairs_computed:
        mode = "kernel" if expect_packed else "serial"
        assert registry.histogram("repro_distance_chunk_seconds",
                                  mode=mode).count == 1
    oracle = QueryDistance(stats, resolution=resolution)
    n = len(areas)
    for i in range(n):
        for j in range(i + 1, n):
            want = oracle(areas[i], areas[j])
            d_tables = oracle.d_tables(areas[i], areas[j])
            if cutoff is not None and d_tables > cutoff:
                want = d_tables
            got = matrix.condensed[condensed_index(i, j, n)]
            assert struct.pack("<d", got) == struct.pack("<d", want), (
                f"pair ({i}, {j}): matrix {got!r} != oracle {want!r}")
    return matrix


class TestHypothesisConformance:
    @settings(max_examples=60, deadline=None)
    @given(population=populations, resolution=resolutions)
    def test_block_values_match_oracle_bitwise(self, population,
                                               resolution):
        _assert_block_matches(_dist_stats(), population, resolution,
                              expect_packed=True)

    @settings(max_examples=30, deadline=None)
    @given(population=st.lists(areas, min_size=2, max_size=8),
           resolution=resolutions)
    def test_pair_rows_match_condensed_block(self, population,
                                             resolution):
        metric = QueryDistance(_dist_stats(), resolution=resolution)
        pack = PackedPartition(population, metric)
        block = pack.condensed_block()
        m = len(population)
        for i in range(m):
            others = [j for j in range(m) if j != i]
            row = pack.pair_rows(i, others)
            for j, value in zip(others, row):
                assert value == block[condensed_index(i, j, m)]
            assert pack.pair_rows(i, [i])[0] == 0.0


class TestDenseMatrixConformance:
    @settings(max_examples=40, deadline=None)
    @given(population=st.lists(mixed_areas, min_size=2, max_size=10),
           resolution=resolutions,
           cutoff=st.sampled_from([None, 0.12, 0.6]))
    def test_mixed_table_sets_match_oracle_bitwise(self, population,
                                                   resolution, cutoff):
        _assert_dense_matches(_dist_stats(), population, resolution,
                              cutoff, expect_packed=True)


def _area(*clause_preds):
    return AccessArea(("T",), CNF.of(
        [Clause.of(list(preds)) for preds in clause_preds]))


class TestSpellingVariants:
    """Value-equal predicate spellings must share one packed row the
    way they share one oracle memo entry."""

    def test_int_float_duplicates_in_one_cnf(self, stats):
        # CNF.of dedupes clauses by *string*, so ``a = 5`` and
        # ``a = 5.0`` survive as distinct clauses that are value-equal:
        # the pack must keep both positions.
        a1 = _area([ColumnConstantPredicate(T_A, Op.EQ, 5)],
                   [ColumnConstantPredicate(T_A, Op.EQ, 5.0)])
        a2 = _area([ColumnConstantPredicate(T_A, Op.GE, 2.0)])
        _assert_block_matches(stats, [a1, a2, a1], 0.01,
                              expect_packed=True)


class TestUnsupportedFallsBackExactly:
    """Kinds the kernel refuses: the partition falls back to the
    per-pair oracle and still matches it (trivially, but the plumbing —
    stats, block shapes, mixed populations — is what's under test)."""

    def test_nan_constant(self, stats):
        bad = _area([ColumnConstantPredicate(T_A, Op.EQ, math.nan)])
        good = _area([ColumnConstantPredicate(T_A, Op.LE, 3.0)])
        kstats = _assert_block_matches(stats, [bad, good], 0.01,
                                       expect_packed=False)
        assert kstats.pairs_fallback == 1

    def test_inf_constant(self, stats):
        bad = _area([ColumnConstantPredicate(T_A, Op.LT, math.inf)])
        good = _area([ColumnConstantPredicate(T_A, Op.GT, 1.0)])
        _assert_block_matches(stats, [bad, good], 0.01,
                              expect_packed=False)

    def test_bool_constant(self, stats):
        bad = _area([ColumnConstantPredicate(T_A, Op.EQ, True)])
        good = _area([ColumnConstantPredicate(T_A, Op.EQ, 1)])
        _assert_block_matches(stats, [bad, good], 0.01,
                              expect_packed=False)

    def test_bool_constant_dense_matrix(self, stats):
        # One refused area sends the whole dense fill down the per-pair
        # path; the entries must still be the oracle's.
        s_area = AccessArea(("S",), CNF.of([Clause.of(
            [ColumnConstantPredicate(S_B, Op.GE, 2.0)])]))
        population = [
            _area([ColumnConstantPredicate(T_A, Op.EQ, True)]),
            _area([ColumnConstantPredicate(T_A, Op.LE, 3.0)]),
            _area([ColumnConstantPredicate(T_A1, Op.GT, 1.0)]),
            s_area,
        ]
        with pytest.raises(KernelUnsupported):
            PackedPartition(population, QueryDistance(stats))
        for cutoff in (None, 0.12):
            matrix = _assert_dense_matches(stats, population, 0.01,
                                           cutoff, expect_packed=False)
            assert matrix.stats.pairs_computed > 0

    def test_huge_int_at_resolution_zero(self, stats):
        # > 2^53: not exactly representable in float64, so the width
        # arithmetic the oracle does in exact int space cannot be
        # replayed; at resolution 0 the pack must refuse.
        huge = 2 ** 60 + 1
        a1 = _area([ColumnConstantPredicate(T_A, Op.EQ, huge)])
        a2 = _area([ColumnConstantPredicate(T_A, Op.EQ, huge + 2)])
        _assert_block_matches(stats, [a1, a2], 0.0)

    def test_unsupported_reported_not_raised(self, stats):
        metric = QueryDistance(stats)
        with pytest.raises(KernelUnsupported):
            PackedPartition(
                [_area([ColumnConstantPredicate(T_A, Op.EQ, math.nan)])],
                metric)

    def test_subclassed_metric_refused(self, stats):
        class Tweaked(QueryDistance):
            def d_conj(self, cnf1, cnf2):  # pragma: no cover
                return 0.0

        with pytest.raises(KernelUnsupported):
            PackedPartition(
                [_area([ColumnConstantPredicate(T_A, Op.EQ, 1.0)])],
                Tweaked(stats))


class TestDegenerateAccessWidths:
    """The ``_same_column_numeric`` guard ladder: infinite access width
    → structural (op, value) equality; zero width → value equality."""

    @staticmethod
    def _catalog(interval):
        schema = Schema("edge")
        schema.add(Relation("T", (
            Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),)))
        content = {} if interval is None else {("T", "a"): interval}
        return StatisticsCatalog.from_exact_content(schema, content)

    def test_zero_width_access(self):
        stats = self._catalog(Interval(2.0, 2.0))
        areas_ = [
            _area([ColumnConstantPredicate(T_A, Op.LT, 3.0)]),
            _area([ColumnConstantPredicate(T_A, Op.GT, 3)]),
            _area([ColumnConstantPredicate(T_A, Op.GE, 3.0)]),
        ]
        _assert_block_matches(stats, areas_, 0.01, expect_packed=True)

    def test_unknown_column_infinite_width(self):
        schema = Schema("edge")
        schema.add(Relation("T", (
            Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),)))
        stats = StatisticsCatalog.from_exact_content(schema, {})
        ghost = ColumnRef("T", "ghost")
        areas_ = [
            _area([ColumnConstantPredicate(ghost, Op.LT, 3.0)]),
            _area([ColumnConstantPredicate(ghost, Op.LT, 3)]),
            _area([ColumnConstantPredicate(ghost, Op.GE, 3.0)]),
        ]
        _assert_block_matches(stats, areas_, 0.01, expect_packed=True)

    def test_overflowing_footprint_widths_fall_back(self):
        # Near-max access width: widened footprint widths add past
        # float64, where numpy and Python disagree on NaN propagation —
        # the pack must refuse rather than approximate.
        stats = self._catalog(Interval(-8.0e307, 8.0e307))
        areas_ = [
            _area([ColumnConstantPredicate(T_A, Op.NE, 0.0)]),
            _area([ColumnConstantPredicate(T_A, Op.LE, 1.0)]),
        ]
        _assert_block_matches(stats, areas_, 0.01)


class TestKernelMatrixMode:
    def test_kernel_mode_equals_per_pair_oracle(self, stats):
        from repro.distance.block_sparse import compute_matrix
        population = [
            _area([ColumnConstantPredicate(T_A, Op.LE, float(i))])
            for i in range(5)
        ] + [
            AccessArea(("S",), CNF.of([Clause.of(
                [ColumnConstantPredicate(S_B, Op.GE, float(i))])]))
            for i in range(4)
        ]
        kernel = compute_matrix(population, QueryDistance(stats),
                                mode="kernel", eps=0.12)
        dense = compute_matrix(population, QueryDistance(stats),
                               mode="dense", eps=0.12)
        oracle = QueryDistance(stats)
        n = len(population)
        for i in range(n):
            for j in range(n):
                a, b = population[i], population[j]
                want = 0.0 if i == j else (
                    oracle(a, b) if a.table_set == b.table_set
                    else oracle.d_tables(a, b))
                assert kernel.value(i, j) == want, (i, j)
            assert kernel.neighbors(i, 0.12) == dense.neighbors(i, 0.12)


# -- incremental growth ------------------------------------------------------

T_Z = ColumnRef("T", "z")          # zero-width access: value equality
T_GHOST = ColumnRef("T", "ghost")  # unknown column: unbounded access


def _growth_stats():
    """:func:`_dist_stats` plus a zero-width column ``T.z``; ``T.ghost``
    is undeclared, so its access interval is unbounded."""
    schema = Schema("grow")
    schema.add(Relation("T", (
        Column("a", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("a1", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("a2", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("z", ColumnType.FLOAT, Interval(0.0, 5.0)),
        Column("s", ColumnType.VARCHAR, categories=("x", "y", "z")),
    )))
    return StatisticsCatalog.from_exact_content(schema, {
        ("T", "a"): Interval(0.0, 5.0),
        ("T", "a1"): Interval(0.0, 5.0),
        ("T", "a2"): Interval(0.0, 5.0),
        ("T", "z"): Interval(2.0, 2.0),
    })


growth_predicates = st.one_of(
    # bounded access; NE at resolution 0 is a two-slot footprint
    numeric_predicates, numeric_predicates,
    st.builds(ColumnConstantPredicate, st.sampled_from([T_Z, T_GHOST]),
              st.sampled_from(OPS), numeric_values),
    # a wide alphabet: values keep arriving late and the bitset rows
    # outgrow one uint64 word
    st.builds(ColumnConstantPredicate, st.just(T_S), st.sampled_from(OPS),
              st.sampled_from(["x", "y", "z", ""]
                              + [f"v{k:02d}" for k in range(70)])),
    join_predicates)

growth_areas = st.lists(
    st.lists(growth_predicates, min_size=0, max_size=3).map(Clause.of),
    min_size=0, max_size=4).map(lambda cl: AccessArea(("T",), CNF.of(cl)))


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _grow_in_chunks(areas_, metric, chunks):
    pack = PackedPartition([], metric)
    start = 0
    for size in chunks:
        pack.extend(areas_[start:start + size])
        start += size
    pack.extend(areas_[start:])
    return pack


def _assert_dp_is_oracle(pack, stats, resolution):
    preds = pack._preds
    assert len(preds) == pack.n_predicates == pack._dp.shape[0]
    for i, p1 in enumerate(preds):
        for j, p2 in enumerate(preds):
            want = PredicateDistance(stats, resolution).distance(p1, p2)
            got = float(pack._dp[i, j])
            assert struct.pack("<d", got) == struct.pack("<d", want), (
                f"d_pred({p1}, {p2}): pack {got!r} != oracle {want!r}")


class TestIncrementalGrowth:
    """A pack grown by ``extend`` in arbitrary chunks holds exactly the
    one-shot pack's tables: every ``d_pred`` entry is the oracle's bit
    for bit, and so is every condensed ``d_conj`` entry."""

    @settings(max_examples=40, deadline=None)
    @given(population=st.lists(growth_areas, min_size=1, max_size=14),
           resolution=resolutions,
           chunks=st.lists(st.integers(min_value=1, max_value=4),
                           max_size=14))
    def test_grown_pack_equals_oracle_and_one_shot(self, population,
                                                   resolution, chunks):
        stats = _growth_stats()
        metric = QueryDistance(stats, resolution=resolution)
        grown = _grow_in_chunks(population, metric, chunks)
        _assert_dp_is_oracle(grown, stats, resolution)
        one_shot = PackedPartition(
            population, QueryDistance(stats, resolution=resolution))
        assert _bits(grown._dp) == _bits(one_shot._dp)
        assert _bits(grown.condensed_block()) == \
            _bits(one_shot.condensed_block())

    @settings(max_examples=25, deadline=None)
    @given(population=st.lists(growth_areas, min_size=1, max_size=10),
           resolution=resolutions,
           refused=st.sampled_from(["bool", "slots"]))
    def test_refused_extend_leaves_pack_unchanged(self, population,
                                                  resolution, refused):
        if refused == "slots":
            resolution = 0.0  # ``<>`` keeps its two rays apart
        stats = _growth_stats()
        metric = QueryDistance(stats, resolution=resolution)
        pack = _grow_in_chunks(population, metric, [2, 3])
        dp, n_predicates = _bits(pack._dp), pack.n_predicates
        block = _bits(pack.condensed_block())
        valid = ColumnConstantPredicate(T_A2, Op.GE, 1.4142)
        if refused == "bool":
            bad = _area([valid], [ColumnConstantPredicate(T_A, Op.EQ, True)])
            with pytest.raises(KernelUnsupported):
                pack.extend([bad])
        else:
            # A budget of one slot refuses the two-ray footprint.
            bad = _area([valid], [ColumnConstantPredicate(T_A2, Op.NE, 2.718)])
            budget = kernel_module._MAX_SLOTS
            kernel_module._MAX_SLOTS = 1
            try:
                with pytest.raises(KernelUnsupported, match="slot budget"):
                    pack.extend([bad])
            finally:
                kernel_module._MAX_SLOTS = budget
        assert pack.n_predicates == n_predicates
        assert _bits(pack._dp) == dp
        assert _bits(pack.condensed_block()) == block
        # The refused pack keeps growing exactly.
        extra = _area([ColumnConstantPredicate(T_A1, Op.LE, 4.5)])
        pack.extend([extra])
        one_shot = PackedPartition(
            population + [extra], QueryDistance(stats,
                                                resolution=resolution))
        assert _bits(pack.condensed_block()) == \
            _bits(one_shot.condensed_block())

    def test_bitsets_outgrow_one_word(self, stats):
        """Categorical values first seen late extend the bit-position
        table past one uint64 word; popcounts stay position-free."""
        ops = [Op.EQ, Op.LE, Op.GE, Op.NE]
        population = [
            _area([ColumnConstantPredicate(T_S, ops[k % 4], f"v{k:03d}")],
                  [ColumnConstantPredicate(T_S, Op.EQ, "y")])
            for k in range(150)]
        grown = _grow_in_chunks(population, QueryDistance(stats),
                                [1, 7, 30, 2, 64])
        _assert_dp_is_oracle(grown, stats, 0.01)
        one_shot = PackedPartition(population, QueryDistance(stats))
        assert _bits(grown.condensed_block()) == \
            _bits(one_shot.condensed_block())


class TestExtendCost:
    def test_extend_calls_oracle_once_per_new_predicate(self, stats,
                                                        monkeypatch):
        """Growing a pack of 320 areas by one area with k new numeric
        predicates packs those k only: a full predicate-table rebuild
        would make one oracle call per numeric predicate in the pack."""
        refs = [T_A, T_A1, T_A2]
        population = [
            _area([ColumnConstantPredicate(refs[k % 3], Op.GE, k / 64)],
                  [ColumnConstantPredicate(refs[k % 3], Op.LE, k / 64 + 1)])
            for k in range(320)]
        pack = PackedPartition(population, QueryDistance(stats))
        assert pack.n_predicates >= 600
        calls = {"_coverage_fraction": 0, "_widened": 0}
        for name in calls:
            method = getattr(pack._oracle, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)
            monkeypatch.setattr(pack._oracle, name, counted)
        new = [ColumnConstantPredicate(T_A, Op.GE, 0.3),
               ColumnConstantPredicate(T_A1, Op.LT, 2.2),
               ColumnConstantPredicate(T_A2, Op.NE, 4.4)]
        pack.extend([_area([new[0], new[1]], [new[2]])])
        assert calls == {"_coverage_fraction": 3, "_widened": 3}
