"""Parity tests for the shared distance-matrix engine.

The engine must be a pure optimization: the packed fill equals the
per-pair metric and the naive double loop *bitwise*, the stats counters
account for every pair, and every clustering algorithm produces the
same labels whether it evaluates the callable itself or consumes a
precomputed matrix.
"""

import struct

import numpy as np
import pytest

from repro.clustering import (DBSCAN, OPTICS, SingleLinkage,
                              extract_dbscan, pairwise_matrix,
                              partitioned_dbscan)
from repro.core import AccessAreaExtractor, process_log
from repro.distance import DistanceMatrix, QueryDistance, condensed_index
from repro.obs.metrics import MetricsRegistry
from repro.schema import StatisticsCatalog, skyserver_schema
from repro.schema.skyserver import CONTENT_BOUNDS
from repro.workload import WorkloadConfig, generate_workload

EPS = 0.12


@pytest.fixture(scope="module")
def population():
    """~60 extracted areas plus their statistics catalog."""
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=120, seed=47))
    report = process_log(workload.log.statements(),
                         AccessAreaExtractor(schema), keep_failures=False)
    stats = StatisticsCatalog.from_exact_content(schema, CONTENT_BOUNDS)
    for item in report.extracted:
        stats.observe_cnf(item.area.cnf)
    return report.areas()[:60], stats


def _metric(stats):
    return QueryDistance(stats, resolution=0.05)


# -- matrix vs naive loop vs per-pair oracle --------------------------------

def test_serial_matrix_equals_naive_double_loop(population):
    areas, stats = population
    naive = pairwise_matrix(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    assert np.array_equal(matrix.to_square(), naive)


@pytest.mark.parametrize("cutoff", [None, EPS])
def test_packed_fill_equals_per_pair_metric_bitwise(population, cutoff):
    """One global pack over mixed table sets reproduces ``metric(a, b)``
    bit for bit; below the cutoff every entry is exact, above it the
    entry is the ``d_tables`` lower bound."""
    areas, stats = population
    assert len({area.table_set for area in areas}) > 1
    registry = MetricsRegistry()
    matrix = DistanceMatrix.compute(areas, _metric(stats), cutoff=cutoff,
                                    registry=registry)
    assert registry.histogram("repro_distance_chunk_seconds",
                              mode="kernel").count == 1
    oracle = _metric(stats)
    n = len(areas)
    for i in range(n):
        for j in range(i + 1, n):
            want = oracle(areas[i], areas[j])
            d_tables = oracle.d_tables(areas[i], areas[j])
            if cutoff is not None and d_tables > cutoff:
                want = d_tables
            got = matrix.condensed[condensed_index(i, j, n)]
            assert struct.pack("<d", got) == struct.pack("<d", want), \
                (i, j, got, want)


def test_stats_counters_account_for_every_pair(population):
    areas, stats = population
    n = len(areas)
    full = DistanceMatrix.compute(areas, _metric(stats))
    cut = DistanceMatrix.compute(areas, _metric(stats), cutoff=EPS)
    for m in (full, cut):
        assert m.stats.pairs_total == n * (n - 1) // 2
        assert m.stats.pairs_computed + m.stats.pairs_skipped \
            == m.stats.pairs_total
    assert full.stats.pairs_skipped == 0
    assert cut.stats.pairs_skipped > 0
    # Every d_tables evaluation beyond one per distinct set pair is a hit.
    assert cut.stats.table_cache_hits \
        == cut.stats.pairs_total - cut.stats.table_pairs
    # The packed fill never falls back to the per-pair oracle here, so
    # its predicate-pair LRU sees no traffic at all.
    assert cut.stats.predicate_cache_hits == 0
    assert cut.stats.predicate_cache_misses == 0
    assert 0.0 < cut.stats.skip_fraction < 1.0
    assert "bound-skipped" in cut.stats.summary()


def test_cutoff_entries_are_exact_or_lower_bounds(population):
    areas, stats = population
    naive = pairwise_matrix(areas, _metric(stats))
    cut = DistanceMatrix.compute(areas, _metric(stats), cutoff=EPS)
    n = len(areas)
    for i in range(n):
        for j in range(i + 1, n):
            value = cut.value(i, j)
            if value > EPS:
                assert value <= naive[i, j]  # a valid lower bound
            else:
                assert value == naive[i, j]  # exact below the cutoff


def test_neighbors_match_naive_matrix(population):
    areas, stats = population
    naive = pairwise_matrix(areas, _metric(stats))
    cut = DistanceMatrix.compute(areas, _metric(stats), cutoff=EPS)
    for i in (0, 7, len(areas) - 1):
        expected = list(np.flatnonzero(naive[i] <= EPS))
        assert cut.neighbors(i, EPS) == expected
        assert i in cut.neighbors(i, EPS)


# -- accessors --------------------------------------------------------------

def test_lookup_accessors(population):
    areas, stats = population
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    n = len(matrix)
    assert n == len(areas)
    square = matrix.to_square()
    assert matrix.value(3, 9) == matrix.value(9, 3) == square[3, 9]
    assert matrix[5, 5] == 0.0
    assert np.array_equal(matrix.row(4), square[4])
    assert matrix.condensed.shape == (n * (n - 1) // 2,)
    with pytest.raises(ValueError):
        matrix.condensed[0] = 1.0  # read-only view
    roundtrip = DistanceMatrix.from_square(square)
    assert np.array_equal(roundtrip.condensed, matrix.condensed)


def test_submatrix_preserves_values(population):
    areas, stats = population
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    indices = [2, 11, 17, 40]
    sub = matrix.submatrix(indices)
    for a, ia in enumerate(indices):
        for b, ib in enumerate(indices):
            assert sub.value(a, b) == matrix.value(ia, ib)


def test_condensed_index_layout():
    n = 7
    seen = set()
    for i in range(n):
        for j in range(i + 1, n):
            k = condensed_index(i, j, n)
            assert condensed_index(j, i, n) == k
            seen.add(k)
    assert seen == set(range(n * (n - 1) // 2))


def test_constructor_rejects_wrong_length():
    with pytest.raises(ValueError):
        DistanceMatrix(4, np.zeros(5))
    with pytest.raises(ValueError):
        DistanceMatrix.from_square(np.zeros((2, 3)))


def test_generic_metric_without_table_decomposition():
    """Plain callables (no d_tables/d_conj hooks) fill per pair."""
    items = [0.0, 1.5, 4.0, 9.5]
    matrix = DistanceMatrix.compute(items, lambda a, b: abs(a - b))
    assert matrix.value(1, 3) == 8.0
    assert list(matrix.condensed) == [1.5, 4.0, 9.5, 2.5, 8.0, 5.5]
    assert matrix.stats.pairs_computed == 6


# -- clustering parity ------------------------------------------------------

def test_dbscan_labels_identical_with_matrix(population):
    areas, stats = population
    via_callable = DBSCAN(EPS, min_pts=3).fit(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    via_matrix = DBSCAN(EPS, min_pts=3).fit(areas, matrix=matrix)
    via_cutoff = DBSCAN(EPS, min_pts=3).fit(
        areas, matrix=DistanceMatrix.compute(
            areas, _metric(stats), cutoff=EPS))
    assert via_matrix.labels == via_callable.labels
    assert via_cutoff.labels == via_callable.labels


def test_optics_identical_with_matrix(population):
    areas, stats = population
    via_callable = OPTICS(max_eps=1.0, min_pts=3).fit(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats))
    via_matrix = OPTICS(max_eps=1.0, min_pts=3).fit(areas, matrix=matrix)
    assert via_matrix.ordering == via_callable.ordering
    assert via_matrix.reachability == via_callable.reachability
    assert extract_dbscan(via_matrix, EPS).labels \
        == extract_dbscan(via_callable, EPS).labels


def test_single_linkage_identical_with_matrix(population):
    areas, stats = population
    via_callable = SingleLinkage(threshold=EPS).fit(areas, _metric(stats))
    matrix = DistanceMatrix.compute(areas, _metric(stats), cutoff=EPS)
    via_matrix = SingleLinkage(threshold=EPS).fit(areas, matrix=matrix)
    assert via_matrix.labels == via_callable.labels


def test_partitioned_dbscan_identical_across_engines(population):
    areas, stats = population
    legacy = partitioned_dbscan(areas, _metric(stats), EPS, min_pts=3)
    matrix = DistanceMatrix.compute(areas, _metric(stats), cutoff=EPS)
    precomputed = partitioned_dbscan(areas, None, EPS, min_pts=3,
                                     matrix=matrix)
    assert precomputed.labels == legacy.labels


def test_clustering_argument_validation(population):
    areas, stats = population
    matrix = DistanceMatrix.compute(areas[:6], _metric(stats))
    with pytest.raises(ValueError):
        DBSCAN(EPS).fit(areas[:6])  # neither distance nor matrix
    with pytest.raises(ValueError):
        DBSCAN(EPS).fit(areas[:6], _metric(stats), matrix)  # both
    with pytest.raises(ValueError):
        DBSCAN(EPS).fit(areas[:9], matrix=matrix)  # size mismatch
    with pytest.raises(ValueError):
        OPTICS(max_eps=1.0).fit(areas[:6])
    with pytest.raises(ValueError):
        SingleLinkage(threshold=EPS).fit(areas[:6])
    with pytest.raises(ValueError):
        partitioned_dbscan(areas[:6], None, EPS)


def test_pipeline_report_hands_off_matrix(population):
    """The batch path's LogProcessingReport → matrix hand-off."""
    _, stats = population
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=40, seed=3))
    report = process_log(workload.log.statements(),
                         AccessAreaExtractor(schema), keep_failures=False)
    matrix = DistanceMatrix.compute(report.areas(), _metric(stats),
                                    cutoff=EPS)
    assert len(matrix) == report.extraction_count
    assert matrix.stats.pairs_computed + matrix.stats.pairs_skipped \
        == matrix.stats.pairs_total
