"""Condensed-block spill and reload through the distance stage."""

import pytest

np = pytest.importorskip("numpy")

from repro.distance.block_sparse import compute_matrix
from repro.distance.query_distance import QueryDistance
from repro.store import AreaStore


@pytest.fixture()
def population(extractor):
    sqls = [
        "SELECT a FROM T WHERE a > 0 AND a < 1",
        "SELECT a FROM T WHERE a > 0.2 AND a < 1.2",
        "SELECT a FROM T WHERE a > 4 AND a < 5",
        "SELECT b FROM S WHERE b < 2",
        "SELECT b FROM S WHERE b > 1 AND b < 3",
        "SELECT b FROM S WHERE b > 8",
    ]
    return [extractor.extract(sql).area for sql in sqls]


def _compute(population, stats, store, token="res=0.05"):
    distance = QueryDistance(stats, resolution=0.05)
    return compute_matrix(population, distance, mode="kernel",
                          eps=0.2, store=store, store_token=token)


def test_blocks_spill_then_reload_bitwise(tmp_path, population, stats):
    path = str(tmp_path / "s")
    with AreaStore(path) as store:
        cold = _compute(population, stats, store)
        saved = store.blocks.saves
        assert saved >= 2  # one condensed block per partition
        assert store.blocks.loads == 0

    with AreaStore(path) as store:
        warm = _compute(population, stats, store)
        assert store.blocks.saves == 0
        assert store.blocks.loads >= saved

    n = len(population)
    for i in range(n):
        for j in range(n):
            assert cold[i, j] == warm[i, j]  # bitwise, not approx


def test_metric_drift_misses_block_cache(tmp_path, population, stats):
    path = str(tmp_path / "s")
    with AreaStore(path) as store:
        _compute(population, stats, store, token="res=0.05")
        saved = store.blocks.saves
    with AreaStore(path) as store:
        _compute(population, stats, store, token="res=0.10")
        # different metric token → recompute + save, never reload
        assert store.blocks.loads == 0
        assert store.blocks.saves == saved


def test_vptree_backend_matches_cold_and_warm(tmp_path, population,
                                              stats):
    """The vptree path accepts the store without changing answers
    (tree partitions hold lazy packs — nothing to spill)."""
    path = str(tmp_path / "s")
    distance = QueryDistance(stats, resolution=0.05)
    with AreaStore(path) as store:
        cold = compute_matrix(population, distance, mode="kernel",
                              eps=0.2, neighbor_backend="vptree",
                              store=store, store_token="res=0.05")
    with AreaStore(path) as store:
        warm = compute_matrix(population, distance, mode="kernel",
                              eps=0.2, neighbor_backend="vptree",
                              store=store, store_token="res=0.05")
    for i in range(len(population)):
        assert cold.neighbors(i, 0.2) == warm.neighbors(i, 0.2)


def test_vptree_fallback_partitions_spill_and_reload(tmp_path,
                                                     population, stats):
    """Kernel-refused partitions materialize condensed blocks — those
    are spilled cold and reloaded warm."""
    from repro.distance.metric_index import VPTreeIndex

    class OracleOnlyDistance(QueryDistance):
        # overriding any metric entry point voids the kernel's
        # oracle-parity guarantee → every partition falls back
        def distance(self, a, b):
            return super().distance(a, b)

    path = str(tmp_path / "s")
    distance = OracleOnlyDistance(stats, resolution=0.05)
    with AreaStore(path) as store:
        cold = VPTreeIndex.compute(population, distance, cutoff=0.2,
                                   store=store, store_token="res=0.05")
        assert cold.vpstats.fallback_partitions >= 2
        saved = store.blocks.saves
        assert saved >= 2
    with AreaStore(path) as store:
        warm = VPTreeIndex.compute(population, distance, cutoff=0.2,
                                   store=store, store_token="res=0.05")
        assert store.blocks.saves == 0
        assert store.blocks.loads >= saved
    for i in range(len(population)):
        assert cold.neighbors(i, 0.2) == warm.neighbors(i, 0.2)
