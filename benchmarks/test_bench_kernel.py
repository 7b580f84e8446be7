"""Vectorized kernel + VP-tree index: wall-time, storage, prune rate.

Builds SkyServer-shaped populations of **real** access areas (windows
over a five-table schema, quantized so the packed clause vocabulary
stays realistic) and compares three ways of serving intra-partition
distances at n ∈ {5 000, 20 000, 100 000}:

- ``python``: the pure-Python oracle filling block-sparse condensed
  blocks one ``metric(a, b)`` call per pair (the exact semantics
  baseline),
- ``kernel``: the same blocks filled by the vectorized struct-of-arrays
  kernel (bitwise-equal values),
- ``vptree``: the lazy neighbour index — no blocks materialized at
  all; queries answered through certified-bound pruning.

The pure-Python fill is measured up to ``PYTHON_CAP`` items and
extrapolated linearly in intra-partition pair count beyond that (the
fill is exactly pair-proportional).  Kernel blocks are materialized up
to ``KERNEL_CAP``: at n = 100 000 the condensed blocks alone would
need ~7 GB, which is precisely the regime the lazy index exists for,
so only the vptree runs there.  Writes
``benchmarks/out/BENCH_kernel.json``.

Acceptance (asserted): kernel block fill ≥ 5× faster than pure Python
at the middle size, vptree storage a small fraction of the kernel's
at every size, prune rate > 0, and DBSCAN label parity across all
three at the smallest size.

A growth curve rides along: one partition's pack grows by
:meth:`~repro.distance.kernel.PackedPartition.extend` one unique area
at a time to ``GROW_AREAS`` areas, each bringing a new predicate.
``growth.extend_cost_ratio`` is the mean extend time over the last
fifth of the arrivals against the first fifth (≈ 1 when an insert costs
O(new × P) array work; a predicate-table rebuild makes it grow with the
pack), and ``growth.oracle_calls`` counts the oracle's per-predicate
packing calls (coverage fraction plus widened footprint): exactly two
per new predicate, whatever the pack's size.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the sizes ~20×.
"""

import json
import os
import random
import time

import pytest

np = pytest.importorskip("numpy")

from repro.algebra.cnf import CNF, Clause
from repro.algebra.intervals import Interval
from repro.algebra.predicates import ColumnConstantPredicate, ColumnRef, Op
from repro.clustering import partitioned_dbscan
from repro.core.area import AccessArea
from repro.distance import QueryDistance
from repro.distance.block_sparse import BlockSparseDistanceMatrix
from repro.distance.kernel import PackedPartition
from repro.distance.matrix import table_partitions
from repro.distance.metric_index import VPTreeIndex
from repro.schema import (Column, ColumnType, Relation, Schema,
                          StatisticsCatalog)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = (300, 800, 2000) if SMOKE else (5000, 20000, 100000)
#: pure-Python fill measured up to here, extrapolated beyond
PYTHON_CAP = SIZES[0]
#: kernel blocks materialized up to here (memory-bound above)
KERNEL_CAP = SIZES[1]
EPS = 0.12
MIN_PTS = 4
#: areas the growth curve appends to one partition's pack, one by one
GROW_AREAS = 1500
N_QUERY_SAMPLE = 200

TABLES = ("photoobj", "photoz", "specobj", "galaxy", "star")

#: SkyServer-like skew: single-table point lookups dominate, a tail of
#: joins.  All cross-partition d_tables values are ≥ 0.5, so EPS sits
#: safely below the exactness bound and the vptree preconditions hold.
TABLE_SET_MIX = (
    (frozenset({"photoobj"}), 0.30),
    (frozenset({"photoz"}), 0.18),
    (frozenset({"specobj"}), 0.12),
    (frozenset({"galaxy"}), 0.10),
    (frozenset({"star"}), 0.08),
    (frozenset({"photoobj", "specobj"}), 0.08),
    (frozenset({"photoz", "specobj"}), 0.06),
    (frozenset({"photoobj", "photoz"}), 0.04),
    (frozenset({"photoobj", "specobj", "galaxy"}), 0.04),
)

WIDTHS = (8.0, 10.0, 12.0)
CENTERS = (20.0, 50.0, 80.0)


def _catalog():
    schema = Schema("bench")
    for name in TABLES:
        schema.add(Relation(name, (
            Column("x", ColumnType.FLOAT, Interval(0.0, 100.0)),)))
    return StatisticsCatalog.from_exact_content(schema, {
        (name, "x"): Interval(0.0, 100.0) for name in TABLES})


def make_population(n, seed=29):
    """Clustered window areas with a quantized clause vocabulary."""
    rng = random.Random(seed)
    sets = [ts for ts, _ in TABLE_SET_MIX]
    weights = [w for _, w in TABLE_SET_MIX]
    items = []
    for _ in range(n):
        table_set = rng.choices(sets, weights)[0]
        table = min(table_set)
        ref = ColumnRef(table, "x")
        lo = float(round(rng.choice(CENTERS) + rng.gauss(0.0, 4.0)))
        width = rng.choice(WIDTHS)
        items.append(AccessArea(tuple(sorted(table_set)), CNF.of([
            Clause.of([ColumnConstantPredicate(ref, Op.GE, lo)]),
            Clause.of([ColumnConstantPredicate(ref, Op.LE, lo + width)]),
        ])))
    return items


def make_growth_stream(n, seed=31):
    """Unique-heavy arrivals in one partition: an unquantized lower
    window endpoint, so every area brings a new predicate (the
    quantized upper endpoints soon repeat)."""
    rng = random.Random(seed)
    ref = ColumnRef("photoobj", "x")
    items = []
    for _ in range(n):
        lo = rng.uniform(0.0, 90.0)
        hi = float(round(lo + rng.choice(WIDTHS)))
        items.append(AccessArea(("photoobj",), CNF.of([
            Clause.of([ColumnConstantPredicate(ref, Op.GE, lo)]),
            Clause.of([ColumnConstantPredicate(ref, Op.LE, hi)]),
        ])))
    return items


def _growth_row(catalog):
    """Per-insert cost of growing one pack area by area."""
    items = make_growth_stream(GROW_AREAS)
    pack = PackedPartition(items[:1], QueryDistance(catalog))
    first_predicates = pack.n_predicates
    calls = [0]
    oracle = pack._oracle
    for name in ("_coverage_fraction", "_widened"):
        method = getattr(oracle, name)

        def counted(*args, _method=method):
            calls[0] += 1
            return _method(*args)
        setattr(oracle, name, counted)
    seconds = []
    for item in items[1:]:
        started = time.perf_counter()
        pack.extend([item])
        seconds.append(time.perf_counter() - started)
    inserts = len(seconds)
    fifth = inserts // 5
    early = sum(seconds[:fifth]) / fifth
    late = sum(seconds[-fifth:]) / fifth
    new_predicates = pack.n_predicates - first_predicates
    return {
        "areas": pack.n_areas,
        "predicates": pack.n_predicates,
        "new_predicates": new_predicates,
        "oracle_calls": calls[0],
        "oracle_calls_per_insert": round(calls[0] / inserts, 4),
        "extend_early_ms": round(early * 1e3, 4),
        "extend_late_ms": round(late * 1e3, 4),
        "extend_cost_ratio": round(late / early, 3),
    }


def _intra_pairs(items):
    sizes = {}
    for item in items:
        sizes[item.table_set] = sizes.get(item.table_set, 0) + 1
    return sum(m * (m - 1) // 2 for m in sizes.values())


def _oracle_matrix(items, metric):
    """The block-sparse layout filled by the per-pair oracle."""
    keys, members, bounds = table_partitions(items, metric)
    blocks = [[metric(items[a], items[b])
               for x, a in enumerate(m) for b in m[x + 1:]]
              for m in members]
    return BlockSparseDistanceMatrix(len(items), keys, members, blocks,
                                     bounds)


def _timed(build):
    started = time.perf_counter()
    result = build()
    return result, time.perf_counter() - started


def test_kernel_artifact(out_dir):
    catalog = _catalog()
    rows = []
    python_rate = None  # measured seconds per intra-partition pair

    for n in SIZES:
        items = make_population(n)
        metric = QueryDistance(catalog)
        pairs = _intra_pairs(items)
        row = {"n": n, "intra_pairs": pairs,
               "dense_condensed_bytes": n * (n - 1) // 2 * 8}

        if n <= PYTHON_CAP:
            _, python_seconds = _timed(
                lambda: _oracle_matrix(items, QueryDistance(catalog)))
            python_rate = python_seconds / pairs
            row.update(python_measured=True,
                       python_seconds=round(python_seconds, 4))
        else:
            row.update(python_measured=False,
                       python_seconds=round(python_rate * pairs, 4))

        if n <= KERNEL_CAP:
            kernel, kernel_seconds = _timed(
                lambda: BlockSparseDistanceMatrix.compute(
                    items, QueryDistance(catalog), cutoff=EPS))
            row.update(
                kernel_seconds=round(kernel_seconds, 4),
                kernel_stored_floats=kernel.stats.stored_floats,
                kernel_speedup=round(
                    row["python_seconds"] / kernel_seconds, 2))
            # Query throughput against the materialized blocks.
            sample = random.Random(7).sample(
                range(n), min(n, N_QUERY_SAMPLE))
            _, scan_seconds = _timed(
                lambda: [kernel.neighbors(i, EPS) for i in sample])
            row["matrix_queries_per_second"] = round(
                len(sample) / scan_seconds)
            del kernel

        index, vptree_seconds = _timed(
            lambda: VPTreeIndex.compute(items, QueryDistance(catalog),
                                        cutoff=EPS))
        sample = random.Random(7).sample(
            range(n), min(n, N_QUERY_SAMPLE))
        _, query_seconds = _timed(
            lambda: [index.neighbors(i, EPS) for i in sample])
        row.update(
            vptree_build_seconds=round(vptree_seconds, 4),
            vptree_build_evals=index.vpstats.build_evals,
            vptree_stored_floats=index.stats.stored_floats,
            vptree_queries_per_second=round(
                len(sample) / query_seconds),
            vptree_prune_rate=round(index.vpstats.prune_rate, 4))
        if "kernel_stored_floats" in row:
            row["storage_ratio_vptree_vs_kernel"] = round(
                row["vptree_stored_floats"]
                / row["kernel_stored_floats"], 4)

        if n == SIZES[0]:
            # All three engines must produce identical cluster labels.
            sparse = _oracle_matrix(items, QueryDistance(catalog))
            kern = BlockSparseDistanceMatrix.compute(
                items, QueryDistance(catalog), cutoff=EPS)
            want = partitioned_dbscan(items, metric, EPS, MIN_PTS,
                                      matrix=sparse).labels
            parity = (
                partitioned_dbscan(items, metric, EPS, MIN_PTS,
                                   matrix=kern).labels == want
                and partitioned_dbscan(items, metric, EPS, MIN_PTS,
                                       matrix=index).labels == want)
            row["dbscan_label_parity"] = parity
            assert parity
        del index
        rows.append(row)

    growth = _growth_row(catalog)
    artifact = {
        "eps": EPS,
        "smoke": SMOKE,
        "python_cap": PYTHON_CAP,
        "kernel_cap": KERNEL_CAP,
        "table_set_mix": sorted(
            ("+".join(sorted(ts)), w) for ts, w in TABLE_SET_MIX),
        "sizes": rows,
        "growth": growth,
    }
    (out_dir / "BENCH_kernel.json").write_text(
        json.dumps(artifact, indent=2) + "\n", encoding="utf-8")

    # Acceptance: ≥5× kernel speedup over the pure-Python fill at the
    # middle size, real pruning, and lazy storage far below the blocks.
    middle = rows[1]
    assert middle["kernel_speedup"] >= 5.0, middle
    for row in rows:
        assert row["vptree_prune_rate"] > 0.0, row
    if not SMOKE:
        # The lazy index's storage is linear in n (clause vocabulary ×
        # members) against the blocks' quadratic growth; at smoke
        # sizes the vocabulary tables dominate, so only assert at
        # benchmark scale.
        assert middle["storage_ratio_vptree_vs_kernel"] < 0.5, middle
    # The largest size runs without materializing any block.
    assert "kernel_seconds" not in rows[-1]
    # Growing a pack packs only the new predicates.
    assert growth["oracle_calls"] == 2 * growth["new_predicates"], growth
