"""Observability benchmark: the instrumented pipeline's own telemetry.

Runs extraction + distance matrix + clustering under a fresh metrics
registry and tracer, then exports the registry as
``benchmarks/out/BENCH_observability.json`` — stage timing quantiles,
distance-engine cache-hit ratios, and chunk-latency p95s, produced by
the same exporter the CLI uses.  A companion check pins the cost of the
*disabled* instruments: the null tracer/registry on the hot path must
stay within noise.
"""

import json
import time

from repro.clustering.partitioned import partitioned_dbscan
from repro.core import AccessAreaExtractor, process_log
from repro.distance import DistanceMatrix, QueryDistance
from repro.obs import export
from repro.obs.metrics import MetricsRegistry, NullRegistry, use_registry
from repro.obs.trace import NULL_TRACER, Tracer, use_tracer
from repro.schema import StatisticsCatalog, skyserver_schema
from repro.schema.skyserver import CONTENT_BOUNDS
from repro.workload import WorkloadConfig, generate_workload


def _instrumented_run(registry: MetricsRegistry) -> dict:
    schema = skyserver_schema()
    workload = generate_workload(WorkloadConfig(n_queries=1200, seed=31))
    with use_registry(registry):
        report = process_log(workload.log.statements_with_users(),
                             AccessAreaExtractor(schema),
                             keep_failures=False)
        stats = StatisticsCatalog.from_exact_content(schema,
                                                     CONTENT_BOUNDS)
        areas = report.areas()[:400]
        for area in areas:
            stats.observe_cnf(area.cnf)
        matrix = DistanceMatrix.compute(areas, QueryDistance(stats),
                                        cutoff=0.12)
        result = partitioned_dbscan(areas, None, 0.12, 5, matrix=matrix)
    return {"extracted": report.extraction_count,
            "clusters": result.n_clusters,
            "matrix": matrix.stats}


def test_observability_artifact(benchmark, out_dir):
    registry = MetricsRegistry()
    tracer = Tracer()

    with use_tracer(tracer):
        run = benchmark.pedantic(lambda: _instrumented_run(registry),
                                 rounds=1, iterations=1)

    snapshot = registry.snapshot()
    histograms = {(h["name"], h["labels"].get("stage")
                   or h["labels"].get("mode")
                   or h["labels"].get("algorithm")): h
                  for h in snapshot["histograms"]}
    counters = {(c["name"], tuple(sorted(c["labels"].items()))): c["value"]
                for c in snapshot["counters"]}

    # The acceptance families must all be present.
    assert ("repro_pipeline_stage_seconds", "cnf") in histograms
    assert ("repro_distance_chunk_seconds", "kernel") in histograms
    assert ("repro_clustering_iterations", "partitioned_dbscan") \
        in histograms
    # The generator may append a handful of noise statements past
    # n_queries; the counter reflects what actually went through.
    assert counters[("repro_pipeline_statements_total", ())] >= 1200

    stats = run["matrix"]
    artifact = {
        "workload_queries": 1200,
        "areas_clustered": 400,
        "clusters": run["clusters"],
        "stage_seconds_p95": {
            stage: histograms["repro_pipeline_stage_seconds", stage]["p95"]
            for stage in ("parse", "extract", "cnf", "consolidate")},
        "distance": {
            "pairs_total": stats.pairs_total,
            "pairs_computed": stats.pairs_computed,
            "skip_fraction": round(stats.skip_fraction, 4),
            "pred_cache_hit_rate": round(stats.predicate_cache_hit_rate,
                                         4),
            "chunk_seconds_p95":
                histograms["repro_distance_chunk_seconds", "kernel"]["p95"],
        },
        "trace_roots": [root.name for root in tracer.roots],
        # The full dump, exactly as the CLI's --metrics-out writes it.
        "metrics": json.loads(export.to_json(registry)),
    }
    path = out_dir / "BENCH_observability.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True),
                    encoding="utf-8")

    # The artifact must be a valid JSON document round-trip.
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["metrics"]["counters"]
    assert "process_log" in loaded["trace_roots"]
    assert "distance_matrix" in loaded["trace_roots"]


def test_disabled_instrumentation_overhead(out_dir):
    """Null tracer + null registry on the extraction hot path.

    Both runs go through the fully instrumented code; the second one
    also routes every metric into a NullRegistry explicitly.  They must
    agree within generous noise bounds — the real pre/post comparison
    lives in test_bench_efficiency's absolute throughput floor.
    """
    schema = skyserver_schema()
    statements = generate_workload(
        WorkloadConfig(n_queries=800, seed=77)).log.statements()

    def run_once(registry):
        extractor = AccessAreaExtractor(schema)
        started = time.perf_counter()
        with use_registry(registry):
            report = process_log(statements, extractor,
                                 keep_failures=False)
        return time.perf_counter() - started, report.extraction_count

    # Warm-up round absorbs import/alloc noise.
    run_once(NullRegistry())
    default_s, extracted_a = run_once(MetricsRegistry())
    null_s, extracted_b = run_once(NullRegistry())
    assert extracted_a == extracted_b
    assert NULL_TRACER.roots == []

    summary = (f"default registry : {default_s:.3f} s\n"
               f"null registry    : {null_s:.3f} s\n"
               f"ratio            : {default_s / max(null_s, 1e-9):.3f}\n")
    (out_dir / "observability_overhead.txt").write_text(
        summary, encoding="utf-8")
    print("\n" + summary)
    # Generous bound: the instrumented run may not be wildly slower
    # than the disabled one (allows scheduler noise either way).
    assert default_s < null_s * 2.0 + 0.5
