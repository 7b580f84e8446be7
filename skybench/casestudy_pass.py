"""One ``casestudy`` pass in a fresh process.

Usage::

    python3 skybench/casestudy_pass.py --seed N --out FILE [--trace]
    python3 skybench/casestudy_pass.py --seed N --out FILE --setup-only

Runs ``run_case_study`` at the ``repro casestudy`` CLI defaults (4000
statements, sample 1500, eps 0.12, ``matrix_mode="auto"``, intern on,
store off) with the workload seed ``N`` and writes one JSON document to
``FILE``.  Set-up (imports, workload generation, ``build_database``,
``StatisticsCatalog.estimate``) is timed apart from the rest of the
pass.  ``--setup-only`` does the set-up and stops.  ``--trace`` wraps
the layers' public functions in spans and adds the per-layer numbers.

The correctness gates run after the timed pass: the pass's labels
must equal a reference built from the same unique areas with the
kernel matrix and ``partitioned_dbscan``, and a seeded sample of
stored matrix entries must be bitwise equal to ``QueryDistance``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
    __file__)), os.pardir, "src"))

import repro.analysis.experiments as experiments  # noqa: E402
import repro.core.extractor as extractor_module  # noqa: E402
import repro.distance.kernel as kernel_module  # noqa: E402
from repro.core.extractor import AccessAreaExtractor  # noqa: E402
from repro.schema.statistics import StatisticsCatalog  # noqa: E402
from repro.workload.generator import WorkloadConfig  # noqa: E402

from spans import SpanRecorder, durations, mean  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: the ``repro casestudy`` CLI defaults
N_QUERIES = 4000
SAMPLE = 1500
ENTRY_SAMPLE = 200


def config(seed: int) -> experiments.CaseStudyConfig:
    return experiments.CaseStudyConfig(
        workload=WorkloadConfig(n_queries=N_QUERIES, seed=seed),
        sample_size=SAMPLE, eps=0.12, min_pts=5, matrix_mode="auto",
        intern=True, store_dir=None)


def setup_only(seed: int) -> dict:
    cfg = config(seed)
    started = time.perf_counter()
    schema = experiments.skyserver_schema()
    experiments.generate_workload(cfg.workload)
    db = experiments.build_database(cfg.content, schema)
    StatisticsCatalog.estimate(schema, db)
    return {"setup": [[_T0, IMPORT_S + time.perf_counter() - started]]}


def _timed_statements(statements, marks: list):
    """Yield ``statements`` and stamp the clock each time the consumer
    asks for the next one, so mark deltas are per-statement times."""
    for item in statements:
        marks.append(time.perf_counter())
        yield item


def run_pass(seed: int, traced: bool) -> dict:
    recorder = SpanRecorder()
    setup_names = ("workload.generate", "engine.build_database",
                   "schema.estimate")
    recorder.wrap(experiments, "generate_workload", setup_names[0])
    recorder.wrap(experiments, "build_database", setup_names[1])
    recorder.wrap(StatisticsCatalog, "estimate", setup_names[2])
    if traced:
        recorder.wrap(extractor_module, "parse", "sqlparser.parse")
        recorder.wrap(AccessAreaExtractor, "extract", "core.extract")
        recorder.wrap(experiments, "process_log", "core.process_log")
        recorder.wrap(experiments, "compute_matrix", "distance.matrix")
        recorder.wrap(kernel_module, "compute_kernel_blocks",
                      "distance.kernel_blocks",
                      count=lambda result: result[1].partitions_packed)
        recorder.wrap(experiments, "partitioned_dbscan",
                      "clustering.dbscan")
        recorder.wrap(experiments, "aggregate_cluster",
                      "clustering.aggregate")

    captured: dict = {}
    marks: list = []
    process_log = experiments.process_log
    compute_matrix = experiments.compute_matrix
    partitioned_dbscan = experiments.partitioned_dbscan

    def capture_process_log(statements, *args, **kwargs):
        report = process_log(_timed_statements(statements, marks),
                             *args, **kwargs)
        marks.append(time.perf_counter())
        return report

    def capture_matrix(items, metric, **kwargs):
        captured["matrix"] = compute_matrix(items, metric, **kwargs)
        return captured["matrix"]

    def capture_dbscan(areas, distance, eps, min_pts, **kwargs):
        result = partitioned_dbscan(areas, distance, eps, min_pts,
                                    **kwargs)
        captured.update(areas=list(areas), distance=distance, eps=eps,
                        min_pts=min_pts, weights=kwargs.get("weights"),
                        labels=list(result.labels))
        return result

    experiments.process_log = capture_process_log
    experiments.compute_matrix = capture_matrix
    experiments.partitioned_dbscan = capture_dbscan
    cfg = config(seed)
    started = time.perf_counter()
    result = experiments.run_case_study(cfg)
    total = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    experiments.process_log = process_log
    experiments.compute_matrix = compute_matrix
    experiments.partitioned_dbscan = partitioned_dbscan
    recorder.unwrap_all()

    setup = sum(sum(durations(recorder.named(name)))
                for name in setup_names)
    report = result.report
    out = {
        "wall_s": total - setup,
        "setup": [[_T0, IMPORT_S + setup]],
        "wall": [[started, total - setup]],
        "statements": report.total,
        "statement_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "peak_rss_mb": rss_mb,
        "n_clusters": result.n_clusters,
        "labels_digest": hashlib.sha256(json.dumps(
            list(result.clustering.labels)).encode()).hexdigest(),
        "rows": [row.cardinality for row in result.rows],
        "statuses": {"extracted": report.extraction_count,
                     "failed": report.failure_count},
        "gate_errors": gate(captured, seed),
    }
    if traced:
        out["layers"] = layer_metrics(recorder, result, captured)
    return out


def gate(captured: dict, seed: int) -> list[str]:
    """Check the pass against the kernel reference (outside timing)."""
    errors = []
    areas, distance = captured["areas"], captured["distance"]
    eps, min_pts = captured["eps"], captured["min_pts"]
    reference_matrix = experiments.compute_matrix(
        areas, distance, mode="kernel", eps=eps)
    reference = experiments.partitioned_dbscan(
        areas, distance, eps, min_pts, matrix=reference_matrix,
        weights=captured["weights"], on_inexact="fallback")
    if list(reference.labels) != captured["labels"]:
        errors.append("casestudy labels differ from the kernel-matrix "
                      "partitioned_dbscan reference")
    matrix = captured["matrix"]
    rng = random.Random(seed)
    if hasattr(matrix, "partitions"):
        groups = [list(members) for _key, members in matrix.partitions()
                  if len(members) > 1]
    else:
        groups = [list(range(len(areas)))]
    weights = [len(g) * (len(g) - 1) for g in groups]
    for _ in range(ENTRY_SAMPLE if groups else 0):
        members = rng.choices(groups, weights)[0]
        i, j = rng.sample(members, 2)
        stored = matrix.value(int(i), int(j))
        want = distance(areas[int(i)], areas[int(j)])
        if struct.pack("<d", stored) != struct.pack("<d", want):
            errors.append(f"stored entry ({i}, {j}) = {stored!r} but "
                          f"QueryDistance gives {want!r}")
            break
    return errors


def layer_metrics(recorder: SpanRecorder, result, captured) -> dict:
    def total(name):
        return sum(durations(recorder.named(name)))

    report = result.report
    stats = captured["matrix"].stats
    kernel_partitions = sum(span[4] for span in
                            recorder.named("distance.kernel_blocks"))
    intern = report.intern_stats
    return {
        "sqlparser.parse_us":
            mean(durations(recorder.named("sqlparser.parse"))) * 1e6,
        "core.extract_us":
            mean(durations(recorder.named("core.extract"))) * 1e6,
        "core.extract_fail_frac": report.failure_count / report.total,
        "core.process_log_overhead":
            total("core.process_log") / total("core.extract"),
        "core.intern_hit_rate": intern.hit_rate if intern else 0.0,
        "schema.estimate_s": total("schema.estimate"),
        "engine.build_database_s": total("engine.build_database"),
        "distance.matrix_s": total("distance.matrix"),
        "distance.pairs_evaluated": stats.pairs_computed,
        "distance.kernel_partition_frac":
            kernel_partitions / stats.n_blocks if stats.n_blocks else 0.0,
        "clustering.dbscan_s": total("clustering.dbscan"),
        "clustering.aggregate_s": total("clustering.aggregate"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        out = setup_only(args.seed)
    else:
        out = run_pass(args.seed, args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
