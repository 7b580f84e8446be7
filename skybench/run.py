"""The benchmark's one command.

Usage (from the root of a checkout)::

    python3 skybench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 skybench/run.py --workload W --seed N --seconds S --steadiness K

Workloads: ``casestudy``, ``ingest_unique``, ``ingest_bots_store`` (see
``skybench/README.md`` for why each exists).  The seed makes the
inputs.  A run does whole passes over that fixed input, each on a fresh
process, until ``--seconds`` would be exceeded by one more pass (at
least one pass; two with ``--trace 1``, one untraced and one traced).

A speed sampler (``speed.py``) runs beside the passes, and every
end-to-end time is scaled to its reference speed, because the host's
speed drifts between the minutes that separate runs.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it carries the per-layer metrics instead.  ``correct`` is false when a
correctness gate fails.  ``--steadiness K`` runs the workload ``K``
times on seeds ``N .. N+K-1`` and prints, per end-to-end metric, the
median, the quartiles and the relative spread beside the bound.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import service
from spans import SpanRecorder, mean
from speed import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".skybench_work")
WORKLOADS = ("casestudy", "ingest_unique", "ingest_bots_store")
#: extra fresh set-ups per untraced run, beside each pass's own; half
#: run before the passes and half after, so that the median spans the
#: run rather than one moment of it
SETUP_PROBES = 4
PASS_TIMEOUT = 170


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_layers(per_statement_ms: list[float]) -> dict:
    """Per-statement ingest latency of one untraced pass: the median,
    the 99th percentile, and the median over the last fifth."""
    tail = per_statement_ms[len(per_statement_ms)
                            - len(per_statement_ms) // 5:]
    return {"bench.ingest_p50_ms": quantile(per_statement_ms, 0.5),
            "bench.ingest_p99_ms": quantile(per_statement_ms, 0.99),
            "bench.ingest_late_p50_ms": quantile(tail, 0.5)}


class Run:
    """Shared bookkeeping of one benchmark run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.sampler = Sampler(os.path.join(self.work, "speed.json"))

    def passes(self, run_one, probe) -> list[dict]:
        """Whole passes until one more would overrun ``--seconds``.

        An untraced run also times ``SETUP_PROBES`` extra set-ups
        (``probe``), half before the passes and half after; they land
        in ``self.probes``.  The speed sampler stops after the last one.
        """
        probes = 0 if self.args.trace else SETUP_PROBES
        self.probes = [probe(i) for i in range(probes // 2)]
        minimum = 2 if self.args.trace else 1
        done: list[dict] = []
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            result = run_one(len(done))
            done.append(result)
            elapsed = time.perf_counter() - started
            last = time.perf_counter() - pass_started
            print(f"skybench: pass {len(done) - 1} "
                  f"({'traced' if self.traced(len(done) - 1) else 'untraced'})"
                  f" wall_s={result['wall_s']:.4g} "
                  f"pass_s={last:.4g}", file=sys.stderr, flush=True)
            if (len(done) >= minimum
                    and elapsed + last > self.args.seconds):
                self.probes += [probe(i)
                                for i in range(probes // 2, probes)]
                self.sampler.stop()
                return done

    def scaled(self, parts: list) -> float:
        """Seconds at reference speed of ``[start, seconds]`` parts."""
        return sum(self.sampler.scaled(seconds, start)
                   for start, seconds in parts)

    def end_to_end(self, untraced: list[dict], statements: int,
                   stream: str) -> dict:
        """Medians over the untraced passes (and, for ``setup_s``, the
        set-up probes) of times scaled to the reference speed;
        ``ingest_per_s`` is ``statements`` over each pass's ``stream``
        parts."""
        return {
            "setup_s": statistics.median(
                [self.scaled([probe]) for probe in self.probes]
                + [self.scaled(p["setup"]) for p in untraced]),
            "wall_s": statistics.median(
                self.scaled(p["wall"]) for p in untraced),
            "ingest_per_s": statistics.median(
                statements / self.scaled(p[stream]) for p in untraced),
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in untraced),
        }

    def speed_layers(self, traced: dict, untraced: dict) -> dict:
        """Tracing overhead at reference speed, the untraced pass's
        unscaled wall time and the machine's slowness over the run."""
        return {
            "obs.trace_overhead_frac": (self.scaled(traced["wall"])
                                        / self.scaled(untraced["wall"])
                                        - 1.0),
            "bench.wall_raw_s": untraced["wall_s"],
            "bench.slowness": self.sampler.run_slowness(),
        }

    def traced(self, index: int) -> bool:
        """Odd passes are traced in a ``--trace 1`` run."""
        return bool(self.args.trace) and index % 2 == 1

    def check_ledger(self, statuses: dict) -> None:
        """Per-seed status counts must repeat exactly across runs."""
        path = os.path.join(WORK, "status-ledger.json")
        key = f"{self.args.workload}:{self.args.seed}"
        try:
            with open(path, encoding="utf-8") as fh:
                ledger = json.load(fh)
        except (OSError, ValueError):
            ledger = {}
        if key in ledger and ledger[key] != statuses:
            self.errors.append(f"status counts {statuses} differ from an "
                               f"earlier run's {ledger[key]} on seed "
                               f"{self.args.seed}")
        ledger[key] = statuses
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, sort_keys=True)
        os.replace(tmp, path)


# -- casestudy ------------------------------------------------------------

def casestudy(run: Run) -> tuple[dict, dict]:
    script = os.path.join(HERE, "casestudy_pass.py")

    def child(tag: str, *extra: str) -> dict:
        out = os.path.join(run.work, f"{tag}.json")
        subprocess.run([sys.executable, script, "--seed",
                        str(run.args.seed), "--out", out, *extra],
                       cwd=ROOT, check=True, timeout=PASS_TIMEOUT)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    passes = run.passes(lambda i: child(
        f"pass{i}", *(["--trace"] if run.traced(i) else [])),
        probe=lambda i: child(f"setup{i}", "--setup-only")["setup"][0])

    first = passes[0]
    for i, result in enumerate(passes):
        run.errors += result["gate_errors"]
        run.attempted += result["statements"]
        for key in ("labels_digest", "rows", "statuses"):
            if result[key] != first[key]:
                run.errors.append(f"pass {i} {key} differs from pass 0")
    run.check_ledger(first["statuses"])

    untraced = [p for i, p in enumerate(passes) if not run.traced(i)]
    end_to_end = run.end_to_end(untraced, first["statements"], "wall")
    layers = {}
    if run.args.trace:
        traced = passes[1]
        layers = dict(traced["layers"])
        layers.update(latency_layers(untraced[0]["statement_ms"]))
        layers.update(run.speed_layers(traced, untraced[0]))
    return end_to_end, layers


# -- service workloads ----------------------------------------------------

def service_workload(run: Run) -> tuple[dict, dict]:
    bots = run.args.workload == "ingest_bots_store"
    stream = (service.bots_stream(run.args.seed) if bots
              else service.unique_stream(run.args.seed))
    recommend_sql = service.recommend_sql(stream) if bots else ""
    passes = run.passes(lambda i: service.run_pass(
        run.work, f"pass{i}", stream, store=bots, reader=bots,
        recommend_sql=recommend_sql, traced=run.traced(i)),
        probe=lambda i: service.setup_probe(run.work, f"setup{i}"))

    first = passes[0]
    counts = {status: first["statuses"].count(status)
              for status in ("clustered", "unclustered", "failed")}
    expected, errors = service.batch_state(stream, first["statuses"])
    run.errors += errors
    live = first["state"]["clusters"] if first["state"] else None
    if live is None or any(live[key] != expected[key]
                           for key in expected):
        run.errors.append("live /clusters differs from weighted batch "
                          "DBSCAN over the stream")
    for i, result in enumerate(passes):
        run.attempted += result["attempted"]
        run.failed += len(result["failures"])
        run.errors += result["failures"][:3]
        if result["statuses"] != first["statuses"]:
            run.errors.append(f"pass {i} statuses differ from pass 0")
        if result["state"] != first["state"]:
            run.errors.append(f"pass {i} state differs from pass 0")
        if bots and result["restart_state"] != result["state"]:
            run.errors.append(f"pass {i}: state after restart differs "
                              f"from the state before the stop")
    run.check_ledger(counts)

    untraced = [p for i, p in enumerate(passes) if not run.traced(i)]
    end_to_end = run.end_to_end(untraced, len(stream), "stream")
    layers = {}
    if run.args.trace:
        layers = service_layers(passes[1], untraced[0], stream)
        layers.update(latency_layers(untraced[0]["latencies_ms"]))
        layers.update(run.speed_layers(passes[1], untraced[0]))
    return end_to_end, layers


def _load(path: str) -> tuple[SpanRecorder, dict]:
    """The spans and counters ``serve_traced.py`` wrote at shutdown."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    recorder = SpanRecorder()
    recorder.spans = data["spans"]
    return recorder, data["extras"]


def service_layers(traced: dict, untraced: dict, stream: list) -> dict:
    """Per-layer numbers from the traced pass's server-side spans."""
    rec, extras = _load(traced["spans"])

    def span_ms(name):
        return [(s[2] - s[1]) * 1e3 for s in rec.named(name)]

    ingests = rec.named("service.ingest")
    n_ingest = len(ingests)
    stream_end = max(span[2] for span in ingests)
    inserts = span_ms("distance.insert_row")
    fifth = max(1, len(inserts) // 5)
    adds = rec.named("clustering.add")
    ingest_ms = quantile(span_ms("service.ingest"), 0.5)
    layers = {
        "sqlparser.parse_us": mean(span_ms("sqlparser.parse")) * 1e3,
        "core.extract_us": mean(span_ms("core.extract")) * 1e3,
        "core.extract_fail_frac":
            traced["statuses"].count("failed") / len(stream),
        "core.intern_hit_rate": extras["intern_hit_rate"],
        "core.monitor_self_ms":
            mean(rec.self_times("core.monitor_process")) * 1e3,
        "distance.insert_early_ms": mean(inserts[:fifth]),
        "distance.insert_late_ms": mean(inserts[-fifth:]),
        "clustering.repair_ms":
            mean(rec.self_times("clustering.add")) * 1e3,
        "clustering.neighbors_per_add":
            sum(s[4] for s in rec.named("distance.neighbors"))
            / max(1, len(adds)),
        "service.ingest_ms": ingest_ms,
        "service.http_ms":
            quantile(traced["latencies_ms"], 0.5) - ingest_ms,
        "service.snapshot_rebuilds":
            len(rec.named("service.snapshot_rebuild")),
        "service.snapshot_ms": mean(span_ms("service.snapshot_rebuild")),
        "service.recommender_fits":
            len(rec.named("service.recommender_fit")),
        "service.recommender_fit_ms":
            mean(span_ms("service.recommender_fit")),
        "store.append_area_ms": mean(span_ms("store.append_area")),
        "store.append_journal_ms": mean(span_ms("store.append_journal")),
        "store.checkpoints": len(rec.named("store.checkpoint")),
        "store.checkpoint_ms": mean(span_ms("store.checkpoint")),
        "obs.record_ms": rec.outermost_total(
            {"obs.intern_len", "obs.intern_record", "obs.store_record"},
            under="service.ingest") * 1e3 / n_ingest,
    }
    if "read_ms" in traced:
        gets = [(s[2] - s[1]) * 1e3 for s in rec.named("service.get")
                if s[1] < stream_end]
        layers["service.read_wait_ms"] = (mean(traced["read_ms"])
                                          - mean(gets))
        layers["bench.read_p50_ms"] = quantile(untraced["read_ms"], 0.5)
        layers["bench.read_p99_ms"] = quantile(untraced["read_ms"], 0.99)
        layers["bench.reader_lag_p99_ms"] = quantile(
            untraced["read_lag_ms"], 0.99)
    if "page_reads" in extras:
        layers["store.page_reads_per_ingest"] = (extras["page_reads"]
                                                 / n_ingest)
        layers["store.pool_hit_rate"] = (
            extras["pool_hits"] / extras["page_reads"]
            if extras["page_reads"] else 0.0)
        layers["store.bytes_per_stmt"] = (traced["store_bytes"]
                                          / len(stream))
        layers["store.restart_s"] = untraced["restart_s"]
    if traced.get("restart_spans"):
        restart, restart_extras = _load(traced["restart_spans"])
        init = restart.named("service.state_init")[0]
        layers["store.replay_ms_per_arrival"] = (
            (init[2] - init[1]) * 1e3 / max(1, restart_extras["replayed"]))
        layers["store.get_area_us"] = mean(
            (s[2] - s[1]) * 1e6 for s in restart.named("store.get_area"))
    return layers


# -- entry ----------------------------------------------------------------

def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(run: Run, measured: dict, declared: list) -> dict:
    """The contract's last line: every declared metric, by name."""
    metrics = {}
    for metric in declared:
        value = measured.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": not run.errors, "attempted": max(1, run.attempted),
            "failed": run.failed, "metrics": metrics}


def steadiness(args: argparse.Namespace, benchmark: dict) -> int:
    """Run the workload ``K`` times on successive seeds and report each
    end-to-end metric's median, quartiles and spread beside its bound."""
    values: dict[str, list[float]] = {}
    for k in range(args.steadiness):
        seed = args.seed + k
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            print(f"seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}", file=sys.stderr)
            return 1
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in line["metrics"].items()), flush=True)
    report = {}
    print(f"\n{args.workload}: {args.steadiness} runs")
    print(f"{'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for metric in benchmark["end_to_end"]:
        series = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        report[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": spread,
                                  "bound": metric["bound"]}
        print(f"{metric['name']:<22}{median:>12.4g}{q1:>12.4g}"
              f"{q3:>12.4g}{spread:>9.3f}{metric['bound']:>8.2f}")
    print(json.dumps({"workload": args.workload, "runs": args.steadiness,
                      "metrics": report}))
    return 0


def _exit_on_sigterm(signum: int, _frame) -> None:
    """Turn SIGTERM into ``SystemExit``, so that every ``finally`` stops
    the processes the run started."""
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run K times and report the spreads")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"skybench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    # Compile once up front so that no measured pass pays for it.
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)
    if args.steadiness:
        return steadiness(args, benchmark)

    sys.path.insert(0, SRC)
    run = Run(args)
    try:
        if args.workload == "casestudy":
            end_to_end, layers = casestudy(run)
        else:
            end_to_end, layers = service_workload(run)
    finally:
        run.sampler.stop()
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"skybench: the machine ran {run.sampler.run_slowness():.3f}x "
          f"the reference loop time", file=sys.stderr)
    for error in run.errors:
        print(f"skybench: {error}", file=sys.stderr)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    measured = layers if args.trace else end_to_end
    print(json.dumps(result_line(run, measured, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
