"""The two service workloads: ``ingest_unique`` and ``ingest_bots_store``.

Each pass launches a fresh ``repro serve`` process (and, with the
store on, a fresh store directory), feeds it the whole seeded stream
through one closed-loop writer connection, and stops it with SIGINT.
On ``ingest_bots_store`` an open-loop reader runs beside the writer on
a second connection, and after the stream the server is relaunched on
the populated store to time the restart.  The load generator is this
one process; the server runs in its own.

The correctness gates run outside the timed region: the live
``/clusters`` must equal weighted batch DBSCAN over the stream
extracted in this process, every later pass must reproduce the first
pass's state, and after a restart the state read back must equal the
state before the stop.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import quote

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: ``ingest_unique``: generated statements (about 93% distinct areas)
UNIQUE_QUERIES = 2000
#: ``ingest_bots_store``: generated statements, bots × repeats, and
#: how many of the generated statements come before the bot-heavy tail
BOT_QUERIES = 1300
N_BOTS = 20
BOT_REPEATS = 30
EARLY_GENERATED = 1100
EARLY_BOT_REPEATS = 100
#: open-loop reader rate (requests per second) on ``ingest_bots_store``.
#: Each read waits for the ingest in progress (up to ~40 ms late in the
#: stream), so the rate stays well below 25/s to avoid a growing
#: backlog.
READ_RATE = 8.0
#: the reader's next slot after every ``RECOMMEND_EVERY`` acknowledged
#: statements is a ``/recommend``.  Its first call after a structure
#: change refits the recommender (0.1 to 0.8 s on a 2-vCPU x86-64 VM),
#: so refits are tied to stream progress, not to the clock: a time-
#: based schedule puts more refits into a slower pass, which slows it
#: further and makes the pass time swing with machine speed.
RECOMMEND_EVERY = 400
REQUEST_TIMEOUT = 60.0
LAUNCH_TIMEOUT = 120.0


# -- inputs ---------------------------------------------------------------

def _interleave(base: list, extra: list, rng: random.Random) -> list:
    """``base`` in order with ``extra`` spread over seeded positions."""
    slots = set(rng.sample(range(len(base) + len(extra)), len(extra)))
    base_it, extra_it = iter(base), iter(extra)
    return [next(extra_it) if i in slots else next(base_it)
            for i in range(len(base) + len(extra))]


def unique_stream(seed: int) -> list[tuple[str, str]]:
    from repro.workload import WorkloadConfig, generate_workload
    workload = generate_workload(WorkloadConfig(n_queries=UNIQUE_QUERIES,
                                                seed=seed))
    return list(workload.log.statements_with_users())


def bots_stream(seed: int) -> list[tuple[str, str]]:
    """Generated statements interleaved with bot repeats.

    Most repeats sit in the tail, so the unique population crosses the
    store's checkpoint threshold (1024 index deltas) early enough that
    the post-checkpoint stretch is a large share of the stream.
    """
    from repro.workload import WorkloadConfig, generate_workload
    from repro.workload.templates import table1_families
    workload = generate_workload(WorkloadConfig(n_queries=BOT_QUERIES,
                                                seed=seed))
    generated = list(workload.log.statements_with_users())
    rng = random.Random(seed)
    families = table1_families()
    repeats = []
    for bot in range(N_BOTS):
        sql = families[bot % len(families)].generate(rng)
        repeats += [(sql, f"bot{bot:03d}")] * BOT_REPEATS
    rng.shuffle(repeats)
    early = _interleave(generated[:EARLY_GENERATED],
                        repeats[:EARLY_BOT_REPEATS], rng)
    late = _interleave(generated[EARLY_GENERATED:],
                       repeats[EARLY_BOT_REPEATS:], rng)
    return early + late


# -- the server process ---------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process (optionally under the traced
    launcher), started and stopped by the benchmark."""

    def __init__(self, work: str, tag: str, store_dir: Optional[str],
                 spans_out: Optional[str]) -> None:
        self.port = free_port()
        self.log_path = os.path.join(work, f"{tag}.log")
        argv = ["serve", "--port", str(self.port), "--runs-dir",
                os.path.join(work, "runs")]
        if store_dir:
            argv += ["--store-dir", store_dir]
        if spans_out:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   spans_out] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        #: when the launch began (``time.perf_counter``)
        self.launched = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         env=env, cwd=ROOT)
        self._wait_healthy()
        #: launch until ``/healthz`` answers
        self.ready_s = time.perf_counter() - self.launched

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + LAUNCH_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.proc.returncode} during "
                                   f"start-up; see {self.log_path}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.002)
        self.kill()
        raise RuntimeError("server did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the documented way to stop ``repro serve``) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=LAUNCH_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("server ignored SIGINT") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with code "
                               f"{self.proc.returncode}; see "
                               f"{self.log_path}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# -- the load generator ---------------------------------------------------

class Connection:
    """One keep-alive HTTP connection; errors count as failures."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None
        self.failures: list[str] = []
        self.attempted = 0

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Optional[dict]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        headers = {"content-type": "application/json"} if body else {}
        self.attempted += 1
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.failures.append(f"{method} {path}: {exc!r}")
            self.close()
            return None
        if response.status != 200:
            self.failures.append(f"{method} {path}: HTTP "
                                 f"{response.status} {payload[:200]!r}")
            return None
        return json.loads(payload)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class Reader:
    """Open-loop reader: one request every ``1/rate`` seconds, each
    timed from its due time, cycling through the read endpoints."""

    port: int
    rate: float
    recommend_sql: str
    #: ``[user of the latest acknowledged, extracted statement,
    #: number of statements acknowledged]``, written by the writer
    progress: list
    latencies_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    conn: Optional[Connection] = None

    def run(self, stop: threading.Event) -> None:
        conn = self.conn = Connection(self.port)
        start = time.perf_counter()
        k = 0
        recommended = 0
        while not stop.is_set():
            due = start + k / self.rate
            delay = due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            user, acknowledged = self.progress
            if acknowledged // RECOMMEND_EVERY > recommended:
                recommended += 1
                path = (f"/recommend?k=5&sql="
                        f"{quote(self.recommend_sql)}")
            elif k % 2 == 0 or user is None:
                path = "/clusters"
            else:
                path = f"/users/{quote(user)}/interests"
            sent = time.perf_counter()
            conn.request("GET", path)
            done = time.perf_counter()
            self.lag_ms.append((sent - due) * 1e3)
            self.latencies_ms.append((done - due) * 1e3)
            k += 1
        conn.close()


def read_state(conn: Connection) -> Optional[dict]:
    """Everything the read API says about the labels: the cluster
    listing plus every cluster's bounds and describing expression."""
    listing = conn.request("GET", "/clusters")
    if listing is None:
        return None
    details = [conn.request("GET", f"/clusters/{row['id']}")
               for row in listing["clusters"]]
    return {"clusters": listing, "details": details}


# -- one pass -------------------------------------------------------------

def run_pass(work: str, tag: str, stream: list, *, store: bool,
             reader: bool, recommend_sql: str, traced: bool) -> dict:
    store_dir = os.path.join(work, f"{tag}-store") if store else None
    spans = os.path.join(work, f"{tag}-spans.json") if traced else None
    server = Server(work, tag, store_dir, spans)
    out: dict = {"setup": [[server.launched, server.ready_s]]}
    try:
        writer = Connection(server.port)
        progress: list = [None, 0]
        stop = threading.Event()
        read_loop = None
        if reader:
            read_loop = Reader(server.port, READ_RATE, recommend_sql,
                               progress)
            thread = threading.Thread(target=read_loop.run, args=(stop,))
            thread.start()
        latencies, statuses = [], []
        started = time.perf_counter()
        try:
            for sql, user in stream:
                body = json.dumps({"sql": sql, "user": user}).encode()
                sent = time.perf_counter()
                answer = writer.request("POST", "/queries", body)
                latencies.append((time.perf_counter() - sent) * 1e3)
                status = answer["status"] if answer else "error"
                statuses.append(status)
                if status in ("clustered", "unclustered") and user:
                    progress[0] = user
                progress[1] = len(statuses)
        finally:
            stream_s = time.perf_counter() - started
            stop.set()
            if read_loop is not None:
                thread.join()
        out.update(stream=[[started, stream_s]],
                   wall=[[started, stream_s]], latencies_ms=latencies,
                   statuses=statuses, peak_rss_mb=server.peak_rss_mb())
        connections = [writer]
        if read_loop is not None:
            out.update(read_ms=read_loop.latencies_ms,
                       read_lag_ms=read_loop.lag_ms)
            connections.append(read_loop.conn)
        out["state"] = read_state(writer)
        writer.close()
        server.stop()
        out["wall_s"] = stream_s
        if store:
            out["store_bytes"] = _tree_bytes(store_dir)
            restart_spans = (os.path.join(work, f"{tag}-restart-spans.json")
                             if traced else None)
            restarted = Server(work, f"{tag}-restart", store_dir,
                               restart_spans)
            try:
                out["restart_s"] = restarted.ready_s
                out["wall_s"] += restarted.ready_s
                out["wall"].append([restarted.launched, restarted.ready_s])
                conn = Connection(restarted.port)
                out["restart_state"] = read_state(conn)
                connections.append(conn)
                conn.close()
            finally:
                restarted.stop()
            if traced:
                out["restart_spans"] = restart_spans
        if traced:
            out["spans"] = spans
        out["attempted"] = sum(c.attempted for c in connections)
        out["failures"] = [f for c in connections for f in c.failures]
    finally:
        server.kill()
        if store_dir:
            shutil.rmtree(store_dir, ignore_errors=True)
    return out


def setup_probe(work: str, tag: str) -> list:
    """Launch a fresh server, time it to ``/healthz``, stop it; returns
    ``[launch time, seconds]``."""
    server = Server(work, tag, None, None)
    try:
        server.stop()
    finally:
        server.kill()
    return [server.launched, server.ready_s]


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(path) for f in files)


# -- correctness ----------------------------------------------------------

def batch_state(stream: list, statuses: list[str]) -> tuple[dict, list]:
    """Weighted batch DBSCAN over the stream extracted in process.

    Returns the ``/clusters`` listing it implies and a list of errors
    (a statement whose extraction outcome disagrees with the server's
    status).  Statements the server reported ``unclustered`` (refused
    by the backend before mutation) are left out, as the server does.
    """
    from repro.algebra.cnf import CNFConversionError
    from repro.clustering import DBSCAN
    from repro.core.extractor import AccessAreaExtractor
    from repro.distance import QueryDistance
    from repro.distance.block_sparse import compute_matrix
    from repro.schema import StatisticsCatalog, skyserver_schema
    from repro.schema.skyserver import CONTENT_BOUNDS
    from repro.service import ServiceConfig
    from repro.sqlparser import SqlError

    config = ServiceConfig()
    schema = skyserver_schema()
    extractor = AccessAreaExtractor(schema)
    errors = []
    index: dict = {}
    unique, weights = [], []
    for position, ((sql, _user), status) in enumerate(zip(stream,
                                                          statuses)):
        try:
            area = extractor.extract(sql).area
        except (SqlError, CNFConversionError):
            area = None
        if (area is None) != (status == "failed"):
            errors.append(f"statement {position}: server said {status!r},"
                          f" in-process extraction "
                          f"{'failed' if area is None else 'succeeded'}")
            continue
        if status != "clustered":
            continue
        if area in index:
            weights[index[area]] += 1
        else:
            index[area] = len(unique)
            unique.append(area)
            weights.append(1)
    metric = QueryDistance(StatisticsCatalog.from_exact_content(
        schema, CONTENT_BOUNDS))
    matrix = compute_matrix(unique, metric, mode="kernel", eps=config.eps)
    labels = DBSCAN(eps=config.eps, min_pts=config.min_pts).fit(
        unique, matrix=matrix, weights=weights).labels
    sizes: dict = {}
    counts: dict = {}
    for label, weight in zip(labels, weights):
        sizes[label] = sizes.get(label, 0.0) + weight
        counts[label] = counts.get(label, 0) + 1
    listing = {
        "n_clusters": len([label for label in sizes if label >= 0]),
        "clusters": [{"id": label, "weighted_size": sizes[label],
                      "unique_areas": counts[label]}
                     for label in sorted(sizes) if label >= 0],
        "noise": {"weighted_size": sizes.get(-1, 0.0),
                  "unique_areas": counts.get(-1, 0)},
    }
    return listing, errors


def recommend_sql(stream: list) -> str:
    """The first statement of the stream that extracts in process."""
    from repro.algebra.cnf import CNFConversionError
    from repro.core.extractor import AccessAreaExtractor
    from repro.schema import skyserver_schema
    from repro.sqlparser import SqlError
    extractor = AccessAreaExtractor(skyserver_schema())
    for sql, _user in stream:
        try:
            extractor.extract(sql)
        except (SqlError, CNFConversionError):
            continue
        return sql
    raise RuntimeError("no statement of the stream extracts")
