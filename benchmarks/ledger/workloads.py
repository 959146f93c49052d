"""The ledger's workloads; each run happens in a fresh child process.

Usage (``run.py`` does this for you)::

    PYTHONPATH=src python3 benchmarks/ledger/workloads.py \\
        --workload governed_shift --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: the end-to-end
metrics, the correctness checks, the operation counts and, when traced,
the per-layer metrics.  The daemon is driven as ``repro serve`` drives
it: ``MeasurementDaemon.start()`` + ``offer()`` + ``close()``, with a
``ServiceServer`` answering HTTP.  Readers are a separate process
(``loadgen.py``).  ``--seed`` moves only the trace generators; sketch
seeds are fixed, and the program receives only the generated columns.

Why each workload exists (details in README.md):

* ``governed_shift`` — the governor's own geometry: d=8 starting at an
  eighth of the 200 KB budget's width.  The narrow first epochs make
  the replace stage's conflict rounds dominate ingest.
* ``wide_serving`` — a wide two-shard daemon ingesting at full rate
  while one reader sends live slim, live fat, frozen SQL and status
  requests at a fixed rate.  Rotation, extraction, delta emission and
  HTTP dominate instead of replace.
* ``history_queries`` — no ingest while measured: closed-loop reads
  over 32 closed epochs that straddle a resize.  Only the query plane
  works.

A run's result line carries every end-to-end metric in BENCHMARK.json,
none of them 0, with ``setup_s`` the median of several set-ups in the
run.  So governed_shift also reads after each lifetime,
history_queries' ``ingest_pps`` is its set-up ingest, and each workload
sets up more than once.  The read mixes are the ledger's choice; no
observed use backs them.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.control import GovernorConfig
from repro.engine.sharded import SketchSpec
from repro.flowkeys.key import FIVE_TUPLE
from repro.obs.registry import MetricsRegistry, collecting
from repro.service import MeasurementDaemon, ServiceConfig, ServiceServer
from repro.sketches.base import COUNTER_BYTES, DEFAULT_KEY_BYTES
from repro.traffic.synthetic import caida_like, mawi_like, zipf_trace
from repro.traffic.trace import Trace
from tracer import CLIENT_SPAN, LOADGEN_THREAD, Tracer, layer_metrics, quantile_ms

HERE = Path(__file__).resolve().parent
LOADGEN = HERE / "loadgen.py"
OUT_DIR = HERE / "out"

CHUNK = 16_384
#: Sketch seeds are ``SKETCH_SEED + i`` and read patterns are drawn from
#: ``READ_SEED + i``; ``--seed`` never moves them.
SKETCH_SEED = 1
READ_SEED = 1
#: How often the memory sampler reads the resident set size.
RSS_PERIOD_S = 0.005
#: Back-to-back requests of the traced runs' keep-alive probe.
KEEPALIVE_PROBES = 10

#: The answer check: ARE over the exact ``TOP`` largest groups of each
#: key.  Across trace seeds the ARE of the top 100 spreads by 22-97%
#: (a few colliding heavy flows dominate it); over the top 3000 by 2-7%.
TOP = 3000
ARE_KEYS = (
    FIVE_TUPLE.partial("SrcIP", "DstIP", "SrcPort", "DstPort", "Proto"),
    FIVE_TUPLE.partial("SrcIP", "DstIP"),
    FIVE_TUPLE.partial("SrcIP"),
    FIVE_TUPLE.partial(("SrcIP", 24)),
    FIVE_TUPLE.partial(("DstIP", 16)),
)

# governed_shift: the ablation-best static geometry (d=8, l=1505) fixes
# a ~200 KB budget; the governor starts at an eighth of that width.
GOV_D = 8
GOV_BEST_L = 1505
GOV_BUDGET = GOV_D * GOV_BEST_L * (DEFAULT_KEY_BYTES + COUNTER_BYTES)
GOV_START_L = GOV_BEST_L // 8
GOV_HALF = 2**19
GOV_EPOCH = 131_072
GOV_EPOCHS = 2 * GOV_HALF // GOV_EPOCH
#: Set-ups per lifetime for the ``setup_s`` median; each workload keeps
#: only its last set-up and measures that one.
GOV_SETUPS = 3
#: Seconds of --seconds per lifetime; fixes K from --seconds (8 at 20 s)
#: so every commit runs the same lifetimes on the same inputs.  One
#: lifetime's rate swings by up to ±25% with the host, so the run's rate
#: needs several.
GOV_LIFETIME_S = 2.5
#: Closed-loop reads per second of --seconds, spread over the lifetimes.
GOV_READS_PER_S = 60

# wide_serving
WIDE_PACKETS = 655_360
WIDE_FLOWS = 100_000
WIDE_L = 65_536
#: Open-loop read rate of the one reader connection.  Under full-rate
#: ingest a reply takes 33 ms on average over the four requests, so at
#: 50 req/s the backlog grows without bound (p50 8.5 s); at 10 req/s the
#: reader keeps up with room for the slow fat reads.
WIDE_RATE = 10.0
#: Set-ups per run for the ``setup_s`` median (each ingests one pass).
WIDE_SETUPS = 9
#: Retained epochs.  The store and the per-epoch planner cache fill
#: within the first seconds, so peak memory does not depend on how many
#: passes a run gets through.
WIDE_HISTORY = 16
#: Closed epochs the answer check averages over (each is one full pass).
WIDE_ARE_EPOCHS = 4

# history_queries
HIST_PACKETS = 8 * 8 * CHUNK  # one trace pass = 8 epochs of 8 chunks
HIST_PASSES = 4
HIST_EPOCH = 8 * CHUNK
HIST_EPOCHS = HIST_PASSES * HIST_PACKETS // HIST_EPOCH
HIST_L = 4096
HIST_GROWN_L = 8192
#: Requests per second of --seconds; fixes N (3000 at 20 s).
HIST_REQUESTS_PER_S = 150
#: Set-ups per run for the ``setup_s`` median (each ingests all 32 epochs).
HIST_SETUPS = 5

FIELDS = ("SrcIP", "DstIP", "SrcPort", "DstPort", "Proto")
WHERE = ("Proto = 6", "DstPort = 443", "SrcIP/8 >= 128", "SrcPort < 1024")


def trace_seed(seed: int, index: int) -> int:
    """Generator seed for the *index*-th trace of a run at *seed*."""
    return seed * 1_000 + index


_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process (Linux ``/proc``)."""
    with open("/proc/self/statm", "rb") as statm:
        return int(statm.read().split()[1]) * _PAGE


class Run:
    """One workload run: checks, operation counts, windows, spans."""

    def __init__(self, seed: int, seconds: float, traced: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.registry = MetricsRegistry() if traced else None
        self.checks: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.windows: List[dict] = []
        self.setup: List[float] = []
        self.memory: List[float] = []
        self.ingest: List[tuple] = []
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.query_time = 0.0
        self.client_spans: List[list] = []
        self.extras: Dict[str, List[float]] = {}
        self._span_base = 10**9

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one correctness check; the first failure's detail sticks."""
        entry = self.checks.setdefault(name, {"ok": True, "count": 0, "detail": ""})
        entry["count"] += 1
        if not ok and entry["ok"]:
            entry["ok"] = False
            entry["detail"] = detail

    def extra(self, name: str, value: float) -> None:
        self.extras.setdefault(name, []).append(float(value))

    def ingested(self, packets: int, seconds: float) -> None:
        """Record one timed stretch of ingest (a lifetime, pass or set-up)."""
        self.ingest.append((packets, seconds))

    @contextlib.contextmanager
    def daemon_memory(self):
        """Record the daemon's peak memory: resident set above the entry's.

        Enter after the traces and ground truth exist and leave before
        the answer check, so only the daemon, its server and the reads
        it answers count, not the benchmark's own data.
        """
        baseline = peak = rss_bytes()
        stop = threading.Event()

        def sample() -> None:
            nonlocal peak
            while not stop.wait(RSS_PERIOD_S):
                peak = max(peak, rss_bytes())

        sampler = threading.Thread(target=sample, name="ledger-rss")
        sampler.start()
        try:
            yield
        finally:
            stop.set()
            sampler.join()
            peak = max(peak, rss_bytes())
            self.memory.append((peak - baseline) / 2**20)

    @contextlib.contextmanager
    def measured(self, kind: str):
        """A measured window: tracing and the registry are on inside it.

        Yields the window dict; the caller may narrow ``start``/``end``.
        """
        window = {"kind": kind, "start": time.perf_counter()}
        if self.tracer is None:
            yield window
        else:
            self.tracer.enabled = True
            try:
                with collecting(self.registry):
                    yield window
            finally:
                self.tracer.enabled = False
        window.setdefault("end", time.perf_counter())
        self.windows.append(window)

    @contextlib.contextmanager
    def loadgen(self, server: ServiceServer, job: dict):
        """Start the load-generator process on *job*; always reaped."""
        job = dict(
            job,
            host=server.host,
            port=server.port,
            trace=self.tracer is not None,
            span_base=self._span_base,
        )
        self._span_base += 10**6
        proc = subprocess.Popen(
            [sys.executable, str(LOADGEN)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            proc.stdin.write(json.dumps(job) + "\n")
            proc.stdin.flush()
            yield proc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()

    def collect(self, proc: subprocess.Popen, timeout: float) -> dict:
        """Wait for the load generator and fold its samples in."""
        out, _ = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"load generator exited with {proc.returncode}")
        result = json.loads(out.splitlines()[-1])
        samples = result["samples"]
        for _idx, due, sent, done, status, ok in samples:
            self.attempted += 1
            if status != 200:
                self.failed += 1
            self.latencies.append(done - due)
            self.lateness.append(sent - due)
        self.check(
            "http.replies",
            not result["errors"],
            "; ".join(result["errors"][:3]),
        )
        if samples:
            self.query_time += max(s[3] for s in samples) - min(s[1] for s in samples)
        for sid, sent, done in result["spans"]:
            self.client_spans.append([sid, None, CLIENT_SPAN, LOADGEN_THREAD, sent, done, None])
        return result

    def client_window(self, window: dict, result: dict) -> None:
        """Narrow a client window to the load generator's first due .. last reply."""
        samples = result["samples"]
        if samples:
            window["start"] = min(s[1] for s in samples)
            window["end"] = max(s[3] for s in samples)

    def keepalive_probe(self, server: ServiceServer) -> None:
        """Traced runs: the keep-alive stall a plain client pays (README.md)."""
        if self.tracer is not None:
            self.extra("service.http.keepalive_p50_ms", probe(server, KEEPALIVE_PROBES))


def probe(server: ServiceServer, requests: int = 1) -> float:
    """Send *requests* back-to-back ``/epochs`` on one keep-alive connection.

    Every reply must be 200; returns the median latency in ms.  Unlike
    the load generator this client keeps its delayed ACK, as a plain
    HTTP client does.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    latencies = []
    try:
        for _ in range(requests):
            start = time.perf_counter()
            conn.request("GET", "/epochs")
            response = conn.getresponse()
            response.read()
            latencies.append(time.perf_counter() - start)
            if response.status != 200:
                raise RuntimeError(f"probe got HTTP {response.status}")
    finally:
        conn.close()
    return quantile_ms(latencies, 50)


def top_truth(trace: Trace, multiplier: int = 1) -> Dict:
    """Exact top-``TOP`` groups of each ARE key, scaled by *multiplier*."""
    truth = {}
    for spec in ARE_KEYS:
        counts = trace.ground_truth(spec)
        ranked = sorted(counts.items(), key=lambda kv: -kv[1])[:TOP]
        truth[spec] = [(key, value * multiplier) for key, value in ranked]
    return truth


def answer_are(run: Run, label: str, planner, truth: Dict, covered: int) -> float:
    """Mean relative error over the truth rows; checks exact mass per key."""
    errors = []
    for spec, rows in truth.items():
        table = planner.table(spec)
        run.check(
            f"{label}.mass",
            table.total == covered,
            f"{spec.name}: rows sum to {table.total}, answer covers {covered}",
        )
        estimates = table.to_dict()
        errors.extend(abs(estimates.get(key, 0.0) - value) / value for key, value in rows)
    return float(np.mean(errors))


def _quote(text: str) -> str:
    return urllib.parse.quote(text, safe="")


def random_key(rng: random.Random) -> List[str]:
    """A random partial key: one or two fields, IPs at a random prefix."""
    names = sorted(rng.sample(FIELDS, rng.choice((1, 1, 2))), key=FIELDS.index)
    parts = []
    for name in names:
        bits = rng.choice((8, 16, 24, 32)) if name.endswith("IP") else 0
        parts.append(f"{name}/{bits}" if bits and bits < 32 else name)
    return parts


def range_topk(rng: random.Random, lo: int, hi: int) -> dict:
    key = _quote(",".join(random_key(rng)))
    return {"path": f"/topk?key={key}&k=20&epoch={lo}-{hi}"}


def frozen_sql(rng: random.Random, epoch: int) -> dict:
    """A GROUP BY on one epoch; half carry a WHERE, which may match no row."""
    key = ", ".join(random_key(rng))
    filtered = rng.random() < 0.5
    where = f" WHERE {rng.choice(WHERE)}" if filtered else ""
    sql = (
        f"SELECT {key}, SUM(size) FROM flows{where} GROUP BY {key} "
        "ORDER BY SUM(size) DESC LIMIT 20"
    )
    return {"path": f"/query?sql={_quote(sql)}&epoch={epoch}", "filtered": filtered}


# ---------------------------------------------------------------------------
# governed_shift


def governed_shift(run: Run) -> float:
    governor = GovernorConfig(
        memory_bytes=GOV_BUDGET,
        # Theorem 1 updates only the minimum of d candidates, so a
        # saturated d=8 array sits near 2/d of the d=2 occupancy; the
        # thresholds scale the same way as run_adaptive_sweep's.
        grow_occupancy=min(0.70, 2 * 0.70 / GOV_D),
        shrink_occupancy=min(0.25, 2 * 0.25 / GOV_D),
    )
    lifetimes = max(1, round(run.seconds / GOV_LIFETIME_S))
    reads = max(1, round(run.seconds * GOV_READS_PER_S / lifetimes))
    ares = []
    for i in range(lifetimes):
        head = caida_like(GOV_HALF, 20_000, seed=trace_seed(run.seed, 2 * i))
        tail = mawi_like(GOV_HALF, 6_667, seed=trace_seed(run.seed, 2 * i + 1))
        blocks = list(
            Trace(FIVE_TUPLE, head.keys + tail.keys, name="caida->mawi").batches(CHUNK)
        )
        truth = top_truth(tail)
        del head, tail
        config = ServiceConfig(
            spec=SketchSpec("numpy", "basic", GOV_D, GOV_START_L, SKETCH_SEED + i),
            key_spec=FIVE_TUPLE,
            shards=1,
            chunk=CHUNK,
            epoch_packets=GOV_EPOCH,
            governor=governor,
        )
        with run.daemon_memory(), contextlib.ExitStack() as stack:
            for _ in range(GOV_SETUPS):
                stack.close()
                start = time.perf_counter()
                daemon = MeasurementDaemon(config)
                stack.callback(daemon.close)
                daemon.start()
                server = ServiceServer(daemon).start()
                stack.callback(server.close)
                probe(server)
                run.setup.append(time.perf_counter() - start)

            with run.measured("ingest"):
                start = time.perf_counter()
                for hi, lo, sizes in blocks:
                    daemon.offer(hi, lo, sizes)
                daemon.close()
                run.ingested(2 * GOV_HALF, time.perf_counter() - start)
            run.attempted += len(blocks)

            ids = daemon.store.ids()
            run.check("governed.epochs", ids == list(range(GOV_EPOCHS)), f"ids {ids}")
            snaps = [daemon.store.get(e) for e in ids]
            run.check(
                "governed.packets",
                sum(s.packets for s in snaps) == 2 * GOV_HALF,
                f"{sum(s.packets for s in snaps)} packets in epochs",
            )
            post = [s for s in snaps if s.start_seq >= GOV_HALF]
            lo_id, hi_id = post[0].epoch, post[-1].epoch

            # Reads after the shift, there because every workload reports
            # the query metrics: ranges within the post-shift epochs,
            # frozen SQL on any epoch.
            rng = random.Random(READ_SEED + i)
            requests = []
            for _ in range(reads):
                if rng.random() < 0.5:
                    first = rng.randint(lo_id, hi_id)
                    requests.append(range_topk(rng, first, rng.randint(first, hi_id)))
                else:
                    requests.append(frozen_sql(rng, rng.randrange(GOV_EPOCHS)))
            with run.loadgen(server, {"mode": "closed", "requests": requests}) as proc:
                with run.measured("client") as window:
                    result = run.collect(proc, timeout=120)
                run.client_window(window, result)
            run.keepalive_probe(server)

        ares.append(
            answer_are(
                run,
                "governed",
                daemon.range_planner(lo_id, hi_id),
                truth,
                sum(s.packets for s in post),
            )
        )
        counters = daemon.metrics_snapshot()["counters"]
        run.extra("control.resizes", counters.get("control.resizes", 0))
        run.extra("control.final_l", daemon.spec.l)
    return float(np.mean(ares))


# ---------------------------------------------------------------------------
# wide_serving


def wide_serving(run: Run) -> float:
    trace = zipf_trace(WIDE_PACKETS, WIDE_FLOWS, alpha=1.1, seed=trace_seed(run.seed, 0))
    blocks = list(trace.batches(CHUNK))
    truth = top_truth(trace)
    del trace
    config = ServiceConfig(
        spec=SketchSpec("numpy", "basic", 2, WIDE_L, SKETCH_SEED),
        key_spec=FIVE_TUPLE,
        shards=2,
        strategy="hash",
        chunk=CHUNK,
        epoch_packets=WIDE_PACKETS,
        history=WIDE_HISTORY,
    )
    mass_sql = "SELECT SrcIP/16, SUM(size) FROM flows GROUP BY SrcIP/16"
    requests = [
        {"path": "/topk?key=SrcIP/16&k=10"},
        {"path": "/topk?key=SrcIP/16&k=10&view=fat"},
        {"path": f"/query?sql={_quote(mass_sql)}&epoch={{newest}}", "mass": True},
        {"path": "/epochs"},
    ]
    with run.daemon_memory(), contextlib.ExitStack() as stack:
        for _ in range(WIDE_SETUPS):
            stack.close()
            daemon = server = None  # the closed set-up is freed before the next
            start = time.perf_counter()
            daemon = MeasurementDaemon(config)
            stack.callback(daemon.close)
            daemon.start()
            server = ServiceServer(daemon).start()
            stack.callback(server.close)
            for hi, lo, sizes in blocks:
                daemon.offer(hi, lo, sizes)
            daemon.stop_feeder()  # epoch 0 is closed: frozen reads can start
            daemon.start()
            run.setup.append(time.perf_counter() - start)
            run.attempted += len(blocks)

        start_at = time.perf_counter() + 0.5
        job = {
            "mode": "open",
            "rate": WIDE_RATE,
            "seconds": run.seconds,
            "start_at": start_at,
            "requests": requests,
        }
        with run.loadgen(server, job) as proc:
            time.sleep(max(start_at - time.perf_counter(), 0.0))
            marks = []
            with run.measured("ingest"):
                while time.perf_counter() < start_at + run.seconds:
                    marks.append(time.perf_counter())
                    for hi, lo, sizes in blocks:
                        daemon.offer(hi, lo, sizes)
                daemon.stop_feeder()
                marks.append(time.perf_counter())
            run.attempted += len(blocks) * (len(marks) - 1)
            run.collect(proc, timeout=run.seconds + 60)
        run.keepalive_probe(server)
        daemon.close()

    passes = len(marks)  # the set-up pass plus the measured ones
    ids = daemon.store.ids()
    expected = list(range(max(0, passes - config.history), passes))
    run.check("wide.epochs", ids == expected, f"ids {ids[:3]}..{ids[-3:]}")
    run.check(
        "wide.packets",
        all(daemon.store.get(e).packets == WIDE_PACKETS for e in ids),
        "an epoch does not hold exactly one pass",
    )
    ares = [
        answer_are(run, "wide", daemon.epoch_planner(e), truth, WIDE_PACKETS)
        for e in ids[-WIDE_ARE_EPOCHS:]
    ]
    counters = daemon.metrics_snapshot()["counters"]
    run.extra("control.resizes", counters.get("control.resizes", 0))
    run.extra("control.final_l", daemon.spec.l)
    for a, b in zip(marks, marks[1:]):
        run.ingested(WIDE_PACKETS, b - a)
    return float(np.mean(ares))


# ---------------------------------------------------------------------------
# history_queries


def history_requests(count: int) -> List[dict]:
    """The closed-loop request sequence (30/35/35 mix).

    Its seed is fixed: ``--seed`` moves only the trace generators.
    """
    rng = random.Random(READ_SEED)
    mass_sql = "SELECT SrcIP/8, SUM(size) FROM flows GROUP BY SrcIP/8"
    last = HIST_EPOCHS - 1
    dashboard = [
        {"path": f"/topk?key=SrcIP/16&k=20&epoch={last - 7}-{last}"},
        {"path": f"/query?sql={_quote(mass_sql)}&epoch={last}", "mass": True},
        # straddles the resize between epochs 16 and 17
        {"path": "/topk?key=DstIP/24&k=20&epoch=12-19"},
        {"path": "/epochs"},
    ]
    requests = []
    for _ in range(count):
        u = rng.random()
        if u < 0.30:
            requests.append(rng.choice(dashboard))
        elif u < 0.65:
            span = rng.randint(2, 8)
            lo = rng.randint(0, HIST_EPOCHS - span)
            requests.append(range_topk(rng, lo, lo + span - 1))
        else:
            requests.append(frozen_sql(rng, rng.randrange(HIST_EPOCHS)))
    return requests


def history_queries(run: Run) -> float:
    trace = caida_like(HIST_PACKETS, 20_000, seed=trace_seed(run.seed, 0))
    blocks = list(trace.batches(CHUNK))
    truth = top_truth(trace, multiplier=HIST_PASSES)
    del trace
    config = ServiceConfig(
        spec=SketchSpec("numpy", "basic", 2, HIST_L, SKETCH_SEED),
        key_spec=FIVE_TUPLE,
        shards=2,
        chunk=CHUNK,
        epoch_packets=HIST_EPOCH,
    )
    with run.daemon_memory(), contextlib.ExitStack() as stack:
        for _ in range(HIST_SETUPS):
            stack.close()
            daemon = server = None  # the closed set-up is freed before the next
            start = time.perf_counter()
            daemon = MeasurementDaemon(config)
            stack.callback(daemon.close)
            daemon.start()
            ingest_start = time.perf_counter()
            for p in range(HIST_PASSES):
                if p == HIST_PASSES // 2:
                    # Live epoch 16 is open and empty: the resize lands at
                    # its rotation, so epochs 17.. are twice as wide.
                    daemon.stop_feeder()
                    daemon.set_geometry(HIST_GROWN_L)
                    daemon.start()
                for hi, lo, sizes in blocks:
                    daemon.offer(hi, lo, sizes)
            daemon.stop_feeder()
            run.ingested(HIST_PASSES * HIST_PACKETS, time.perf_counter() - ingest_start)
            server = ServiceServer(daemon).start()
            stack.callback(server.close)
            probe(server)
            run.setup.append(time.perf_counter() - start)
            run.attempted += HIST_PASSES * len(blocks)

        ids = daemon.store.ids()
        run.check("history.epochs", ids == list(range(HIST_EPOCHS)), f"ids {ids}")
        widths = [meta["l"] for meta in daemon.store.metas()]
        want = [HIST_L] * (HIST_EPOCHS // 2 + 1) + [HIST_GROWN_L] * (HIST_EPOCHS // 2 - 1)
        run.check("history.geometry", widths == want, f"widths {widths}")

        count = max(1, round(run.seconds * HIST_REQUESTS_PER_S))
        job = {"mode": "closed", "requests": history_requests(count)}
        with run.loadgen(server, job) as proc:
            with run.measured("client") as window:
                result = run.collect(proc, timeout=170)
            run.client_window(window, result)
        run.keepalive_probe(server)

    are = answer_are(
        run,
        "history",
        daemon.range_planner(0, HIST_EPOCHS - 1),
        truth,
        HIST_EPOCHS * HIST_EPOCH,
    )
    counters = daemon.metrics_snapshot()["counters"]
    run.extra("control.resizes", counters.get("control.resizes", 0))
    run.extra("control.final_l", daemon.spec.l)
    return are


WORKLOADS = {
    "governed_shift": governed_shift,
    "wide_serving": wide_serving,
    "history_queries": history_queries,
}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    run = Run(seed, seconds, traced)
    if run.tracer is not None:
        run.tracer.install()
    try:
        are = WORKLOADS[name](run)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    metrics = {
        "setup_s": statistics.median(run.setup),
        # All packets over all ingest time: a median of per-pass rates
        # would fall between passes that did and did not overlap a read.
        "ingest_pps": sum(p for p, _ in run.ingest) / sum(s for _, s in run.ingest),
        "query_p50_ms": quantile_ms(run.latencies, 50),
        "query_p90_ms": quantile_ms(run.latencies, 90),
        "query_qps": len(run.latencies) / run.query_time,
        "answer_are": are,
        "rss_peak_mb": max(run.memory),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        # The headline rate trace.overhead compares: ingest where the
        # measured phase ingests, else queries.
        "rate": metrics["query_qps" if name == "history_queries" else "ingest_pps"],
        "ingest_rates": [p / s for p, s in run.ingest],
        "setup_times": run.setup,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "metrics": metrics,
        "samples": len(run.latencies),
    }
    if run.tracer is not None:
        spans = run.tracer.spans + run.client_spans
        registry = run.registry.snapshot()
        extras = {k: float(np.mean(v)) for k, v in run.extras.items()}
        extras["loadgen.late.p99_ms"] = quantile_ms(run.lateness, 99)
        extras["loadgen.requests"] = len(run.latencies)
        record["layers"] = layer_metrics(spans, run.windows, registry, extras)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        path.write_text(
            json.dumps(
                {
                    "workload": name,
                    "seed": seed,
                    "columns": ["id", "parent", "name", "thread", "start", "end", "value"],
                    "windows": run.windows,
                    "spans": spans,
                    "registry": registry,
                }
            )
        )
        record["spans_file"] = str(path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ledger workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
