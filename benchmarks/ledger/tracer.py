"""Per-layer attribution for the ledger, timed from outside the program.

:class:`Tracer` replaces public callables of the daemon's layers with
wrappers that record one span per call: id, parent id, name, thread,
start, end and an optional size value.  A per-thread stack gives each
span its parent, so a layer's *self* time is its duration minus the
time its child spans cover.  HTTP handler spans take their parent from
the ``X-Ledger-Span`` header the load generator sends, which ties the
client's request span (in another process) to the daemon's work for
it; the client span's self time is then the transport time.

Nothing under ``src/`` changes: :meth:`Tracer.install` patches module
and class attributes and :meth:`Tracer.uninstall` restores them.
Spans are kept in memory and written out when the workload ends.

Three layers are split further with the program's own registry
(``repro.obs.registry.collecting``), read only during measured
windows: the staged pipeline's hash/replace/stats stage spans, the
basic kernel's conflict-round histogram, and the query planner's
extract/aggregate spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Callable, Dict, List

import numpy as np

SPAN_HEADER = "X-Ledger-Span"

#: Thread label of spans recorded by the load-generator process.
LOADGEN_THREAD = "loadgen"

#: Span name of a load-generator request (self time = transport).
CLIENT_SPAN = "service.http.transport"


def _imbalance(args, result) -> float:
    sizes = [len(part[2]) for part in result]
    mean = sum(sizes) / len(sizes) if sizes else 0.0
    return max(sizes) / mean if mean else 1.0


#: The layer map: (module, class or None, attribute, span name, value).
#: Module-level functions are patched in the module that imported them,
#: because that is the name the caller looks up.
LAYERS = [
    ("repro.service.daemon", "MeasurementDaemon", "offer", "service.offer", None),
    ("repro.service.daemon", "EpochBuilder", "feed", "service.reblock", None),
    ("repro.service.daemon", "EpochBuilder", "close", "service.rotate", None),
    ("repro.service.daemon", None, "partition_columns",
     "engine.sharded.partition", _imbalance),
    ("repro.parallel", "StreamDriver", "send", "parallel.send", None),
    ("repro.parallel", "StreamDriver", "live_blobs", "parallel.live_blobs", None),
    ("repro.engine.vectorized", "NumpyCocoSketch", "process_columns",
     "engine.pipeline", None),
    ("repro.query.slim", "ShardDeltaSink", "push_buckets", "slim.push",
     lambda args, result: len(args[2])),
    ("repro.query.slim", "SlimReplica", "bootstrap", "slim.bootstrap", None),
    ("repro.query.slim", "SlimReplica", "read", "slim.read", None),
    ("repro.service.daemon", None, "dump_sketch", "core.serialize.dump",
     lambda args, result: len(result)),
    ("repro.parallel", None, "dump_sketch", "core.serialize.dump",
     lambda args, result: len(result)),
    ("repro.service.daemon", None, "load_sketch", "core.serialize.load", None),
    ("repro.service.epochs", None, "load_sketch", "core.serialize.load", None),
    ("repro.service.daemon", None, "merge_many", "extensions.merging.merge",
     lambda args, result: len(args[0])),
    ("repro.service.epochs", None, "merge_many", "extensions.merging.merge",
     lambda args, result: len(args[0])),
    ("repro.service.epochs", None, "resize_cocosketch",
     "extensions.merging.resize", None),
    ("repro.service.epochs", "EpochStore", "merged_range",
     "service.epochs.range", None),
    ("repro.control.governor", "ResourceGovernor", "decide", "control.decide", None),
    ("repro.query.planner", "QueryPlanner", "table", "query.table", None),
    ("repro.service.http", None, "run_query", "core.sql", None),
    ("repro.service.http", "_Handler", "do_GET", "service.http.handler", None),
]


class Tracer:
    """In-memory span recorder around patched public calls.

    Spans are lists ``[id, parent, name, thread, start, end, value]``;
    ``thread`` is the recording thread's ident.  Recording happens only
    while :attr:`enabled` is true (the measured windows).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable, name: str, value, remote: bool):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None and remote:
                header = args[0].headers.get(SPAN_HEADER)
                parent = int(header) if header else None
            sid = next(tracer._ids)
            stack.append(sid)
            span = [sid, parent, name, threading.get_ident(), 0.0, 0.0, None]
            span[4] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if value is not None:
                    span[6] = value(args, result)
                return result
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Patch every call in :data:`LAYERS`."""
        for module_name, class_name, attr, name, value in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            remote = name == "service.http.handler"
            setattr(owner, attr, self._wrap(original, name, value, remote))
            self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()


def quantile_ms(seconds: List[float], q: float) -> float:
    """The *q*-th percentile of durations in seconds, in ms (0 when empty)."""
    return float(np.percentile(seconds, q) * 1e3) if seconds else 0.0


def layer_metrics(
    spans: List[list],
    windows: List[dict],
    registry: Dict,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Reduce spans, windows and a registry snapshot to per-layer metrics.

    *windows* are the measured intervals, each ``{"kind", "start",
    "end"}``: ``"ingest"`` windows are covered by root spans on the
    daemon's threads other than ``service.offer`` (the feeder's work,
    and the final close), ``"client"`` windows by the load generator's
    request spans.  *registry* is the ``repro.obs.metrics/v1`` snapshot
    collected over the same windows.  *extras* carries values read
    through public APIs (governor resizes, final ``l``, load-generator
    lateness and request count, the keep-alive probe's median).
    ``trace.overhead`` needs an untraced
    run too, so ``run.py`` adds it.
    """
    children: Dict[int, float] = {}
    for sid, parent, _name, _thread, start, end, _value in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def durs(name: str) -> List[float]:
        return [s[5] - s[4] for s in by_name.get(name, [])]

    def self_s(name: str) -> float:
        return float(
            sum(s[5] - s[4] - children.get(s[0], 0.0) for s in by_name.get(name, []))
        )

    def values(name: str) -> List[float]:
        return [s[6] for s in by_name.get(name, []) if s[6] is not None]

    reg_spans = registry.get("spans", {})

    def reg_total(name: str) -> float:
        return float(reg_spans.get(name, {}).get("total_s", 0.0))

    ingest_wall = sum(w["end"] - w["start"] for w in windows if w["kind"] == "ingest")
    # Coverage: the share of each window's driving lane spent inside
    # root spans.  An ingest window's lane is the feeder, then the
    # closing thread; a client window's is the load generator's one
    # connection.
    wall = covered = 0.0
    for w in windows:
        for span in spans:
            if span[1] is not None or not (w["start"] <= span[4] < w["end"]):
                continue
            on_client = span[3] == LOADGEN_THREAD
            if w["kind"] == "client" and not on_client:
                continue
            if w["kind"] == "ingest" and (on_client or span[2] == "service.offer"):
                continue
            covered += min(span[5], w["end"]) - span[4]
        wall += w["end"] - w["start"]

    hash_s = reg_total("pipeline.stage.hash")
    replace_total = reg_total("pipeline.stage.replace")
    stats_s = reg_total("pipeline.stage.stats")
    chunks = reg_spans.get("pipeline.stage.replace", {}).get("count", 0)
    push_s = float(sum(durs("slim.push")))
    replace_s = max(replace_total - push_s, 0.0)
    rounds = registry.get("histograms", {}).get("engine.numpy.basic.epochs_per_batch", {})
    pushes = values("slim.push")
    ranges = by_name.get("service.epochs.range", [])
    cold = sum(1 for s in ranges if children.get(s[0], 0.0) > 0.0)
    handler = durs("service.http.handler")
    transport = [
        s[5] - s[4] - children.get(s[0], 0.0) for s in by_name.get(CLIENT_SPAN, [])
    ]
    imbalance = values("engine.sharded.partition")

    return {
        "service.offer.blocked_s": float(sum(durs("service.offer"))),
        "service.reblock.self_s": self_s("service.reblock"),
        "service.rotate.self_s": self_s("service.rotate"),
        "service.rotate.p99_ms": quantile_ms(durs("service.rotate"), 99),
        "service.rotate.calls": float(len(durs("service.rotate"))),
        "engine.sharded.partition.self_s": self_s("engine.sharded.partition"),
        "engine.sharded.partition.imbalance": (
            float(np.mean(imbalance)) if imbalance else 0.0
        ),
        "parallel.send.self_s": self_s("parallel.send"),
        "parallel.live_blobs.self_s": self_s("parallel.live_blobs"),
        "engine.pipeline.overhead_s": max(
            float(sum(durs("engine.pipeline"))) - hash_s - replace_total - stats_s, 0.0
        ),
        "engine.hash.self_s": hash_s,
        "engine.replace.self_s": replace_s,
        "engine.stats.self_s": stats_s,
        "engine.replace.us_per_chunk": replace_s / chunks * 1e6 if chunks else 0.0,
        "engine.replace.rounds_per_chunk": (
            rounds["sum"] / rounds["count"] if rounds.get("count") else 0.0
        ),
        "engine.replace.share": replace_s / ingest_wall if ingest_wall else 0.0,
        "slim.push.self_s": self_s("slim.push"),
        "slim.push.rows_per_chunk": float(np.mean(pushes)) if pushes else 0.0,
        "slim.bootstrap.self_s": self_s("slim.bootstrap"),
        "slim.bootstrap.calls": float(len(durs("slim.bootstrap"))),
        "slim.read.p50_ms": quantile_ms(durs("slim.read"), 50),
        "slim.read.p99_ms": quantile_ms(durs("slim.read"), 99),
        "core.serialize.dump.self_s": self_s("core.serialize.dump"),
        "core.serialize.dump.bytes": float(sum(values("core.serialize.dump"))),
        "core.serialize.load.self_s": self_s("core.serialize.load"),
        "extensions.merging.merge.self_s": self_s("extensions.merging.merge"),
        "extensions.merging.merge.inputs": float(sum(values("extensions.merging.merge"))),
        "extensions.merging.resize.self_s": self_s("extensions.merging.resize"),
        "extensions.merging.resize.calls": float(len(durs("extensions.merging.resize"))),
        "service.epochs.range.p50_ms": quantile_ms(durs("service.epochs.range"), 50),
        "service.epochs.range.p99_ms": quantile_ms(durs("service.epochs.range"), 99),
        "service.epochs.range.cold_share": cold / len(ranges) if ranges else 0.0,
        "control.decide.self_s": self_s("control.decide"),
        "control.resizes": float(extras.get("control.resizes", 0.0)),
        "control.final_l": float(extras.get("control.final_l", 0.0)),
        "query.table.p50_ms": quantile_ms(durs("query.table"), 50),
        "query.extract.self_s": reg_total("query.extract"),
        "query.aggregate.self_s": reg_total("query.aggregate"),
        "core.sql.self_s": self_s("core.sql"),
        "service.http.handler.p50_ms": quantile_ms(handler, 50),
        "service.http.transport.p50_ms": quantile_ms(transport, 50),
        "service.http.keepalive_p50_ms": float(
            extras.get("service.http.keepalive_p50_ms", 0.0)
        ),
        "loadgen.late.p99_ms": float(extras.get("loadgen.late.p99_ms", 0.0)),
        "loadgen.requests": float(extras.get("loadgen.requests", 0.0)),
        "trace.coverage": covered / wall if wall else 0.0,
        "other.self_s": max(wall - covered, 0.0),
    }
