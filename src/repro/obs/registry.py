"""Process-local metrics registry: counters, gauges, histograms, spans.

The observability layer has exactly one job: make the measurement
pipeline's internal behaviour — replacement decisions, batch
scheduling, shard skew — visible without perturbing it.  Three design
rules follow:

* **Zero cost when off.**  The process default is :data:`NULL_REGISTRY`,
  a registry whose instruments are shared no-op singletons and whose
  ``span()`` never reads the clock.  Hot paths ask
  :func:`get_registry` once per *batch* (never per packet), so a
  disabled run pays a dict-free attribute call per few thousand
  packets.
* **Mergeable snapshots.**  Histograms use *fixed* bucket edges chosen
  at first observation, counters are plain sums, and span stats are
  (count, total, min, max) — so worker snapshots fold into the
  collector's registry with :meth:`MetricsRegistry.merge_snapshot`
  without loss (same-name histograms must share edges).
* **Plain data out.**  :meth:`MetricsRegistry.snapshot` returns a
  JSON-safe dict in the schema documented (and validated) by
  :mod:`repro.obs.schema`; worker processes return it to the collector
  as-is (the multiprocessing queue pickles it).

Registries are process-local and not thread-safe: each worker process
builds its own and ships a snapshot home (see :mod:`repro.parallel`).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Schema identifier stamped on every snapshot (see repro/obs/schema.py).
SCHEMA = "repro.obs.metrics/v1"

#: Default histogram edges: powers of two covering batch-granularity
#: counts (epochs per batch, conflict-set sizes, bucket scans).  A value
#: lands in bucket i when edges[i-1] < value <= edges[i]; the last
#: bucket is the +inf overflow.
DEFAULT_EDGES: Tuple[float, ...] = tuple(float(2 ** e) for e in range(0, 17))

def log_linear_edges(lo: float, hi: float, sub: int) -> Tuple[float, ...]:
    """HDR-style edges: *sub* equal steps inside every power of two.

    Covers ``[lo, hi]`` (both ends are edges), so a value's bucket is
    at most ``1/sub`` of its power of two wide: a quantile read from
    the buckets is within one sub-bucket of the exact one.
    """
    inner = {
        2.0 ** e * (1 + k / sub)
        for e in range(math.floor(math.log2(lo)), math.ceil(math.log2(hi)) + 1)
        for k in range(sub)
    }
    return tuple(sorted({lo, hi} | {v for v in inner if lo < v < hi}))


#: Default edges for span-adjacent duration histograms (seconds):
#: 1e-5 s .. 100 s, 4 sub-buckets per power of two.
TIME_EDGES: Tuple[float, ...] = log_linear_edges(1e-5, 100.0, 4)


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written scalar (skew ratios, occupancy, configuration)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-edge histogram; mergeable when edges agree.

    ``counts`` has ``len(edges) + 1`` slots: observation ``v`` lands in
    the first bucket whose edge satisfies ``v <= edge``, overflow in the
    final slot.  Running count/sum/min/max ride along so snapshots keep
    the exact mean even with coarse edges.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram edges must be ascending, got {edges}")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left = number of edges strictly below value, which is
        # exactly the (edges[i-1] < value <= edges[i]) bucket rule.
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of quantile ``q`` from the buckets.

        Returns the edge of the bucket holding the ``q``-th observation
        (the overflow bucket reports the observed max), so a fixed-edge
        histogram answers "p95 latency" without keeping raw samples.
        """
        return histogram_quantile(
            {
                "edges": list(self.edges),
                "counts": list(self.counts),
                "count": self.count,
                "max": self.max,
            },
            q,
        )


def histogram_quantile(payload: Dict, q: float) -> float:
    """Quantile from a snapshot-format histogram payload.

    ``payload`` is the per-histogram dict a registry snapshot carries
    (``edges``, ``counts``, ``count``, ``max``) — so soak tests and
    dashboards can compute p95 straight from a ``/metrics`` response or
    a merged worker snapshot.  Returns the smallest edge at or above
    the target rank; the overflow bucket maps to the recorded max (or
    the last edge when the max wasn't kept).  Empty histogram -> 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = payload.get("count", 0)
    if not count:
        return 0.0
    edges = payload["edges"]
    counts = payload["counts"]
    if len(counts) != len(edges) + 1:
        raise ValueError(
            f"counts has {len(counts)} slots for {len(edges)} edges"
        )
    rank = q * count
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= rank and c:
            if i < len(edges):
                return float(edges[i])
            break
    top = payload.get("max")
    return float(top) if top is not None else float(edges[-1])


class SpanStats:
    """Aggregate timing of one named pipeline stage."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None

    def record(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if self.min_s is None or elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if self.max_s is None or elapsed_s > self.max_s:
            self.max_s = elapsed_s


class _Span:
    """Context manager timing one stage into its registry's SpanStats."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry._record_span(self._name, time.perf_counter() - self._t0)


class MetricsRegistry:
    """Namespace of counters / gauges / histograms / spans.

    Instruments are created on first use and live for the registry's
    lifetime.  Names are dotted strings (``shard.0.packets``,
    ``coco.evictions.array1``); there is no label system — encode the
    dimension in the name so snapshots stay flat and mergeable.
    """

    #: False only on :class:`NullRegistry`; hot paths branch on this
    #: before doing any per-epoch bookkeeping.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, SpanStats] = {}

    # -- instrument accessors (get-or-create) --------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_EDGES
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, edges)
        return h

    # -- one-line recording helpers ------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float, edges: Sequence[float] = DEFAULT_EDGES
    ) -> None:
        self.histogram(name, edges).observe(value)

    def span(self, name: str) -> _Span:
        """Time a pipeline stage: ``with registry.span("pipeline.stage.replace"):``."""
        return _Span(self, name)

    def _record_span(self, name: str, elapsed_s: float) -> None:
        s = self._spans.get(name)
        if s is None:
            s = self._spans[name] = SpanStats(name)
        s.record(elapsed_s)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self, meta: Optional[Dict] = None) -> Dict:
        """JSON-safe dict of everything recorded (schema ``SCHEMA``)."""
        snap: Dict = {
            "schema": SCHEMA,
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for n, h in sorted(self._histograms.items())
            },
            "spans": {
                n: {
                    "count": s.count,
                    "total_s": s.total_s,
                    "min_s": s.min_s,
                    "max_s": s.max_s,
                }
                for n, s in sorted(self._spans.items())
            },
        }
        if meta:
            snap["meta"] = dict(meta)
        return snap

    def to_json(self, meta: Optional[Dict] = None, indent: int = 2) -> str:
        import json

        return json.dumps(self.snapshot(meta), indent=indent, sort_keys=True)

    def merge_snapshot(self, snap: Dict) -> None:
        """Fold one snapshot (e.g. a worker's) into this registry.

        Counters and histogram buckets add; span stats combine; gauges
        overwrite (shard-scoped gauges should carry the shard index in
        their name).  Histograms with the same name must share edges.
        """
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, payload in snap.get("histograms", {}).items():
            h = self.histogram(name, payload["edges"])
            if list(h.edges) != [float(e) for e in payload["edges"]]:
                raise ValueError(
                    f"histogram {name!r}: edge mismatch, cannot merge"
                )
            h.counts = [a + b for a, b in zip(h.counts, payload["counts"])]
            h.count += payload["count"]
            h.total += payload["sum"]
            for bound, pick in (("min", min), ("max", max)):
                incoming = payload.get(bound)
                if incoming is None:
                    continue
                current = getattr(h, bound)
                setattr(
                    h,
                    bound,
                    incoming if current is None else pick(current, incoming),
                )
        for name, payload in snap.get("spans", {}).items():
            s = self._spans.get(name)
            if s is None:
                s = self._spans[name] = SpanStats(name)
            s.count += payload["count"]
            s.total_s += payload["total_s"]
            for bound, pick in (("min_s", min), ("max_s", max)):
                incoming = payload.get(bound)
                if incoming is None:
                    continue
                current = getattr(s, bound)
                setattr(
                    s,
                    bound,
                    incoming if current is None else pick(current, incoming),
                )

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)}, "
            f"spans={len(self._spans)})"
        )


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    """Reusable no-op span: never touches the clock."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class NullRegistry(MetricsRegistry):
    """The disabled default: every operation is a no-op.

    Instrument accessors return shared singletons, ``span`` never calls
    ``perf_counter``, and ``snapshot`` is an empty (but schema-valid)
    document — so instrumented code needs no ``if`` guards for the
    common disabled case beyond the per-batch ``registry.enabled``
    check around genuinely optional bookkeeping.
    """

    enabled = False

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name, edges=DEFAULT_EDGES):  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name, value, edges=DEFAULT_EDGES) -> None:
        pass

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def _record_span(self, name: str, elapsed_s: float) -> None:
        pass

    def merge_snapshot(self, snap: Dict) -> None:
        pass


#: The process-wide disabled registry (also the default).
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process's active registry (the no-op default unless enabled)."""
    return _active


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the active one; returns the previous one."""
    global _active
    previous = _active
    _active = registry
    return previous


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Enable collection for a ``with`` block, restoring the old default.

    >>> with collecting() as reg:
    ...     sketch.process(trace)
    >>> reg.snapshot()["counters"]["coco.packets"]
    """
    reg = registry if registry is not None else MetricsRegistry()
    previous = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)


def format_snapshot(snap: Dict) -> str:
    """Human-readable profile summary (the CLI's ``--profile`` output)."""
    lines: List[str] = []
    meta = snap.get("meta", {})
    if meta:
        lines.append("-- meta --")
        for name in sorted(meta):
            lines.append(f"  {name:<36} {meta[name]}")
    spans = snap.get("spans", {})
    if spans:
        lines.append("-- spans (by total time) --")
        ranked = sorted(
            spans.items(), key=lambda kv: -kv[1]["total_s"]
        )
        for name, s in ranked:
            mean = s["total_s"] / s["count"] if s["count"] else 0.0
            lines.append(
                f"  {name:<36} {s['total_s']*1e3:>10.2f} ms total"
                f"  x{s['count']:<6} mean {mean*1e3:.3f} ms"
            )
    counters = snap.get("counters", {})
    if counters:
        lines.append("-- counters --")
        for name, value in counters.items():
            lines.append(f"  {name:<36} {value}")
    gauges = snap.get("gauges", {})
    if gauges:
        lines.append("-- gauges --")
        for name, value in gauges.items():
            lines.append(f"  {name:<36} {value:.4g}")
    histograms = snap.get("histograms", {})
    if histograms:
        lines.append("-- histograms --")
        for name, h in histograms.items():
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"  {name:<36} n={h['count']} mean={mean:.3g}"
                f" min={h['min']} max={h['max']}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"
