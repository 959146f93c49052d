"""Command-line interface: generate traces, measure, query.

Usage::

    python -m repro.cli generate --packets 100000 --flows 20000 out.csv
    python -m repro.cli measure out.csv --memory-kb 200 --top 10 \
        --key SrcIP --key SrcIP/24 --key SrcIP+DstIP
    python -m repro.cli evaluate out.csv --memory-kb 200 --threshold 1e-4 \
        --engine numpy

Key syntax: ``Field[/prefix]`` joined by ``+``, over the 5-tuple full
key — e.g. ``SrcIP``, ``SrcIP/24``, ``SrcIP+DstIP``, ``DstIP+DstPort``.

``--engine`` picks the execution engine for the measuring sketch:
``scalar`` (reference pure Python, default) or ``numpy`` (columnar
batched updates; same estimator, much faster on large traces).

``--shards N`` (with optional ``--shard-strategy hash|round-robin``)
scatters the trace across N worker processes — one engine-backed
sketch each, answering with the sum of their tables (Lemma 3) — and prints the
aggregate and per-worker packet rates.  ``--memory-kb`` stays the
*per-worker* budget, so accuracy at a given ``--memory-kb`` is
comparable across shard counts.

``--kernels auto|numba|c|numpy|python`` picks the replace-stage kernel
backend for numpy-based engines (exported as ``REPRO_KERNELS`` so
sharded workers inherit it); the resolved backend lands in the
``--profile`` meta block and the ``pipeline.kernel`` gauge.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List

from repro.core.query import FlowTable
from repro.engine import available_engines, get_engine
from repro.engine.kernels import BACKEND_CHOICES, BACKEND_ENV, resolve_kernels
from repro.flowkeys.key import FIVE_TUPLE, PartialKeySpec, paper_partial_keys
from repro.metrics.accuracy import evaluate_heavy_hitters_columns
from repro.query.planner import QueryPlanner
from repro.obs.registry import (
    MetricsRegistry,
    format_snapshot,
    get_registry,
    set_registry,
)
from repro.traffic.storage import load_csv, save_csv
from repro.traffic.synthetic import caida_like, mawi_like, zipf_trace


def parse_key(text: str) -> PartialKeySpec:
    """Parse ``Field[/prefix]+Field[/prefix]...`` into a partial key."""
    parts = []
    for item in text.split("+"):
        if "/" in item:
            name, prefix = item.split("/", 1)
            parts.append((name, int(prefix)))
        else:
            parts.append(item)
    return FIVE_TUPLE.partial(*parts)


def _cmd_generate(args: argparse.Namespace) -> int:
    makers = {
        "caida": caida_like,
        "mawi": mawi_like,
    }
    if args.profile in makers:
        trace = makers[args.profile](
            num_packets=args.packets, num_flows=args.flows, seed=args.seed
        )
    else:
        trace = zipf_trace(
            args.packets, args.flows, alpha=args.alpha, seed=args.seed
        )
    save_csv(trace, args.path)
    print(f"wrote {trace} to {args.path}")
    return 0


def _load_sketch(args: argparse.Namespace):
    reg = get_registry()
    with reg.span("cli.load_trace"):
        trace = load_csv(args.path, FIVE_TUPLE)
    with reg.span("cli.measure"):
        if args.shards > 1:
            from repro.engine.sharded import ShardedSketch, SketchSpec

            spec = SketchSpec.from_memory(
                int(args.memory_kb * 1024),
                engine=args.engine,
                d=args.d,
                seed=args.seed,
            )
            sketch = ShardedSketch(
                spec, args.shards, strategy=args.shard_strategy
            )
            sketch.process(trace)
            print(f"sharded {sketch.throughput().summary()}")
            return trace, sketch
        engine = get_engine(args.engine)
        sketch = engine.cocosketch_from_memory(
            int(args.memory_kb * 1024), d=args.d, seed=args.seed
        )
        sketch.process(trace)
        if reg.enabled:
            stats = getattr(sketch, "stats", None)
            if stats is not None:
                # Sharded runs publish per-worker stats through the
                # worker snapshots instead (see repro.parallel).
                stats.publish(reg, prefix="sketch.")
        return trace, sketch


def _with_metrics(args: argparse.Namespace, body: Callable[[], int]) -> int:
    """Run a subcommand body under a registry when metrics are wanted.

    ``--metrics-out`` writes the snapshot JSON (schema
    ``repro.obs.metrics/v1``); ``--profile`` prints a human-readable
    summary.  Without either flag the no-op registry stays installed
    and instrumentation costs nothing.
    """
    if not (args.metrics_out or args.profile):
        return body()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        status = body()
    finally:
        set_registry(previous)
    snapshot = registry.snapshot(
        meta={
            "command": args.command,
            "path": args.path,
            "engine": args.engine,
            "shards": args.shards,
            "seed": args.seed,
            "kernels": resolve_kernels(getattr(args, "kernels", None)).name,
        }
    )
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
        print(f"metrics written to {args.metrics_out}")
    if args.profile:
        print(format_snapshot(snapshot))
    return status


def _cmd_measure(args: argparse.Namespace) -> int:
    def body() -> int:
        trace, sketch = _load_sketch(args)
        planner = QueryPlanner(sketch, FIVE_TUPLE)
        keys = [parse_key(k) for k in args.key] or paper_partial_keys(6)
        with get_registry().span("cli.aggregate"):
            for partial in keys:
                agg = planner.table(partial)
                print(f"\n== top {args.top} flows on {partial.name} ==")
                for value, est in agg.top_k(args.top):
                    print(f"  {value:>32x}  ~{est:.0f}")
        return 0

    return _with_metrics(args, body)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    def body() -> int:
        trace, sketch = _load_sketch(args)
        planner = QueryPlanner(sketch, FIVE_TUPLE)
        truth = trace.exact_table()
        keys = [parse_key(k) for k in args.key] or paper_partial_keys(6)
        threshold = args.threshold * trace.total_size
        print(
            f"{'key':44s} {'recall':>7s} {'precision':>9s} "
            f"{'f1':>6s} {'are':>8s}"
        )
        with get_registry().span("cli.aggregate"):
            for partial in keys:
                report = evaluate_heavy_hitters_columns(
                    planner.table(partial), truth.aggregate(partial), threshold
                )
                print(
                    f"{partial.name:44s} {report.recall:7.2%} "
                    f"{report.precision:9.2%} {report.f1:6.3f} "
                    f"{report.are:8.4f}"
                )
        return 0

    return _with_metrics(args, body)


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.engine.sharded import SketchSpec
    from repro.service import MeasurementDaemon, ServiceConfig, ServiceServer
    from repro.service.daemon import DEFAULT_CHUNK

    trace = load_csv(args.path, FIVE_TUPLE)
    spec = SketchSpec.from_memory(
        int(args.memory_kb * 1024),
        engine=args.engine,
        d=args.d,
        seed=args.seed,
    )
    governor = None
    if args.governor is not None:
        from repro.control.governor import (
            MIN_L,
            GovernorConfig,
            ResourceGovernor,
        )

        # The budget caps growth; start small (an eighth of what the
        # budget buys, floored) so the control loop has room to act.
        governor = GovernorConfig(memory_bytes=int(args.governor * 1024))
        max_l = ResourceGovernor(governor, spec.d, spec.key_bytes).max_l
        small_l = max(MIN_L, max_l // 8)
        spec = SketchSpec(
            spec.engine, spec.variant, spec.d, small_l, spec.seed,
            spec.key_bytes,
        )
    tenants = None
    if args.tenants:
        tenants = tuple(
            name.strip() for name in args.tenants.split(",") if name.strip()
        )
    config = ServiceConfig(
        spec=spec,
        key_spec=FIVE_TUPLE,
        shards=args.shards,
        strategy=args.shard_strategy,
        epoch_packets=args.epoch_packets,
        epoch_seconds=args.epoch_seconds,
        history=args.history,
        live_refresh_packets=args.live_refresh,
        governor=governor,
        tenants=tenants,
    )
    daemon = MeasurementDaemon(config)
    daemon.start()
    server = ServiceServer(daemon, host=args.host, port=args.port).start()
    # Parsed by wrappers (CI smoke) that need the ephemeral port.
    print(f"serving on {server.url}", flush=True)
    try:
        for _ in range(args.loop):
            for hi, lo, sizes in trace.batches(DEFAULT_CHUNK):
                daemon.offer(hi, lo, sizes)
        daemon.stop_feeder()
        print(
            f"trace fed ({args.loop}x {len(trace)} packets); "
            f"epochs closed: {len(daemon.store)}",
            flush=True,
        )
        if args.linger:
            _time.sleep(args.linger)
    finally:
        server.close()
        daemon.close()
    print(f"shut down with epochs {daemon.store.ids()}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    def body() -> int:
        from repro.core.sql import run_query

        trace, sketch = _load_sketch(args)
        table = FlowTable.from_sketch(sketch, FIVE_TUPLE)
        with get_registry().span("cli.query"):
            for statement in args.sql:
                rows = run_query(statement, table)
                print(f"\n== {statement} ==")
                for value, agg in rows:
                    print(f"  {value:>32x}  {agg:.1f}")
                if not rows:
                    print("  (no rows)")
        return 0

    return _with_metrics(args, body)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CocoSketch reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic trace CSV")
    gen.add_argument("path")
    gen.add_argument("--profile", choices=("caida", "mawi", "zipf"), default="caida")
    gen.add_argument("--packets", type=int, default=100_000)
    gen.add_argument("--flows", type=int, default=20_000)
    gen.add_argument("--alpha", type=float, default=1.05)
    gen.add_argument("--seed", type=int, default=1)
    gen.set_defaults(func=_cmd_generate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path")
    common.add_argument("--memory-kb", type=float, default=200)
    common.add_argument("--d", type=int, default=2)
    common.add_argument("--seed", type=int, default=1)
    common.add_argument(
        "--engine",
        choices=available_engines(),
        default="scalar",
        help="execution engine for the sketch update path",
    )
    common.add_argument(
        "--kernels",
        choices=BACKEND_CHOICES,
        default=None,
        help="replace-stage kernel backend for numpy-based engines: "
        "auto takes c if the system C compiler builds it, else numba if "
        "importable, else numpy; the others are strict (sets REPRO_KERNELS "
        "for this run, workers included)",
    )
    common.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes to shard the trace across "
        "(1 = single-sketch, no pool)",
    )
    common.add_argument(
        "--shard-strategy",
        choices=("hash", "round-robin"),
        default="hash",
        help="trace partitioner: hash of the full key (flow-pure) "
        "or round-robin",
    )
    common.add_argument(
        "--key",
        action="append",
        default=[],
        help="partial key, e.g. SrcIP or SrcIP/24+DstIP (repeatable)",
    )
    common.add_argument(
        "--metrics-out",
        metavar="JSON",
        default=None,
        help="collect pipeline metrics and write the snapshot "
        "(schema repro.obs.metrics/v1) to this file",
    )
    common.add_argument(
        "--profile",
        action="store_true",
        help="collect pipeline metrics and print a summary after the run",
    )

    measure = sub.add_parser(
        "measure", parents=[common], help="top-k flows per partial key"
    )
    measure.add_argument("--top", type=int, default=10)
    measure.set_defaults(func=_cmd_measure)

    evaluate = sub.add_parser(
        "evaluate",
        parents=[common],
        help="heavy-hitter accuracy vs exact ground truth",
    )
    evaluate.add_argument("--threshold", type=float, default=1e-4)
    evaluate.set_defaults(func=_cmd_evaluate)

    query = sub.add_parser(
        "query",
        parents=[common],
        help="run §4.3 SQL statements against the measured table",
    )
    query.add_argument(
        "--sql",
        action="append",
        required=True,
        help='statement, e.g. "SELECT SrcIP/8, SUM(size) FROM flows '
        'GROUP BY SrcIP/8 ORDER BY SUM(size) DESC LIMIT 5" (repeatable)',
    )
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve",
        parents=[common],
        help="run the always-on measurement daemon + HTTP query API",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--epoch-packets",
        type=int,
        default=50_000,
        help="rotate the measurement epoch every N packets",
    )
    serve.add_argument(
        "--epoch-seconds",
        type=float,
        default=None,
        help="also rotate when the live epoch is older than this",
    )
    serve.add_argument(
        "--history",
        type=int,
        default=64,
        help="closed epochs retained for time-travel queries",
    )
    serve.add_argument(
        "--live-refresh",
        type=int,
        default=0,
        help="serve cached live views until N further packets flush "
        "(0 = always rebuild on new data)",
    )
    serve.add_argument(
        "--loop",
        type=int,
        default=1,
        help="times to replay the trace through the daemon",
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="seconds to keep serving queries after the trace is fed",
    )
    serve.add_argument(
        "--governor",
        type=float,
        default=None,
        metavar="MEMORY_KB",
        help="enable the elastic-geometry governor with this per-shard "
        "memory budget (the sketch starts small and grows/shrinks at "
        "epoch rotations based on occupancy)",
    )
    serve.add_argument(
        "--tenants",
        default=None,
        metavar="A,B,...",
        help="comma-separated tenant names: route traffic to isolated "
        "per-tenant daemons under one shared memory budget "
        "(query with /query?tenant=NAME)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: List[str] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    kernels = getattr(args, "kernels", None)
    if kernels:
        # Export before any engine or worker pool exists so sharded
        # workers (spawned subprocesses) resolve the same backend, and
        # fail fast on a strict request the host cannot satisfy.
        import os

        os.environ[BACKEND_ENV] = kernels
        resolve_kernels(kernels)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
