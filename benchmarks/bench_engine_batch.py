"""Engine microbenchmark: scalar vs numpy packets/sec by batch size,
plus the sharded-pipeline and chunk-loop sweeps.

Times the full update path of both execution engines — basic and
hardware CocoSketch — on a Zipf trace, sweeping the numpy engine across
batch sizes.  This is the acceptance gauge for the batched columnar
engine: at the default 4096-packet batch the numpy basic CocoSketch
must clear 5x the scalar engine on a 500k-packet trace.  A large-batch
guard (``LARGE_BATCH_FLOOR``) fails the sweep if throughput at the
biggest batch drops below the mid-batch rate — the cache cliff the
engine chunk loop's chunking exists to prevent.  Each numpy batch size
is timed as the median of ``NUMPY_PASSES`` interleaved passes.

The shard sweep runs the same trace through the sharded multi-worker
pipeline (:mod:`repro.engine.sharded`) at 1/2/4/8 workers.  Its
headline is wall-clock packets/sec and its scaling over one worker;
beside it sit the CPU-derived fleet capacity (what one core per worker
would sustain), the driver-efficiency ratio between the two (gated at
``DRIVER_EFFICIENCY_FLOOR`` when run at full scale), load imbalance,
and the SrcIP heavy-hitter ARE of the summed shard tables; its accuracy gate
is that the 4-worker ARE stays within the statistical-harness margin
of the single-sketch reference while fleet capacity scales above 1x.

The pipeline sweep times each step of the numpy engines' chunk loop
(hash per block → replace → stats per chunk) via the
``pipeline.stage.*`` metric spans and records the per-step breakdown
with the chunk counter, for both rules at d=2 and for the basic rule at
the governor's d=8 widths.  Each variant reports the median of
``NUMPY_PASSES`` passes interleaved across the variants.  This sweep,
the batch sweep above and the observability-overhead gate pin the
numpy kernels (``kernels="numpy"``) whatever ``auto`` resolves to, so
they keep timing the numpy chunk loop their gates exist for; the
compiled sets are timed by the kernels sweep.

The kernels sweep races the replace-stage backends
(:mod:`repro.engine.kernels`): staged-numpy vs each compiled set this
host offers (``c`` where the system C compiler builds it, ``numba``
where it imports), gated on every compiled replace stage clearing
``KERNEL_REPLACE_FLOOR`` (2x) at full standalone scale.  Each backend
reports the median of ``NUMPY_PASSES`` passes interleaved across the
backends; the JSON's ``backends`` field says which legs a file holds.

The adaptive sweep pits the elastic-geometry governor against the best
hand-tuned static geometry (the top row of
``results/ablation_geometry.json``) at equal memory, on an adversarial
workload that shifts mid-run from ``caida_like`` to ``mawi_like``.
The governed daemon starts at 1/8 of the budgeted width and must
grow its way to competitive accuracy: the gate requires at least one
resize and a post-shift ARE within ``ADAPTIVE_ARE_LIMIT`` (5%) of the
static reference (docs/governance.md).

Runs two ways:

* ``pytest benchmarks/bench_engine_batch.py`` — records
  ``results/bench_engine_batch.json``,
  ``results/bench_shard_sweep.json``,
  ``results/bench_pipeline_stages.json``, and
  ``results/bench_kernels.json`` like every other bench (the smoke
  sizes trim the traces for CI).
* ``python benchmarks/bench_engine_batch.py --packets 500000`` —
  standalone sweeps printing the tables and writing the same JSON
  (``--sweep engine|shards|obs|pipeline|kernels|adaptive|all`` selects
  which; every sweep writes ``results/<name>.json`` under
  ``--out-dir``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from _config import mem_bytes  # noqa: E402

from repro import obs  # noqa: E402
from repro.engine import get_engine  # noqa: E402
from repro.engine.base import buckets_for_memory  # noqa: E402
from repro.engine.sharded import ShardedSketch, SketchSpec  # noqa: E402
from repro.engine.vectorized import (  # noqa: E402
    MAX_PIPELINE_CHUNK,
    NumpyCocoSketch,
    NumpyHardwareCocoSketch,
)
from repro.flowkeys.key import FIVE_TUPLE  # noqa: E402
from repro.sketches.base import DEFAULT_KEY_BYTES  # noqa: E402
from repro.tasks.harness import FullKeyEstimator  # noqa: E402
from repro.traffic.synthetic import zipf_trace  # noqa: E402
from tests.stat_harness import check_error_profile  # noqa: E402

BATCH_SIZES = (256, 4096, 65536)
MEMORY_KB = 500  # paper default; scaled to 200 KB of sketch state.

SHARD_COUNTS = (1, 2, 4, 8)
#: Shard-sweep accuracy point: generous per-worker geometry so the
#: Theorem 1 fold cost (not bucket pressure) is what the gate measures.
SHARD_SWEEP_L = 65536
SHARD_HH_THRESHOLD = 1e-3


def _feed(sketch, trace, batch_size) -> None:
    """``update_batch`` over ``trace.batches(batch_size)``; ``None`` runs
    ``process(trace)``, where the engine picks its own blocks."""
    if batch_size is None:
        sketch.process(trace)
        return
    for hi, lo, sizes in trace.batches(batch_size):
        sketch.update_batch((hi, lo), sizes)


def _numpy_sketch(
    variant: str, seed: int, kernels: str = "numpy", d: int = 2, l=None
):
    """A numpy-engine sketch pinned to one kernel backend.

    *l* defaults to what ``MEMORY_KB`` buys at *d* arrays.  The numpy
    sweeps pin ``kernels="numpy"``: ``auto`` resolves to a compiled set
    wherever a C compiler works, and would time a different chunk loop
    than the one their gates watch.
    """
    if l is None:
        l = buckets_for_memory(mem_bytes(MEMORY_KB), d, DEFAULT_KEY_BYTES)
    cls = NumpyCocoSketch if variant == "basic" else NumpyHardwareCocoSketch
    return cls(d, l, seed=seed, kernels=kernels)


def _time_engine(engine_name: str, trace, batch_size, variant: str) -> float:
    """Packets/sec of one engine's feed of *trace* (see :func:`_feed`)."""
    if engine_name == "numpy":
        sketch = _numpy_sketch(variant, seed=7)
    else:
        engine = get_engine(engine_name)
        build = (
            engine.cocosketch_from_memory
            if variant == "basic"
            else engine.hardware_cocosketch_from_memory
        )
        sketch = build(mem_bytes(MEMORY_KB), d=2, seed=7)
    # Warm the trace's column cache outside the timed region so every
    # engine/batch combination pays the same (zero) packing cost.
    if batch_size is not None:
        for _ in trace.batches(batch_size):
            break
    start = time.perf_counter()
    _feed(sketch, trace, batch_size)
    elapsed = time.perf_counter() - start
    return len(trace) / elapsed


#: Large-batch guard: numpy pps at the biggest batch must stay within
#: noise of the mid-batch rate.  The engine chunk loop slices every batch
#: to a cache-resident size, so the old 65536 cliff (0.69x of the 4096
#: rate) would trip this immediately; 0.95 leaves room for timer noise.
LARGE_BATCH_FLOOR = 0.95

#: Timed numpy passes per batch size.  A CI-sized pass is 15-40 ms of
#: work, so one pass per size let host noise decide the guard; the
#: passes interleave the sizes and each size reports its median.
NUMPY_PASSES = 5


def _cliff_guard(speedups: Dict[str, float]) -> List[str]:
    """Large-batch-vs-mid-batch violations (empty = guard passes)."""
    failures = []
    mid, large = 4096, max(BATCH_SIZES)
    for variant in ("basic", "hardware"):
        ratio = speedups[f"{variant}@{large}"] / speedups[f"{variant}@{mid}"]
        if ratio < LARGE_BATCH_FLOOR:
            failures.append(
                f"{variant}: batch-{large} throughput is {ratio:.3f}x of "
                f"batch-{mid} (floor {LARGE_BATCH_FLOOR}) — large-batch "
                "cliff is back"
            )
    return failures


def run_sweep(packets: int, flows: int, seed: int = 7) -> Dict:
    """Sweep both engines/variants; returns the recorded payload rows."""
    trace = zipf_trace(packets, flows, alpha=1.05, seed=seed)
    rows: List[List] = []
    speedups: Dict[str, float] = {}
    for variant in ("basic", "hardware"):
        scalar_pps = _time_engine("scalar", trace, None, variant)
        rows.append([variant, "scalar", "-", scalar_pps, 1.0])
        passes: Dict[int, List[float]] = {bs: [] for bs in BATCH_SIZES}
        for _ in range(NUMPY_PASSES):
            for bs in BATCH_SIZES:
                passes[bs].append(_time_engine("numpy", trace, bs, variant))
        for bs in BATCH_SIZES:
            numpy_pps = statistics.median(passes[bs])
            speedup = numpy_pps / scalar_pps
            rows.append([variant, "numpy", bs, numpy_pps, speedup])
            speedups[f"{variant}@{bs}"] = speedup
    return {
        "packets": packets,
        "flows": flows,
        "rows": rows,
        "speedups": speedups,
        "cliff_failures": _cliff_guard(speedups),
    }


HEADERS = ["variant", "engine", "batch", "packets_per_sec", "speedup"]

SHARD_HEADERS = [
    "shards",
    "wall_pps",
    "wall_scaling",
    "cpu_capacity_pps",
    "capacity_scaling",
    "driver_efficiency",
    "imbalance",
    "srcip_are",
]

#: Streaming-driver acceptance: wall pps at 2 shards must reach 75% of
#: fleet capacity (the old barrier driver sat at ~45%).  Applied by the
#: standalone sweep at full scale; the CI-sized pytest entry uses a
#: looser directional floor because worker spawn cost doesn't amortise
#: over a 120k-packet trace.
DRIVER_EFFICIENCY_FLOOR = 0.75


def _sharded_are(table: Dict[int, float], truth: Dict[int, float], threshold: float) -> float:
    heavy = {k: v for k, v in truth.items() if v >= threshold}
    return sum(abs(table.get(k, 0.0) - v) / v for k, v in heavy.items()) / len(heavy)


def run_shard_sweep(
    packets: int,
    flows: int,
    seed: int = 7,
    engine: str = "scalar",
    shard_counts=SHARD_COUNTS,
    gate_trials: int = 4,
) -> Dict:
    """Throughput scaling + summed-shard accuracy across shard counts.

    The headline is *wall* packets/sec and its scaling over one worker:
    what this host actually achieved.  *CPU capacity* — the sum of
    per-worker CPU-time rates, i.e. what the shard fleet would sustain
    with one core/device per worker — is reported beside it and is not
    a throughput: wall time on the host is bounded by however many
    cores it has, so the workers split the host between them and
    capacity can rise while wall pps falls.  The default engine is
    ``scalar``: the sharded
    pipeline exists to scale the compute-bound path horizontally (the
    numpy engine is the SIMD-style answer).

    Also runs the statistical acceptance gate: over *gate_trials*
    seeded (4-shard, single-sketch) pairs, the sharded SrcIP ARE must
    sit within the harness's two-sample margin of the reference.
    """
    trace = zipf_trace(packets, flows, alpha=1.05, seed=seed)
    partial = FIVE_TUPLE.partial("SrcIP")
    truth = trace.ground_truth(partial)
    threshold = SHARD_HH_THRESHOLD * trace.total_size

    def spec_for(run_seed: int) -> SketchSpec:
        return SketchSpec(engine=engine, d=2, l=SHARD_SWEEP_L, seed=run_seed)

    rows: List[List] = []
    base_capacity = base_wall = None
    efficiency_at = {}
    for shards in shard_counts:
        sketch = ShardedSketch(spec_for(seed), shards)
        sketch.process(trace)
        result = sketch.throughput()
        cpu_capacity = result.cpu_capacity_pps
        wall = result.packets / result.wall_elapsed_s
        if base_capacity is None:
            base_capacity, base_wall = cpu_capacity, wall
        efficiency_at[shards] = result.driver_efficiency
        table = FullKeyEstimator(sketch, FIVE_TUPLE).table(partial)
        rows.append(
            [
                shards,
                wall,
                wall / base_wall,
                cpu_capacity,
                cpu_capacity / base_capacity,
                result.driver_efficiency,
                result.load_imbalance,
                _sharded_are(table, truth, threshold),
            ]
        )

    # Accuracy gate: 4-shard ARE vs single sketch, a few seeded pairs.
    sharded_ares, single_ares = [], []
    for trial in range(gate_trials):
        run_seed = seed + 100 + trial
        single = spec_for(run_seed).build()
        single.process(trace)
        single_table = FullKeyEstimator(single, FIVE_TUPLE).table(partial)
        sharded = ShardedSketch(spec_for(run_seed), 4)
        sharded.process(trace)
        sharded_table = FullKeyEstimator(sharded, FIVE_TUPLE).table(partial)
        sharded_ares.append(_sharded_are(sharded_table, truth, threshold))
        single_ares.append(_sharded_are(single_table, truth, threshold))
    gate = check_error_profile(sharded_ares, single_ares, abs_floor=0.02)
    return {
        "packets": packets,
        "flows": flows,
        "engine": engine,
        "rows": rows,
        "driver_efficiency": efficiency_at,
        "are_gate": {
            "passed": gate.passed,
            "sharded_mean_are": gate.candidate_mean,
            "single_mean_are": gate.reference_mean,
            "margin": gate.margin,
            "trials": gate.trials,
            "detail": gate.describe(),
        },
    }


OBS_HEADERS = ["variant", "plain_pps", "instrumented_pps", "ratio"]

#: Overhead acceptance: metrics-enabled numpy throughput must stay
#: within 5% of the metrics-disabled run (ratio >= 0.95).
OBS_OVERHEAD_FLOOR = 0.95


def _time_obs(trace, variant: str, batch_size, instrumented: bool) -> float:
    """Packets/sec of the numpy engine, registry on or off.

    ``batch_size=None`` runs the engine's default streaming path —
    ``process(trace)``, the chunk loop at its own ``pipeline_chunk`` —
    which is the
    configuration whose overhead the gate certifies; smaller explicit
    batches multiply the per-chunk span frequency beyond anything the
    engine would choose itself.
    """
    sketch = _numpy_sketch(variant, seed=7)
    for _ in trace.batches(batch_size or sketch.pipeline_chunk):
        break
    if instrumented:
        with obs.collecting():
            start = time.perf_counter()
            _feed(sketch, trace, batch_size)
            elapsed = time.perf_counter() - start
    else:
        start = time.perf_counter()
        _feed(sketch, trace, batch_size)
        elapsed = time.perf_counter() - start
    return len(trace) / elapsed


def run_obs_overhead(
    packets: int, flows: int, seed: int = 7, repeats: int = 3
) -> Dict:
    """Observability overhead gate: instrumented vs plain numpy engine.

    Best-of-*repeats* packet rate for each (variant, registry on/off)
    combination, interleaved so background noise hits both sides alike:
    the side that runs first alternates between repeats, so a warm-up
    or a drift in the host's speed favours neither.
    The gate is ``instrumented / plain >= OBS_OVERHEAD_FLOOR``.
    """
    trace = zipf_trace(packets, flows, alpha=1.05, seed=seed)
    rows: List[List] = []
    ratios: Dict[str, float] = {}
    for variant in ("basic", "hardware"):
        best = {False: 0.0, True: 0.0}
        for repeat in range(repeats):
            first = bool(repeat % 2)
            for on in (first, not first):
                best[on] = max(best[on], _time_obs(trace, variant, None, on))
        plain, instrumented = best[False], best[True]
        ratio = instrumented / plain
        rows.append([variant, plain, instrumented, ratio])
        ratios[variant] = ratio
    return {
        "packets": packets,
        "flows": flows,
        "rows": rows,
        "ratios": ratios,
        "floor": OBS_OVERHEAD_FLOOR,
    }


PIPELINE_TITLE = "Engine chunk loop: per-step timing breakdown (numpy engines)"

PIPELINE_HEADERS = [
    "variant",
    "stage",
    "spans",
    "total_s",
    "mean_us_per_span",
    "share",
]

#: Basic-rule widths the elastic governor runs at d=8: its 1/8-budget
#: start, the doublings, and the ablation-best budget width.
GOVERNOR_WIDTHS = (188, 376, 752, 1505)


def _pipeline_sketches(seed: int):
    """(variant label, metric tag, sketch factory) per pipeline-sweep row set."""
    yield "basic", "basic", lambda: _numpy_sketch("basic", seed)
    yield "hardware", "hw", lambda: _numpy_sketch("hardware", seed)
    for l in GOVERNOR_WIDTHS:
        yield f"basic d=8 l={l}", "basic", (
            lambda l=l: _numpy_sketch("basic", seed, d=8, l=l)
        )


def _timed_process(sketch, trace):
    """(seconds, metrics snapshot) of one ``process`` pass over *trace*."""
    with obs.collecting() as reg:
        start = time.perf_counter()
        sketch.process(trace)
        elapsed = time.perf_counter() - start
    return elapsed, reg.snapshot()


def run_pipeline_stages(packets: int, flows: int, seed: int = 7) -> Dict:
    """Per-step timing breakdown of the numpy engines' chunk loop.

    Runs each numpy variant's ``process`` path under a metrics registry,
    validates the snapshot against ``repro.obs.metrics/v1``, and turns
    the ``pipeline.stage.*`` spans into rows: span count (chunks for
    replace and stats, 16384-packet blocks for hash), total step
    seconds, mean microseconds per span, and each step's share of the
    loop's time.  Besides the d=2 default geometry, the basic rule also
    runs at the governor's d=8 widths on the same trace, where its
    conflict rounds dominate.  The chunk counter, the kernel chunk and
    the end-to-end rate ride along per variant.

    Each variant runs ``NUMPY_PASSES`` times on a fresh sketch, the
    passes interleaved across variants so host drift hits them alike;
    a variant reports its median pass (by wall time), rate and
    breakdown both.
    """
    from repro.obs.schema import validate_snapshot

    trace = zipf_trace(packets, flows, alpha=1.05, seed=seed)
    for _ in trace.batches(len(trace)):  # warm the trace column cache
        break
    setups = list(_pipeline_sketches(seed))
    passes: Dict[str, List] = {variant: [] for variant, _, _ in setups}
    chunks: Dict[str, int] = {}
    for _ in range(NUMPY_PASSES):
        for variant, _, build in setups:
            sketch = build()
            chunks[variant] = sketch.pipeline_chunk
            passes[variant].append(_timed_process(sketch, trace))
    rows: List[List] = []
    variants: Dict[str, Dict] = {}
    for variant, tag, _ in setups:
        ranked = sorted(passes[variant], key=lambda run: run[0])
        elapsed, snap = ranked[len(ranked) // 2]
        validate_snapshot(snap)
        stage_spans = {
            name.split(".")[-1]: span
            for name, span in snap["spans"].items()
            if name.startswith("pipeline.stage.")
        }
        loop_total = sum(s["total_s"] for s in stage_spans.values()) or 1.0
        for stage in ("hash", "replace", "stats"):
            span = stage_spans.get(stage)
            if span is None:
                continue
            rows.append(
                [
                    variant,
                    stage,
                    span["count"],
                    span["total_s"],
                    span["total_s"] / max(span["count"], 1) * 1e6,
                    span["total_s"] / loop_total,
                ]
            )
        variants[variant] = {
            "chunks": snap["counters"].get(f"pipeline.numpy.{tag}.chunks", 0),
            "chunk": chunks[variant],
            "pps": len(trace) / elapsed,
        }
    return {
        "packets": packets,
        "flows": flows,
        "passes": NUMPY_PASSES,
        "rows": rows,
        "variants": variants,
    }


KERNEL_HEADERS = [
    "variant",
    "kernel",
    "pps",
    "replace_total_s",
    "replace_us_per_chunk",
    "replace_speedup",
    "pipeline_speedup",
]

#: Kernel acceptance (standalone at >= 500k packets, numba installed):
#: the compiled replace stage must run >= 2x the staged-numpy replace
#: stage.  The CI-sized pytest entry uses the directional floor — a
#: 120k-packet trace leaves the jitted loop little to amortise over.
KERNEL_REPLACE_FLOOR = 2.0
KERNEL_REPLACE_CI_FLOOR = 1.3

def run_kernel_sweep(packets: int, flows: int, seed: int = 7) -> Dict:
    """Replace-stage kernel backends head to head on the engine chunk loop.

    Runs each numpy variant on every available backend (``numpy``
    always; ``numba`` and ``c`` when their compiler works) under a
    metrics registry, ``NUMPY_PASSES`` passes interleaved across the
    backends, and reports each backend's median replace-stage time
    (``pipeline.stage.replace`` span, the gate) and median whole-pipeline
    packet rate.  Compilation happens in an explicit warmup before any
    timed run, and the recorded ``pipeline.kernel`` gauge is checked
    against the requested backend so the sweep can never silently
    measure the fallback path.
    """
    from repro.engine import kernels as kernels_mod

    trace = zipf_trace(packets, flows, alpha=1.05, seed=seed)
    backends = ["numpy"]
    if kernels_mod.numba_available():
        backends.append("numba")
    if kernels_mod.c_available():
        backends.append("c")
    for backend in backends:
        kernels_mod.warmup(kernels_mod.resolve_kernels(backend))
    for _ in trace.batches(16384):  # warm the trace column cache
        break
    rows: List[List] = []
    speedups: Dict[str, float] = {}
    failures: List[str] = []
    for variant in ("basic", "hardware"):
        passes: Dict[str, List[Dict]] = {backend: [] for backend in backends}
        for _ in range(NUMPY_PASSES):
            for backend in backends:
                sketch = _numpy_sketch(variant, seed, kernels=backend)
                with obs.collecting() as reg:
                    start = time.perf_counter()
                    sketch.process(trace)
                    elapsed = time.perf_counter() - start
                snap = reg.snapshot()
                gauge = snap["gauges"].get("pipeline.kernel")
                expected = kernels_mod.KERNEL_BACKEND_CODES[backend]
                if gauge != expected:
                    raise RuntimeError(
                        f"{variant}/{backend}: pipeline.kernel gauge is "
                        f"{gauge!r}, expected {expected!r} — dispatch "
                        "did not activate the requested backend"
                    )
                span = snap["spans"]["pipeline.stage.replace"]
                passes[backend].append(
                    {
                        "pps": len(trace) / elapsed,
                        "replace_total_s": span["total_s"],
                        "chunks": span["count"],
                    }
                )
        stats = {
            backend: {
                key: statistics.median(run[key] for run in runs)
                for key in ("pps", "replace_total_s", "chunks")
            }
            for backend, runs in passes.items()
        }
        base = stats["numpy"]
        for backend in backends:
            st = stats[backend]
            replace_speedup = base["replace_total_s"] / st["replace_total_s"]
            rows.append(
                [
                    variant,
                    backend,
                    st["pps"],
                    st["replace_total_s"],
                    st["replace_total_s"] / max(st["chunks"], 1) * 1e6,
                    replace_speedup,
                    st["pps"] / base["pps"],
                ]
            )
            speedups[f"{variant}@{backend}"] = replace_speedup
            if backend != "numpy" and packets >= 500_000:
                if replace_speedup < KERNEL_REPLACE_FLOOR:
                    failures.append(
                        f"{variant}/{backend}: compiled replace stage is "
                        f"{replace_speedup:.2f}x staged-numpy "
                        f"(floor {KERNEL_REPLACE_FLOOR})"
                    )
    return {
        "packets": packets,
        "flows": flows,
        "passes": NUMPY_PASSES,
        "rows": rows,
        "speedups": speedups,
        "backends": backends,
        "floor": KERNEL_REPLACE_FLOOR,
        "ci_floor": KERNEL_REPLACE_CI_FLOOR,
        "failures": failures,
    }


def test_engine_batch_throughput(record):
    """Pytest entry: small sweep sized for CI, same JSON artifact."""
    sweep = run_sweep(packets=120_000, flows=40_000)
    record(
        "bench_engine_batch",
        "Engine throughput: scalar vs numpy by batch size",
        HEADERS,
        sweep["rows"],
        extra={"packets": sweep["packets"], "flows": sweep["flows"]},
    )
    # The acceptance 5x is measured at 500k packets (standalone mode);
    # at CI scale assert the direction with headroom to spare.
    assert sweep["speedups"]["basic@4096"] > 3.0
    assert sweep["speedups"]["hardware@4096"] > 3.0
    assert not sweep["cliff_failures"], "; ".join(sweep["cliff_failures"])


def test_obs_overhead(record):
    """Pytest entry: instrumented numpy must stay within 5% of plain.

    300k packets keeps each timed run ~25ms+ — at the engines' Mpps
    rates anything shorter drowns a 5% floor in scheduler noise.
    """
    sweep = run_obs_overhead(packets=300_000, flows=60_000)
    record(
        "bench_obs_overhead",
        "Observability overhead: numpy engine with metrics on vs off",
        OBS_HEADERS,
        sweep["rows"],
        extra={
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "floor": sweep["floor"],
        },
    )
    for variant, ratio in sweep["ratios"].items():
        assert ratio >= OBS_OVERHEAD_FLOOR, (
            f"{variant}: instrumented throughput is {ratio:.3f}x of "
            f"plain (floor {OBS_OVERHEAD_FLOOR})"
        )


def test_pipeline_stage_breakdown(record):
    """Pytest entry: per-step chunk-loop timing, schema-validated."""
    sweep = run_pipeline_stages(packets=120_000, flows=40_000)
    record(
        "bench_pipeline_stages",
        PIPELINE_TITLE,
        PIPELINE_HEADERS,
        sweep["rows"],
        extra={
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "passes": sweep["passes"],
            "variants": sweep["variants"],
        },
    )
    counts = {(row[0], row[1]): row[2] for row in sweep["rows"]}
    blocks = -(-sweep["packets"] // MAX_PIPELINE_CHUNK)
    assert len(sweep["variants"]) == 2 + len(GOVERNOR_WIDTHS)
    for variant, stats in sweep["variants"].items():
        chunks = stats["chunks"]
        assert chunks == -(-sweep["packets"] // stats["chunk"]), variant
        expected = {"hash": blocks, "replace": chunks, "stats": chunks}
        for stage, count in expected.items():
            assert (variant, stage) in counts, f"missing span {variant}/{stage}"
            assert counts[variant, stage] == count, (variant, stage)


def test_kernel_sweep(record):
    """Pytest entry: kernel-backend sweep, same JSON artifact.

    Runs numpy-only where no compiled backend is available (the
    artifact still records the fallback baseline); each compiled
    backend present must clear the directional replace-stage floor —
    the 2x acceptance gate runs at full standalone scale.
    """
    sweep = run_kernel_sweep(packets=120_000, flows=40_000)
    record(
        "bench_kernels",
        "Replace-stage kernels: compiled vs numpy on the staged pipeline",
        KERNEL_HEADERS,
        sweep["rows"],
        extra={
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "passes": sweep["passes"],
            "backends": sweep["backends"],
            "floor": sweep["floor"],
            "ci_floor": sweep["ci_floor"],
        },
    )
    measured = {(row[0], row[1]) for row in sweep["rows"]}
    for variant in ("basic", "hardware"):
        for backend in sweep["backends"]:
            assert (variant, backend) in measured
            if backend == "numpy":
                continue
            ratio = sweep["speedups"][f"{variant}@{backend}"]
            assert ratio >= KERNEL_REPLACE_CI_FLOOR, (
                f"{variant}/{backend}: compiled replace stage is {ratio:.2f}x "
                f"staged-numpy (CI floor {KERNEL_REPLACE_CI_FLOOR})"
            )


def test_shard_sweep_scaling(record):
    """Pytest entry: CI-sized shard sweep, same JSON artifact."""
    sweep = run_shard_sweep(packets=120_000, flows=20_000, gate_trials=3)
    record(
        "bench_shard_sweep",
        "Sharded pipeline: throughput scaling and accuracy by shard count",
        SHARD_HEADERS,
        sweep["rows"],
        extra={
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "engine": sweep["engine"],
            "are_gate": sweep["are_gate"],
        },
    )
    by_shards = {row[0]: row for row in sweep["rows"]}
    # Fleet CPU capacity (one core per worker) must scale from 1 -> 4
    # workers; ~4x in practice, 2x leaves room for per-worker overhead.
    assert by_shards[4][SHARD_HEADERS.index("capacity_scaling")] > 2.0
    # Directional driver-overhead floor; the 0.75 acceptance gate runs
    # at full standalone scale where spawn cost amortises.
    assert sweep["driver_efficiency"][2] > 0.5, (
        f"2-shard driver efficiency {sweep['driver_efficiency'][2]:.2f} "
        "below the CI directional floor 0.5"
    )
    assert sweep["are_gate"]["passed"], sweep["are_gate"]["detail"]


def _print_shard_sweep(sweep: Dict) -> None:
    print(
        f"{'shards':>6} {'wall pps':>12} {'wall x':>7} {'cap pps':>12} "
        f"{'cap x':>7} {'drv eff':>8} {'imbal':>6} {'ARE':>8}"
    )
    for shards, wall, wall_x, cap, cap_x, eff, imbal, are in sweep["rows"]:
        print(
            f"{shards:>6} {wall:>12.0f} {wall_x:>6.2f}x {cap:>12.0f} "
            f"{cap_x:>6.2f}x {eff:>7.0%} {imbal:>5.2f}x {are:>8.4f}"
        )
    shards, wall, wall_x = sweep["rows"][-1][:3]
    print(
        f"headline: {wall:,.0f} wall pps at {shards} shards "
        f"({wall_x:.2f}x one shard); 'cap' is CPU-derived capacity, "
        "not throughput"
    )
    print(f"ARE gate: {sweep['are_gate']['detail']}")


# -- adaptive sweep: governor vs best static geometry ------------------

ADAPTIVE_HEADERS = [
    "mode", "l start", "l final", "resizes", "post-shift ARE"
]

#: The governed daemon's post-shift ARE may exceed the static
#: reference's by at most 5% (plus the harness absolute floor).
ADAPTIVE_ARE_LIMIT = 1.05


def _best_static_geometry() -> tuple:
    """``(d, l)`` of the best-f1 row in the geometry ablation artifact.

    Falls back to the recorded optimum (d=8, l=1505 at ~200 KB) when
    ``results/ablation_geometry.json`` is absent, so the sweep runs on
    a fresh checkout.
    """
    path = (
        Path(__file__).resolve().parent.parent
        / "results"
        / "ablation_geometry.json"
    )
    try:
        rows = json.loads(path.read_text())["rows"]
        d, l, _f1 = max(rows, key=lambda row: row[2])
        return int(d), int(l)
    except (OSError, ValueError, KeyError):
        return 8, 1505


def run_adaptive_sweep(
    packets: int, flows: int, seed: int = 7, epochs: int = 8
) -> Dict:
    """Governed vs static daemon on a mid-run caida -> mawi shift.

    Both daemons see the identical packet sequence with identical epoch
    boundaries; accuracy is evaluated on the summed post-shift epochs
    (the geometry the governor *landed* on) over three partial keys.
    """
    from repro.control import GovernorConfig
    from repro.service import MeasurementDaemon, ServiceConfig
    from repro.sketches.base import COUNTER_BYTES, DEFAULT_KEY_BYTES
    from repro.traffic.synthetic import caida_like, mawi_like
    from repro.traffic.trace import Trace
    from tests.stat_harness import DEFAULT_ABS_FLOOR

    d, best_l = _best_static_geometry()
    memory = d * best_l * (DEFAULT_KEY_BYTES + COUNTER_BYTES)
    # Theorem 1 updates only the minimum of the d candidate buckets, so
    # the steady-state fraction of buckets holding a key falls with d
    # (at d=8 a saturated array sits near ~0.25, not ~1.0).  The CLI
    # defaults (0.70/0.25) are tuned for the default d=2 geometry; this
    # sweep runs the ablation's best d, so scale the thresholds down.
    governor_config = GovernorConfig(
        memory_bytes=memory,
        grow_occupancy=min(0.70, 2 * 0.70 / d),
        shrink_occupancy=min(0.25, 2 * 0.25 / d),
    )
    half = packets // 2
    head = caida_like(half, flows, seed=seed)
    tail = mawi_like(packets - half, max(256, flows // 3), seed=seed + 1)
    trace = Trace(FIVE_TUPLE, head.keys + tail.keys, name="adaptive-shift")
    epoch_packets = max(1, packets // epochs)

    def run(governed: bool):
        l0 = max(64, best_l // 8) if governed else best_l
        config = ServiceConfig(
            spec=SketchSpec(
                engine="numpy", variant="basic", d=d, l=l0, seed=seed
            ),
            key_spec=FIVE_TUPLE,
            shards=1,
            chunk=4096,
            epoch_packets=epoch_packets,
            governor=governor_config if governed else None,
        )
        daemon = MeasurementDaemon(config)
        for hi, lo, sizes in trace.batches(4096):
            daemon.ingest(hi, lo, sizes)
        daemon.close()
        return l0, daemon

    gov_l0, governed = run(True)
    static_l0, static = run(False)
    ids = governed.store.ids()
    assert ids == static.store.ids(), "epoch boundaries diverged"
    eval_ids = [
        e for e in ids if governed.store.get(e).start_seq >= half
    ]
    start = min(governed.store.get(e).start_seq for e in eval_ids)
    window = trace.slice(start, len(trace))
    specs = [
        FIVE_TUPLE.partial(("SrcIP", 16)),
        FIVE_TUPLE.partial("SrcIP"),
        FIVE_TUPLE.partial("SrcIP", "DstIP"),
    ]

    def window_are(daemon) -> float:
        planner = daemon.range_planner(eval_ids[0], eval_ids[-1])
        errors = []
        for pspec in specs:
            truth = window.ground_truth(pspec)
            ranked = sorted(truth.items(), key=lambda kv: -kv[1])[:30]
            table = planner.table(pspec)
            errors.extend(
                abs(table.lookup(key) - value) / value
                for key, value in ranked
            )
        return float(sum(errors) / len(errors))

    gov_are = window_are(governed)
    static_are = window_are(static)
    resizes = int(
        governed.metrics_snapshot()["counters"].get(
            "control.governor.resizes", 0
        )
    )
    limit = ADAPTIVE_ARE_LIMIT * static_are + DEFAULT_ABS_FLOOR
    passed = resizes >= 1 and gov_are <= limit
    detail = (
        f"governed ARE {gov_are:.4f} vs static {static_are:.4f} "
        f"(limit {limit:.4f} = {ADAPTIVE_ARE_LIMIT}x + "
        f"{DEFAULT_ABS_FLOOR} floor) after {resizes} resizes"
    )
    return {
        "packets": packets,
        "flows": flows,
        "memory_bytes": memory,
        "geometry": {"d": d, "best_static_l": best_l},
        "rows": [
            ["governed", gov_l0, governed.spec.l, resizes, gov_are],
            ["static", static_l0, static.spec.l, 0, static_are],
        ],
        "are_gate": {"passed": bool(passed), "detail": detail},
    }


def test_adaptive_sweep(record):
    """Pytest entry: CI-sized adaptive gate, same JSON artifact."""
    sweep = run_adaptive_sweep(packets=96_000, flows=16_000)
    record(
        "bench_adaptive",
        "Adaptive geometry: governor vs best static at equal memory",
        ADAPTIVE_HEADERS,
        sweep["rows"],
        extra={
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "memory_bytes": sweep["memory_bytes"],
            "geometry": sweep["geometry"],
            "are_gate": sweep["are_gate"],
        },
    )
    assert sweep["are_gate"]["passed"], sweep["are_gate"]["detail"]


def _print_adaptive(sweep: Dict) -> None:
    print(
        f"{'mode':<10} {'l start':>8} {'l final':>8} {'resizes':>8} "
        f"{'ARE':>8}"
    )
    for mode, l0, l1, resizes, are in sweep["rows"]:
        print(f"{mode:<10} {l0:>8} {l1:>8} {resizes:>8} {are:>8.4f}")
    print(f"adaptive gate: {sweep['are_gate']['detail']}")


def _drive_adaptive(args) -> tuple:
    sweep = run_adaptive_sweep(args.packets, args.flows, seed=args.seed)
    _print_adaptive(sweep)
    payload = {
        "title": "Adaptive geometry: governor vs best static at equal memory",
        "headers": ADAPTIVE_HEADERS,
        "rows": sweep["rows"],
        "extra": {
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "memory_bytes": sweep["memory_bytes"],
            "geometry": sweep["geometry"],
            "are_gate": sweep["are_gate"],
        },
    }
    failures = []
    if not sweep["are_gate"]["passed"]:
        failures.append("adaptive gate: " + sweep["are_gate"]["detail"])
    return payload, failures


# -- standalone sweep registry ----------------------------------------
#
# Every sweep is one entry: the ``--sweep`` key doubles as the CLI
# choice, ``results/<result_name>.json`` is the recorded artifact (the
# same name the pytest entry passes to ``record``), and the driver
# returns (rows-payload, failure-strings).  A non-empty failure list
# fails the process, so adding a sweep here inherits the floor-gate
# conventions instead of reinventing them.


def _drive_engine(args) -> tuple:
    sweep = run_sweep(args.packets, args.flows, seed=args.seed)
    print(f"{'variant':<10} {'engine':<8} {'batch':>7} {'pps':>12} {'speedup':>8}")
    for variant, engine, batch, pps, speedup in sweep["rows"]:
        print(f"{variant:<10} {engine:<8} {batch!s:>7} {pps:>12.0f} {speedup:>7.2f}x")
    payload = {
        "title": "Engine throughput: scalar vs numpy by batch size",
        "headers": HEADERS,
        "rows": sweep["rows"],
        "extra": {"packets": sweep["packets"], "flows": sweep["flows"]},
    }
    failures = [f"large-batch guard: {f}" for f in sweep["cliff_failures"]]
    return payload, failures


def _drive_shards(args) -> tuple:
    sweep = run_shard_sweep(args.packets, args.shard_flows, seed=args.seed)
    _print_shard_sweep(sweep)
    payload = {
        "title": "Sharded pipeline: throughput scaling and accuracy by shard count",
        "headers": SHARD_HEADERS,
        "rows": sweep["rows"],
        "extra": {
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "engine": sweep["engine"],
            "driver_efficiency": sweep["driver_efficiency"],
            "are_gate": sweep["are_gate"],
        },
    }
    failures = []
    if not sweep["are_gate"]["passed"]:
        failures.append("shard-sweep ARE gate: " + sweep["are_gate"]["detail"])
    # Driver-overhead gate at full scale only: below ~500k packets the
    # per-worker spawn cost dominates and the ratio is meaningless (the
    # CI smoke runs at 120k).
    efficiency = sweep["driver_efficiency"].get(2)
    if args.packets >= 500_000 and efficiency is not None:
        if efficiency < DRIVER_EFFICIENCY_FLOOR:
            failures.append(
                f"driver efficiency gate: {efficiency:.2f} at 2 shards "
                f"(floor {DRIVER_EFFICIENCY_FLOOR})"
            )
    return payload, failures


def _drive_obs(args) -> tuple:
    sweep = run_obs_overhead(args.packets, args.flows, seed=args.seed)
    print(f"{'variant':<10} {'plain pps':>12} {'instr pps':>12} {'ratio':>7}")
    for variant, plain, instrumented, ratio in sweep["rows"]:
        print(
            f"{variant:<10} {plain:>12.0f} {instrumented:>12.0f} "
            f"{ratio:>6.3f}x"
        )
    payload = {
        "title": "Observability overhead: numpy engine with metrics on vs off",
        "headers": OBS_HEADERS,
        "rows": sweep["rows"],
        "extra": {
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "floor": sweep["floor"],
        },
    }
    failures = [
        f"obs overhead gate: {variant} ratio {ratio:.3f} "
        f"(floor {OBS_OVERHEAD_FLOOR})"
        for variant, ratio in sweep["ratios"].items()
        if ratio < OBS_OVERHEAD_FLOOR
    ]
    return payload, failures


def _drive_pipeline(args) -> tuple:
    sweep = run_pipeline_stages(args.packets, args.flows, seed=args.seed)
    print(
        f"{'variant':<16} {'stage':<8} {'spans':>7} {'total s':>9} "
        f"{'us/span':>9} {'share':>6}"
    )
    for variant, stage, spans, total_s, mean_us, share in sweep["rows"]:
        print(
            f"{variant:<16} {stage:<8} {spans:>7} {total_s:>9.4f} "
            f"{mean_us:>9.1f} {share:>5.0%}"
        )
    for variant, stats in sweep["variants"].items():
        print(
            f"{variant}: {stats['chunks']} chunks of {stats['chunk']}, "
            f"{stats['pps']:,.0f} pps"
        )
    payload = {
        "title": PIPELINE_TITLE,
        "headers": PIPELINE_HEADERS,
        "rows": sweep["rows"],
        "extra": {
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "passes": sweep["passes"],
            "variants": sweep["variants"],
        },
    }
    return payload, []


def _drive_kernels(args) -> tuple:
    sweep = run_kernel_sweep(args.packets, args.flows, seed=args.seed)
    print(
        f"{'variant':<10} {'kernel':<8} {'pps':>12} {'replace s':>10} "
        f"{'us/chunk':>9} {'repl x':>7} {'pipe x':>7}"
    )
    for variant, kernel, pps, total_s, mean_us, rx, px in sweep["rows"]:
        print(
            f"{variant:<10} {kernel:<8} {pps:>12.0f} {total_s:>10.4f} "
            f"{mean_us:>9.1f} {rx:>6.2f}x {px:>6.2f}x"
        )
    if sweep["backends"] == ["numpy"]:
        print("no compiled backend available — numpy baseline only, no gate applied")
    payload = {
        "title": "Replace-stage kernels: compiled vs numpy on the staged pipeline",
        "headers": KERNEL_HEADERS,
        "rows": sweep["rows"],
        "extra": {
            "packets": sweep["packets"],
            "flows": sweep["flows"],
            "passes": sweep["passes"],
            "backends": sweep["backends"],
            "floor": sweep["floor"],
            "ci_floor": sweep["ci_floor"],
        },
    }
    failures = [f"kernel gate: {f}" for f in sweep["failures"]]
    return payload, failures


#: sweep key -> (results/ artifact stem, legacy out-flag dest, driver).
SWEEPS = {
    "engine": ("bench_engine_batch", "out", _drive_engine),
    "shards": ("bench_shard_sweep", "shard_out", _drive_shards),
    "obs": ("bench_obs_overhead", "obs_out", _drive_obs),
    "pipeline": ("bench_pipeline_stages", "pipeline_out", _drive_pipeline),
    "kernels": ("bench_kernels", "kernels_out", _drive_kernels),
    "adaptive": ("bench_adaptive", "adaptive_out", _drive_adaptive),
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=500_000)
    parser.add_argument("--flows", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--sweep",
        choices=tuple(SWEEPS) + ("all",),
        default="engine",
        help="which sweep(s) to run standalone",
    )
    parser.add_argument("--shard-flows", type=int, default=50_000)
    parser.add_argument(
        "--out-dir",
        default=str(Path(__file__).resolve().parent.parent / "results"),
        help="directory for the results/<sweep>.json artifacts",
    )
    for result_name, dest, _driver in SWEEPS.values():
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(
            flag,
            default=None,
            help=f"override path for {result_name}.json",
        )
    args = parser.parse_args(argv)

    status = 0
    selected = tuple(SWEEPS) if args.sweep == "all" else (args.sweep,)
    for key in selected:
        result_name, dest, driver = SWEEPS[key]
        payload, failures = driver(args)
        override = getattr(args, dest)
        out = (
            Path(override)
            if override
            else Path(args.out_dir) / f"{result_name}.json"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2))
        print(f"\nwrote {out}")
        for failure in failures:
            print(f"{key} sweep FAILED: {failure}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
