"""Pluggable execution engines for the sketch update hot path.

Two engines ship, selected by name (CLI ``--engine``, benchmark
``REPRO_ENGINE``):

* ``scalar`` — the reference pure-Python sketches, one packet per call.
* ``numpy`` — columnar sketches over uint64/int64 numpy state consuming
  whole ``(keys_hi, keys_lo, sizes)`` batches (see
  :mod:`repro.engine.vectorized` for the scheduling that keeps the
  paper's exact update rule).

Typical use::

    from repro.engine import get_engine

    sketch = get_engine("numpy").cocosketch_from_memory(200 * 1024, d=2)
    sketch.process(trace)   # columnar blocks; the engine cuts its chunks

When to stay scalar: traces of a few thousand packets (batch setup
overhead dominates), exotic hash backends (``bob`` has no vectorised
path), or geometries with many arrays (d > 4) where the basic rule's
epoch scheduling loses its advantage.

Either engine scales horizontally through the sharded pipeline
(:mod:`repro.engine.sharded`): partition a trace across worker
processes, one engine-backed sketch each, and answer with the sum of
the shards' tables (Lemma 3: estimates of disjoint traffic add)::

    from repro.engine import ShardedSketch, SketchSpec

    spec = SketchSpec.from_memory(200 * 1024, engine="numpy", seed=1)
    sketch = ShardedSketch(spec, shards=4)
    sketch.process(trace)          # partition -> shard workers -> keep
    sketch.flow_table()            # the sum of the shard tables
"""

from repro.engine.base import (
    ENGINES,
    ExecutionEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.engine.scalar import ScalarEngine
from repro.engine.sharded import (
    PARTITION_STRATEGIES,
    ShardedSketch,
    SketchSpec,
    partition_columns,
    shard_assignments,
)
from repro.engine.vectorized import (
    NumpyCocoSketch,
    NumpyCountMin,
    NumpyCountSketch,
    NumpyEngine,
    NumpyHardwareCocoSketch,
    as_columns,
)

__all__ = [
    "ENGINES",
    "ExecutionEngine",
    "ScalarEngine",
    "NumpyEngine",
    "NumpyCocoSketch",
    "NumpyHardwareCocoSketch",
    "NumpyCountMin",
    "NumpyCountSketch",
    "PARTITION_STRATEGIES",
    "ShardedSketch",
    "SketchSpec",
    "as_columns",
    "available_engines",
    "get_engine",
    "partition_columns",
    "register_engine",
    "shard_assignments",
]
