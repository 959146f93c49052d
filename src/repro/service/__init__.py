"""Always-on streaming service plane.

The batch pipeline measures run-to-completion; deployments (the
paper's OVS integration, §7) measure *continuously* and answer queries
against live state.  This package is that system layer:

* :class:`MeasurementDaemon` — a long-lived ingestion loop over
  in-process shard engines, rotating measurement epochs on
  packet-count or wall-clock boundaries and freezing each closed epoch
  as an immutable snapshot holding a read-only sketch (exported through
  the :mod:`repro.core.serialize` epoch wire kind by ``to_bytes()``).
* :class:`EpochStore` — bounded history of frozen epochs plus
  time-travel: any contiguous epoch range merges into one queryable
  sketch through the unbiased Theorem 1 fold.
* :class:`ServiceServer` — a thread-safe HTTP API (``/query`` SQL,
  ``/topk``, ``/epochs``, ``/metrics``) over the live epoch, any
  historical epoch, and merged ranges.

Live reads default to the fat/slim split
(:class:`~repro.query.slim.SlimReplica`): the fat update plane streams
compact deltas into a slim replica, so queries are served from a
bounded delta drain instead of a copy-and-merge under the ingest
lock, and every answer carries ``packets_behind`` staleness.

See ``docs/service.md`` for the lifecycle and the epoch model.
"""

from repro.service.daemon import (
    EpochBuilder,
    MeasurementDaemon,
    ServiceConfig,
    ServiceError,
)
from repro.service.epochs import (
    EpochSnapshot,
    EpochStore,
    epoch_merge_seed,
    offline_epoch_run,
)
from repro.service.http import ServiceServer

__all__ = [
    "EpochBuilder",
    "EpochSnapshot",
    "EpochStore",
    "MeasurementDaemon",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "epoch_merge_seed",
    "offline_epoch_run",
]
