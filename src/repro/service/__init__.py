"""Always-on streaming service plane.

The batch pipeline measures run-to-completion; deployments (the
paper's OVS integration, §7) measure *continuously* and answer queries
against live state.  This package is that system layer:

* :class:`MeasurementDaemon` — a long-lived ingestion loop over
  in-process shard engines, rotating measurement epochs on
  packet-count or wall-clock boundaries and freezing each closed epoch
  as an immutable snapshot holding its read-only estimate table
  (exported through the :mod:`repro.core.serialize` epoch wire kind by
  ``to_bytes()``).
* :class:`EpochStore` — bounded history of frozen epochs plus
  time-travel: any contiguous epoch range is the sum of its epochs'
  estimates (Lemma 3), two bincounts over one key dictionary.
* :class:`ServiceServer` — a thread-safe HTTP API (``/query`` SQL,
  ``/topk``, ``/epochs``, ``/metrics``) over the live epoch, any
  historical epoch, and merged ranges.

Live reads have one path, the slim replica
(:class:`~repro.query.slim.SlimReplica`): the shard engines stream
compact deltas into it, so queries are served from a bounded delta
drain instead of a copy under the ingest lock, and every answer
carries ``packets_behind`` staleness.

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
    RangeSum,
    offline_epoch_run,
)
from repro.service.http import ServiceServer

__all__ = [
    "EpochBuilder",
    "EpochSnapshot",
    "EpochStore",
    "MeasurementDaemon",
    "RangeSum",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "offline_epoch_run",
]
