"""Traffic substrate: trace containers and workload generators.

The paper evaluates on two real packet traces (CAIDA 2018 Equinix-Chicago
and MAWI).  Those traces are not redistributable, so this package provides
seeded synthetic equivalents (see DESIGN.md §2): Zipf-distributed flow
populations over structurally realistic 5-tuples, with configurable skew,
flow counts and packet counts.  Accuracy behaviour of all sketches under
test depends only on the flow-size distribution and key structure, which
the generators reproduce.

Contents:

* :class:`~repro.traffic.trace.Trace` — an ordered multiset of
  ``(key, size)`` records plus cached ground truth.
* :func:`~repro.traffic.synthetic.caida_like` /
  :func:`~repro.traffic.synthetic.mawi_like` — the two evaluation
  workloads.
* :func:`~repro.traffic.synthetic.uniform_workload` — the
  non-heavy-tailed stress case discussed in §3.2.
* :func:`~repro.traffic.synthetic.heavy_change_windows` — adjacent
  windows for heavy-change detection (§7.2).
* CSV round-trip helpers in :mod:`repro.traffic.storage`; classic
  PCAP ingest/export in :mod:`repro.traffic.pcap`.
* :meth:`Trace.exact_table() <repro.traffic.trace.Trace.exact_table>`
  — the exact per-flow totals as a column table, aggregated onto any
  partial key like a sketch's table.
"""

from repro.traffic.synthetic import (
    caida_like,
    heavy_change_windows,
    mawi_like,
    uniform_workload,
    zipf_trace,
)
from repro.flowkeys.columns import pack_key_columns
from repro.traffic.trace import Trace
from repro.traffic.storage import load_csv, save_csv

__all__ = [
    "Trace",
    "caida_like",
    "mawi_like",
    "uniform_workload",
    "zipf_trace",
    "heavy_change_windows",
    "load_csv",
    "save_csv",
    "pack_key_columns",
]
