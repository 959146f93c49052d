"""Binary serialisation of CocoSketch state.

Deployments ship sketch state off the data plane every window (the
OVS integration reads it through shared memory; switches export via
the control plane; sharded worker processes return state to the
collector).  This codec gives that wire format: a versioned,
endian-fixed binary blob holding geometry, hash-family seeds and the
bucket arrays, so a collector can reconstruct an *identical* sketch —
including its hash functions, which merging requires.

Layout (little-endian):

    magic  "CCSK" | version u16 | kind u8 | d u16 | l u32
    key_bytes u8 | seed_count u16 | seeds u64 x seed_count
    per array: l x (key u128 | value u64)   (key flag: all-ones = empty)

Values are capped at u64; keys at 128 bits (the 5-tuple needs 104).
The scalar and columnar (numpy engine) variants share the bucket
layout — only the ``kind`` byte differs — so a blob dumped by a numpy
worker and one dumped by a scalar worker are byte-comparable when
their states agree.
"""

from __future__ import annotations

import struct
from typing import Union

import numpy as np

from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch, P4CocoSketch
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch

_MAGIC = b"CCSK"
_VERSION = 1
_EMPTY_KEY = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_HEADER = struct.Struct("<4sHBHIBH")

_KINDS = {
    BasicCocoSketch: 0,
    HardwareCocoSketch: 1,
    P4CocoSketch: 2,
    NumpyCocoSketch: 3,
    NumpyHardwareCocoSketch: 4,
}
_CLASSES = {number: cls for cls, number in _KINDS.items()}

#: Wire kind for a frozen measurement epoch: rotation metadata wrapped
#: around an embedded sketch blob (the service daemon's snapshot files).
#: Kind 5 is retired and stays unassigned.
EPOCH_KIND = 6

_EPOCH_META = struct.Struct("<QQQdI")

AnyCocoSketch = Union[
    BasicCocoSketch,
    HardwareCocoSketch,
    P4CocoSketch,
    NumpyCocoSketch,
    NumpyHardwareCocoSketch,
]


class SerializationError(ValueError):
    """Malformed or incompatible sketch blob."""


def _dump_scalar_arrays(sketch, parts) -> None:
    for i in range(sketch.d):
        keys = sketch._keys[i]
        vals = sketch._vals[i]
        for j in range(sketch.l):
            key = keys[j]
            encoded = _EMPTY_KEY if key is None else key
            if not 0 <= encoded <= _EMPTY_KEY:
                raise SerializationError(f"key {key} exceeds 128 bits")
            value = vals[j]
            if not 0 <= value < 1 << 64:
                raise SerializationError(f"value {value} exceeds 64 bits")
            parts.append(encoded.to_bytes(16, "little"))
            parts.append(struct.pack("<Q", value))


def _dump_columnar_arrays(sketch, parts) -> None:
    """Columnar state to the same wire layout, without a python loop.

    A 128-bit little-endian key is its lo u64 then its hi u64, so an
    ``(l, 3)`` uint64 array of ``[lo, hi, value]`` rows serialises to
    exactly the per-bucket ``key u128 | value u64`` records.
    """
    mask = np.uint64(_MASK64)
    for i in range(sketch.d):
        occ = sketch._occupied[i]
        enc = np.empty((sketch.l, 3), dtype=np.uint64)
        enc[:, 0] = np.where(occ, sketch._key_lo[i], mask)
        enc[:, 1] = np.where(occ, sketch._key_hi[i], mask)
        if (sketch._vals[i] < 0).any():
            raise SerializationError("negative counter value")
        enc[:, 2] = sketch._vals[i].astype(np.uint64)
        parts.append(enc.tobytes())


def dump_sketch(sketch: AnyCocoSketch) -> bytes:
    """Serialise a CocoSketch (any variant, either engine) to bytes."""
    kind = _KINDS.get(type(sketch))
    if kind is None:
        raise SerializationError(
            f"cannot serialise {type(sketch).__name__}"
        )
    seeds = sketch._family.seeds
    parts = [
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            kind,
            sketch.d,
            sketch.l,
            sketch.key_bytes,
            len(seeds),
        )
    ]
    parts.extend(struct.pack("<Q", seed) for seed in seeds)
    if hasattr(sketch, "_key_hi"):
        _dump_columnar_arrays(sketch, parts)
    else:
        _dump_scalar_arrays(sketch, parts)
    return b"".join(parts)


def _load_scalar_arrays(sketch, blob: bytes, offset: int) -> None:
    for i in range(sketch.d):
        keys = sketch._keys[i]
        vals = sketch._vals[i]
        for j in range(sketch.l):
            key = int.from_bytes(blob[offset : offset + 16], "little")
            offset += 16
            (value,) = struct.unpack_from("<Q", blob, offset)
            offset += 8
            keys[j] = None if key == _EMPTY_KEY else key
            vals[j] = value


def _load_columnar_arrays(sketch, blob: bytes, offset: int) -> None:
    arr = np.frombuffer(
        blob, dtype=np.uint64, count=sketch.d * sketch.l * 3, offset=offset
    ).reshape(sketch.d, sketch.l, 3)
    lo = arr[:, :, 0]
    hi = arr[:, :, 1]
    mask = np.uint64(_MASK64)
    occ = ~((lo == mask) & (hi == mask))
    # In-place writes keep the flat views over the state arrays valid.
    sketch._key_lo[:] = np.where(occ, lo, np.uint64(0))
    sketch._key_hi[:] = np.where(occ, hi, np.uint64(0))
    sketch._occupied[:] = occ
    sketch._vals[:] = arr[:, :, 2].astype(np.int64)


def load_sketch(blob: bytes) -> AnyCocoSketch:
    """Reconstruct a CocoSketch from :func:`dump_sketch` output.

    The rebuilt sketch hashes, queries and merges identically to the
    original (same hash-family seeds).
    """
    if len(blob) < _HEADER.size:
        raise SerializationError("blob shorter than header")
    magic, version, kind, d, l, key_bytes, seed_count = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise SerializationError(f"unsupported version {version}")
    if kind == EPOCH_KIND:
        raise SerializationError(
            "blob holds an epoch snapshot, not bare sketch state; "
            "use load_epoch()"
        )
    cls = _CLASSES.get(kind)
    if cls is None:
        raise SerializationError(f"unknown sketch kind {kind}")
    if seed_count != d:
        raise SerializationError(
            f"seed count {seed_count} does not match d={d}"
        )

    offset = _HEADER.size
    expected = offset + 8 * seed_count + d * l * 24
    if len(blob) != expected:
        raise SerializationError(
            f"blob length {len(blob)} != expected {expected}"
        )
    seeds = []
    for _ in range(seed_count):
        (seed,) = struct.unpack_from("<Q", blob, offset)
        seeds.append(seed)
        offset += 8

    sketch = cls(d=d, l=l, seed=0, key_bytes=key_bytes)
    # Restore the exact hash family: overwrite derived seeds.  The
    # family's master_seed no longer describes them, so clear it.
    sketch._family.seeds = seeds
    sketch._family.master_seed = None
    if hasattr(sketch, "_key_hi"):
        _load_columnar_arrays(sketch, blob, offset)
    else:
        sketch._hash = sketch._family.index_fns(l)
        _load_scalar_arrays(sketch, blob, offset)
    return sketch


def blob_size(d: int, l: int) -> int:
    """Size in bytes of a serialised sketch with this geometry."""
    return _HEADER.size + 8 * d + d * l * 24


def dump_epoch(
    epoch: int,
    start_seq: int,
    packets: int,
    closed_at: float,
    sketch_blob: bytes,
) -> bytes:
    """Serialise a frozen measurement epoch to the shared wire format.

    Layout: the common header with ``kind`` = :data:`EPOCH_KIND` and
    the geometry fields (``d``, ``l``, ``key_bytes``) copied from the
    embedded sketch blob's header — an epoch snapshot records the
    geometry it was cut at, so elastic services can tell which epochs
    predate a resize without parsing the payload — then
    ``epoch u64 | start_seq u64 | packets u64 | closed_at f64 |
    blob_len u32 | sketch blob``.  The embedded blob is
    :func:`dump_sketch` output, so an epoch file is self-describing:
    :func:`load_epoch` hands back metadata plus a sketch that hashes
    and merges identically to the frozen original.
    """
    for name, field in (
        ("epoch", epoch), ("start_seq", start_seq), ("packets", packets)
    ):
        if not 0 <= field < 1 << 64:
            raise SerializationError(f"{name} {field} out of u64 range")
    if not isinstance(sketch_blob, (bytes, bytearray)):
        raise SerializationError(
            f"sketch_blob must be bytes, got {type(sketch_blob).__name__}"
        )
    if (
        len(sketch_blob) < _HEADER.size
        or sketch_blob[:4] != _MAGIC
        or sketch_blob[6] not in _CLASSES
    ):
        raise SerializationError(
            "embedded payload is not a sketch blob"
        )
    _m, _v, _k, inner_d, inner_l, inner_kb, _sc = _HEADER.unpack(
        sketch_blob[: _HEADER.size]
    )
    return b"".join(
        [
            _HEADER.pack(
                _MAGIC, _VERSION, EPOCH_KIND, inner_d, inner_l, inner_kb, 0
            ),
            _EPOCH_META.pack(
                epoch, start_seq, packets, float(closed_at),
                len(sketch_blob),
            ),
            bytes(sketch_blob),
        ]
    )


def load_epoch(blob: bytes):
    """Reconstruct ``(meta, sketch)`` from :func:`dump_epoch` output.

    ``meta`` is a dict with ``epoch``, ``start_seq``, ``packets``,
    ``closed_at``, and the geometry the epoch was cut at (``d``, ``l``,
    ``key_bytes``); ``sketch`` is the embedded sketch, rebuilt via
    :func:`load_sketch`.  Blobs written before geometry was recorded in
    the outer header (all-zero geometry fields) fall back to the
    embedded sketch header, so old snapshot files keep loading with
    correct metadata.  Truncated or corrupted snapshot files raise
    :class:`SerializationError` rather than propagating a struct or
    numpy traceback.
    """
    if len(blob) < _HEADER.size + _EPOCH_META.size:
        raise SerializationError("epoch blob shorter than header")
    magic, version, kind, meta_d, meta_l, meta_kb, _sc = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if magic != _MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise SerializationError(f"unsupported version {version}")
    if kind != EPOCH_KIND:
        raise SerializationError(
            f"kind {kind} is not an epoch snapshot (expected "
            f"{EPOCH_KIND}); use load_sketch()"
        )
    epoch, start_seq, packets, closed_at, length = _EPOCH_META.unpack_from(
        blob, _HEADER.size
    )
    payload = blob[_HEADER.size + _EPOCH_META.size :]
    if len(payload) != length:
        raise SerializationError(
            f"epoch payload length {len(payload)} != declared {length}"
        )
    sketch = load_sketch(payload)
    if meta_d == 0 or meta_l == 0:  # legacy blob: geometry only inside
        meta_d, meta_l, meta_kb = sketch.d, sketch.l, sketch.key_bytes
    meta = {
        "epoch": epoch,
        "start_seq": start_seq,
        "packets": packets,
        "closed_at": closed_at,
        "d": meta_d,
        "l": meta_l,
        "key_bytes": meta_kb,
    }
    return meta, sketch
