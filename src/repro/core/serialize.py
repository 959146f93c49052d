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

An epoch snapshot (kind :data:`EPOCH_KIND`, :func:`dump_epoch`) shares
the header but carries no sketch state: it holds a closed epoch's
metadata and its estimate table.
"""

from __future__ import annotations

import struct
from typing import Union

import numpy as np

from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch, P4CocoSketch
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch
from repro.flowkeys.columns import words_for_width
from repro.flowkeys.fields import Field
from repro.flowkeys.key import FullKeySpec
from repro.query.columns import ColumnTable

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

#: Wire kind for a frozen measurement epoch: rotation metadata plus the
#: epoch's estimate table (the service daemon's snapshot files).  Kinds 5
#: and 6 (an epoch wrapped around a sketch blob) are retired and stay
#: unassigned.
EPOCH_KIND = 7

_EPOCH_META = struct.Struct("<QQQdQB")

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


def _check_u64(**fields) -> None:
    for name, value in fields.items():
        if not 0 <= value < 1 << 64:
            raise SerializationError(f"{name} {value} out of u64 range")


def dump_epoch(
    epoch: int,
    start_seq: int,
    packets: int,
    closed_at: float,
    d: int,
    l: int,
    table: ColumnTable,
) -> bytes:
    """Serialise a frozen measurement epoch to the shared wire format.

    Layout: the common header with ``kind`` = :data:`EPOCH_KIND`, the
    geometry the epoch was cut at (``d``, ``l``) and zero ``key_bytes``
    and seed count, then ``epoch u64 | start_seq u64 | packets u64 |
    closed_at f64 | rows u64 | field count u8``, one ``width u8 |
    name length u8 | name`` record per key field, the ``(W, rows)`` key
    words (word 0 first) as u64 and the ``rows`` values as f64.  The
    key spec travels with the rows, so an epoch file is
    self-describing: :func:`load_epoch` hands back the same table.
    """
    _check_u64(epoch=epoch, start_seq=start_seq, packets=packets)
    if not (0 <= d < 1 << 16 and 0 <= l < 1 << 32):
        raise SerializationError(f"geometry ({d}, {l}) out of range")
    if not isinstance(table, ColumnTable) or not isinstance(
        table.spec, FullKeySpec
    ):
        raise SerializationError(
            f"epoch payload must be a full-key ColumnTable, got "
            f"{type(table).__name__}"
        )
    spec = table.spec
    if table.words.shape[0] != words_for_width(spec.width):
        raise SerializationError(
            f"{table.words.shape[0]} key words for a {spec.width}-bit key"
        )
    parts = [
        _HEADER.pack(_MAGIC, _VERSION, EPOCH_KIND, d, l, 0, 0),
        _EPOCH_META.pack(
            epoch, start_seq, packets, float(closed_at), len(table),
            len(spec.fields),
        ),
    ]
    for fld in spec.fields:
        name = fld.name.encode("utf-8")
        if len(name) > 255:
            raise SerializationError(f"field name {fld.name!r} too long")
        parts.append(struct.pack("<BB", fld.width, len(name)) + name)
    parts.append(np.ascontiguousarray(table.words, dtype="<u8").tobytes())
    parts.append(np.ascontiguousarray(table.values, dtype="<f8").tobytes())
    return b"".join(parts)


def _load_key_spec(blob: bytes, offset: int, count: int):
    """The key spec's field records at *offset*; returns it and the end."""
    fields = []
    for _ in range(count):
        if len(blob) < offset + 2:
            raise SerializationError("epoch blob truncated in the key spec")
        width, size = struct.unpack_from("<BB", blob, offset)
        offset += 2
        raw = blob[offset : offset + size]
        offset += size
        try:
            fields.append(Field(raw.decode("utf-8"), width))
        except ValueError as exc:  # bad utf-8, width or empty name
            raise SerializationError(f"bad key field: {exc}") from exc
    try:
        return FullKeySpec(fields), offset
    except ValueError as exc:
        raise SerializationError(f"bad key spec: {exc}") from exc


def load_epoch(blob: bytes):
    """Reconstruct ``(meta, table)`` from :func:`dump_epoch` output.

    ``meta`` is a dict with ``epoch``, ``start_seq``, ``packets``,
    ``closed_at`` and the geometry the epoch was cut at (``d``, ``l``);
    ``table`` is a read-only raw :class:`ColumnTable` over the recorded
    key spec.  Truncated or corrupted snapshot files raise
    :class:`SerializationError` rather than propagating a struct or
    numpy traceback.
    """
    if len(blob) < _HEADER.size + _EPOCH_META.size:
        raise SerializationError("epoch blob shorter than header")
    magic, version, kind, d, l, key_bytes, seed_count = _HEADER.unpack(
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
    if key_bytes or seed_count:
        raise SerializationError("epoch header carries sketch fields")
    epoch, start_seq, packets, closed_at, rows, count = (
        _EPOCH_META.unpack_from(blob, _HEADER.size)
    )
    spec, offset = _load_key_spec(
        blob, _HEADER.size + _EPOCH_META.size, count
    )
    width = spec.width
    w = words_for_width(width)
    if len(blob) != offset + rows * 8 * (w + 1):
        raise SerializationError(
            f"epoch blob length {len(blob)} != {offset + rows * 8 * (w + 1)} "
            f"for {rows} rows of {w} key words"
        )
    words = np.frombuffer(
        blob, dtype="<u8", count=w * rows, offset=offset
    ).reshape(w, rows)
    values = np.frombuffer(
        blob, dtype="<f8", count=rows, offset=offset + 8 * w * rows
    )
    top = width - 64 * (w - 1)
    if top < 64 and rows and (words[w - 1] >> np.uint64(top)).any():
        raise SerializationError(f"a key exceeds the spec's {width} bits")
    meta = {
        "epoch": epoch,
        "start_seq": start_seq,
        "packets": packets,
        "closed_at": closed_at,
        "d": d,
        "l": l,
    }
    return meta, ColumnTable(spec, words, values)
