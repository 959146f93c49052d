"""Property/fuzz tests for the wire format (:mod:`repro.core.serialize`).

Hypothesis drives random geometry, random traffic and random header
corruption through every wire kind — the five sketch kinds (0-4) and
the epoch-snapshot kind (7) — asserting two properties:

* **Round-trip fixpoint** — ``dump(load(dump(x))) == dump(x)`` for
  sketches and epochs (byte equality is the strongest state-identity
  check the codec offers).
* **Corruption rejection** — any header mutation (magic, version, kind,
  truncation, geometry/length lies) raises :class:`SerializationError`,
  never a garbage sketch or a non-codec exception.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cocosketch import BasicCocoSketch
from repro.core.hardware import HardwareCocoSketch, P4CocoSketch
from repro.core.serialize import (
    EPOCH_KIND,
    SerializationError,
    _EPOCH_META,
    _HEADER,
    dump_epoch,
    dump_sketch,
    load_epoch,
    load_sketch,
)
from repro.engine.vectorized import NumpyCocoSketch, NumpyHardwareCocoSketch
from repro.extensions.merging import resize_cocosketch
from repro.flowkeys.fields import Field
from repro.flowkeys.key import FIVE_TUPLE, FullKeySpec
from repro.query.columns import ColumnTable

ALL_SKETCH_CLASSES = [
    BasicCocoSketch,
    HardwareCocoSketch,
    P4CocoSketch,
    NumpyCocoSketch,
    NumpyHardwareCocoSketch,
]

#: Small geometry keeps each example fast while still exercising
#: multi-array layouts and partially filled buckets.
geometries = st.tuples(st.integers(1, 3), st.sampled_from([4, 16, 33]))
packet_lists = st.lists(
    st.tuples(st.integers(0, 2**104 - 1), st.integers(1, 1 << 20)),
    min_size=0,
    max_size=60,
)


def _build(cls, d, l, seed, packets):
    sketch = cls(d=d, l=l, seed=seed)
    for key, size in packets:
        sketch.update(key, size)
    return sketch


class TestSketchRoundTrip:
    @pytest.mark.parametrize("cls", ALL_SKETCH_CLASSES)
    @given(geometry=geometries, seed=st.integers(0, 2**32), packets=packet_lists)
    @settings(max_examples=20, deadline=None)
    def test_dump_load_dump_is_fixpoint(self, cls, geometry, seed, packets):
        d, l = geometry
        sketch = _build(cls, d, l, seed, packets)
        blob = dump_sketch(sketch)
        restored = load_sketch(blob)
        assert type(restored) is type(sketch)
        assert dump_sketch(restored) == blob
        assert restored.flow_table() == sketch.flow_table()


def _valid_sketch_blob():
    sketch = _build(BasicCocoSketch, 2, 16, 7, [(i * 97, i + 1) for i in range(40)])
    return dump_sketch(sketch)


class TestCorruptionRejection:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_header_mutations_rejected(self, data):
        blob = bytearray(_valid_sketch_blob())
        mutation = data.draw(
            st.sampled_from(
                ["magic", "version", "kind", "seed_count", "truncate", "extend"]
            )
        )
        if mutation == "magic":
            pos = data.draw(st.integers(0, 3))
            blob[pos] ^= data.draw(st.integers(1, 255))
        elif mutation == "version":
            struct.pack_into("<H", blob, 4, data.draw(st.integers(2, 0xFFFF)))
        elif mutation == "kind":
            # Kinds 5 and 6 are retired: no loader accepts them.
            blob[6] = data.draw(st.integers(5, 255))
        elif mutation == "seed_count":
            # Header seed count must equal d; lie about it.
            struct.pack_into(
                "<H", blob, _HEADER.size - 2, data.draw(st.integers(3, 100))
            )
        elif mutation == "truncate":
            cut = data.draw(st.integers(1, len(blob) - 1))
            blob = blob[:cut]
        else:
            blob += bytes(data.draw(st.integers(1, 64)))
        with pytest.raises(SerializationError):
            load_sketch(bytes(blob))


epoch_metas = st.tuples(
    st.integers(0, 2**63),       # epoch
    st.integers(0, 2**63),       # start_seq
    st.integers(0, 2**63),       # packets
    st.floats(0, 2e9, allow_nan=False),  # closed_at
)


def _table(cls, d, l, packets, spec=FIVE_TUPLE):
    """An epoch table as the daemon cuts it: a sketch's raw export."""
    sketch = _build(cls, d, l, 11, packets)
    return ColumnTable.from_sketch(sketch, spec, group=False)


def _same_table(a, b):
    return (
        a.spec == b.spec
        and a.words.tobytes() == b.words.tobytes()
        and a.values.tobytes() == b.values.tobytes()
    )


class TestEpochRoundTrip:
    @pytest.mark.parametrize(
        "cls", [BasicCocoSketch, NumpyCocoSketch, NumpyHardwareCocoSketch]
    )
    @given(meta=epoch_metas, geometry=geometries, packets=packet_lists)
    @settings(max_examples=15, deadline=None)
    def test_round_trip(self, cls, meta, geometry, packets):
        epoch, start_seq, count, closed_at = meta
        d, l = geometry
        table = _table(cls, d, l, packets)
        wire = dump_epoch(epoch, start_seq, count, closed_at, d, l, table)
        loaded_meta, loaded = load_epoch(wire)
        assert loaded_meta == {
            "epoch": epoch,
            "start_seq": start_seq,
            "packets": count,
            "closed_at": closed_at,
            # The header records the geometry the epoch was cut at —
            # elastic daemons rely on it to detect resize edges.
            "d": d,
            "l": l,
        }
        assert _same_table(loaded, table)
        assert not loaded.values.flags.writeable
        # Fixpoint through a second trip.
        again = dump_epoch(epoch, start_seq, count, closed_at, d, l, loaded)
        assert again == wire

    @given(
        widths=st.lists(st.integers(1, 128), min_size=1, max_size=4),
        rows=st.integers(0, 20),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_key_spec_round_trips(self, widths, rows, seed):
        import numpy as np

        spec = FullKeySpec(Field(f"f{i}", w) for i, w in enumerate(widths))
        rng = np.random.default_rng(seed)
        keys = [int(rng.integers(0, 2**63)) % (1 << spec.width) for _ in range(rows)]
        table = ColumnTable.from_dict(
            {k: float(rng.integers(1, 1000)) for k in keys}, spec
        )
        wire = dump_epoch(1, 2, 3, 4.0, 2, 64, table)
        _, loaded = load_epoch(wire)
        assert _same_table(loaded, table)
        assert loaded.to_dict() == table.to_dict()

    def test_kind_routing_both_directions(self):
        sketch_blob = dump_sketch(BasicCocoSketch(1, 4, seed=0))
        wire = dump_epoch(3, 100, 50, 1.5, 1, 4, ColumnTable.empty(FIVE_TUPLE))
        with pytest.raises(SerializationError, match="use load_epoch"):
            load_sketch(wire)
        with pytest.raises(SerializationError, match="use load_sketch"):
            load_epoch(sketch_blob)

    def test_rejects_non_sketch_payload(self):
        # The payload is a full-key table, never a sketch or its bytes.
        sketch = BasicCocoSketch(1, 4, seed=0)
        for payload in (sketch, dump_sketch(sketch), b"junk"):
            with pytest.raises(SerializationError, match="ColumnTable"):
                dump_epoch(0, 0, 0, 0.0, 1, 4, payload)
        partial = ColumnTable.empty(FIVE_TUPLE.partial("SrcIP"))
        with pytest.raises(SerializationError, match="ColumnTable"):
            dump_epoch(0, 0, 0, 0.0, 1, 4, partial)

    def test_out_of_range_meta_rejected(self):
        table = ColumnTable.empty(FIVE_TUPLE)
        with pytest.raises(SerializationError, match="out of u64"):
            dump_epoch(-1, 0, 0, 0.0, 1, 4, table)
        with pytest.raises(SerializationError, match="out of u64"):
            dump_epoch(0, 0, 1 << 64, 0.0, 1, 4, table)
        with pytest.raises(SerializationError, match="geometry"):
            dump_epoch(0, 0, 0, 0.0, 1 << 16, 4, table)


class TestResizedRoundTrip:
    """A resize fold must leave the codec a fixpoint at the *new* geometry.

    :func:`resize_cocosketch` re-hashes a sketch to a new width, and an
    epoch snapshot's header must report whatever width its builder ran
    at.
    """

    @pytest.mark.parametrize("cls", ALL_SKETCH_CLASSES)
    @given(
        geometry=geometries,
        new_l=st.sampled_from([3, 8, 64]),
        seed=st.integers(0, 2**32),
        packets=packet_lists,
    )
    @settings(max_examples=15, deadline=None)
    def test_resized_dump_load_dump_is_fixpoint(
        self, cls, geometry, new_l, seed, packets
    ):
        d, l = geometry
        sketch = _build(cls, d, l, seed, packets)
        before = sum(sketch.flow_table().values())
        sketch = resize_cocosketch(sketch, new_l, seed=seed + 1)
        assert sketch.l == new_l
        if cls in (BasicCocoSketch, NumpyCocoSketch):
            # The re-hash fold conserves mass under the basic rule;
            # hardware-rule estimates are medians, which a fold may
            # legitimately shift.
            assert sum(sketch.flow_table().values()) == before
        blob = dump_sketch(sketch)
        restored = load_sketch(blob)
        assert type(restored) is type(sketch)
        assert restored.l == new_l
        assert dump_sketch(restored) == blob
        assert restored.flow_table() == sketch.flow_table()

    @given(geometry=geometries, new_l=st.sampled_from([3, 8, 64]),
           packets=packet_lists)
    @settings(max_examples=10, deadline=None)
    def test_epoch_header_tracks_resized_geometry(
        self, geometry, new_l, packets
    ):
        d, _ = geometry
        table = _table(NumpyCocoSketch, d, new_l, packets)
        wire = dump_epoch(7, 1000, len(packets), 3.25, d, new_l, table)
        meta, restored = load_epoch(wire)
        assert (meta["d"], meta["l"]) == (d, new_l)
        assert restored.total == table.total
        again = dump_epoch(7, 1000, len(packets), 3.25, d, new_l, restored)
        assert again == wire


def _valid_epoch_wire():
    packets = [(i * 97 + (i << 90), i + 1) for i in range(40)]
    return dump_epoch(2, 1000, 500, 12.5, 2, 16, _table(BasicCocoSketch, 2, 16, packets))


#: Byte offset of the key spec's first field record.
_SPEC_AT = _HEADER.size + _EPOCH_META.size


class TestEpochCorruptionRejection:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutations_rejected(self, data):
        wire = bytearray(_valid_epoch_wire())
        mutation = data.draw(
            st.sampled_from(
                ["magic", "version", "kind", "sketch_fields", "rows",
                 "field_count", "field_width", "field_name", "key_bits",
                 "truncate", "extend"]
            )
        )
        if mutation == "magic":
            wire[data.draw(st.integers(0, 3))] ^= data.draw(st.integers(1, 255))
        elif mutation == "version":
            struct.pack_into("<H", wire, 4, data.draw(st.integers(2, 0xFFFF)))
        elif mutation == "kind":
            wire[6] = data.draw(
                st.integers(0, 255).filter(lambda k: k != EPOCH_KIND)
            )
        elif mutation == "sketch_fields":
            # key_bytes and the seed count belong to sketch blobs.
            wire[data.draw(st.sampled_from([13, 14, 15]))] = data.draw(
                st.integers(1, 255)
            )
        elif mutation == "rows":
            # The declared row count disagrees with the payload.
            offset = _SPEC_AT - 9
            (declared,) = struct.unpack_from("<Q", wire, offset)
            lie = data.draw(
                st.integers(0, 2**64 - 1).filter(lambda v: v != declared)
            )
            struct.pack_into("<Q", wire, offset, lie)
        elif mutation == "field_count":
            wire[_SPEC_AT - 1] = data.draw(
                st.integers(0, 255).filter(lambda v: v != 5)
            )
        elif mutation == "field_width":
            # SrcIP's 32 bits become a width no field may have.
            wire[_SPEC_AT] = data.draw(
                st.sampled_from([0]) | st.integers(129, 255)
            )
        elif mutation == "field_name":
            # Duplicate a field name ("SrcIP" -> "DstIP"), or break utf-8.
            if data.draw(st.booleans()):
                wire[_SPEC_AT + 2 : _SPEC_AT + 5] = b"Dst"
            else:
                wire[_SPEC_AT + 2] = 0xFF
        elif mutation == "key_bits":
            # A key word with bits above the spec's 104: the last row's
            # high word sits just before the values.
            _, table = load_epoch(bytes(wire))
            at = len(wire) - 8 * len(table) - 8
            wire[at + 7] |= 0x80
        elif mutation == "truncate":
            cut = data.draw(st.integers(1, len(wire) - 1))
            wire = wire[:cut]
        else:
            wire += bytes(data.draw(st.integers(1, 64)))
        with pytest.raises(SerializationError):
            load_epoch(bytes(wire))
