"""Vectorised partial-key projection: ``g(.)`` on word columns.

:meth:`PartialKeySpec.map` walks one python integer at a time; the query
plane needs ``g(.)`` over *columns* of keys.  A :class:`ProjectionPlan`
compiles a partial key once into per-part ``(source bit offset, prefix
length, destination bit offset)`` triples, and :meth:`ProjectionPlan.apply`
executes them as word-level shift/mask/or operations on a ``(W, n)``
uint64 array — bit-identical to the scalar mapping for any field subset
and any bit-prefix truncation, at any key width (IPv4 and IPv6 specs
alike).

The arithmetic: part ``(name, prefix_len)`` of a partial key reads the
top ``prefix_len`` bits of its field — bits starting at
``shift_of(name) + (field.width - prefix_len)`` of the full key — and
lands right-aligned at the destination offset equal to the total width
of the parts after it.  Each read/write crosses at most one word
boundary per word, so the plan is a handful of shifts per part
regardless of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.flowkeys.columns import words_for_width
from repro.flowkeys.key import PartialKeySpec

_U64 = np.uint64


def extract_bits(words: "np.ndarray", start: int, length: int) -> "np.ndarray":
    """Bits ``[start, start+length)`` of each key, right-aligned.

    Returns a ``(ceil(length/64), n)`` uint64 array.
    """
    out_w = words_for_width(length)
    src_w, n = words.shape
    q, r = divmod(start, 64)
    out = np.zeros((out_w, n), dtype=_U64)
    for t in range(out_w):
        src = q + t
        if src >= src_w:
            break
        if r == 0:
            out[t] = words[src]
        else:
            out[t] = words[src] >> _U64(r)
            if src + 1 < src_w:
                out[t] |= words[src + 1] << _U64(64 - r)
    # Mask the top word down to the segment length.
    top_bits = length - 64 * (out_w - 1)
    if top_bits < 64:
        out[out_w - 1] &= _U64((1 << top_bits) - 1)
    return out


def deposit_bits(
    out: "np.ndarray", segment: "np.ndarray", offset: int
) -> None:
    """OR *segment* (right-aligned words) into *out* at bit *offset*.

    Destination regions of a projection never overlap, so OR-ing
    deposits each part independently of plan order.
    """
    q, r = divmod(offset, 64)
    out_w = out.shape[0]
    for t in range(segment.shape[0]):
        idx = q + t
        if idx >= out_w:
            break
        if r == 0:
            out[idx] |= segment[t]
        else:
            out[idx] |= segment[t] << _U64(r)
            if idx + 1 < out_w:
                out[idx + 1] |= segment[t] >> _U64(64 - r)


@dataclass(frozen=True)
class ProjectionPlan:
    """Compiled ``g(.)``: per-part (src_offset, length, dst_offset)."""

    partial: PartialKeySpec
    ops: Tuple[Tuple[int, int, int], ...]
    out_words: int

    @classmethod
    def compile(cls, partial: PartialKeySpec) -> "ProjectionPlan":
        full = partial.full
        ops = []
        dst = partial.width
        for name, prefix_len in partial.parts:
            field = full.field(name)
            dst -= prefix_len
            if prefix_len == 0:
                continue  # zero-width part contributes no bits
            src = full.shift_of(name) + (field.width - prefix_len)
            ops.append((src, prefix_len, dst))
        return cls(partial, tuple(ops), words_for_width(max(1, partial.width)))

    def apply(self, words: "np.ndarray") -> "np.ndarray":
        """Project full-key word columns onto partial-key word columns.

        A one-part plan lands at bit 0 and fills the output exactly,
        so its extracted segment is the answer.
        """
        if len(self.ops) == 1:
            src, length, _dst = self.ops[0]
            return extract_bits(words, src, length)
        n = words.shape[1]
        out = np.zeros((self.out_words, n), dtype=_U64)
        for src, length, dst in self.ops:
            deposit_bits(out, extract_bits(words, src, length), dst)
        return out


def project_words(
    words: "np.ndarray", partial: PartialKeySpec
) -> "np.ndarray":
    """One-shot :class:`ProjectionPlan` compile + apply."""
    return ProjectionPlan.compile(partial).apply(words)
