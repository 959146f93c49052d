"""Basic CocoSketch: stochastic variance minimisation (§4.1).

Data structure: ``d`` arrays of ``l`` (key, value) buckets, one hash
function per array.  Per packet ``(e, w)``:

1. If ``e`` matches the key of any of its ``d`` mapped buckets, add ``w``
   to that bucket's value (variance increment 0, Theorem 2).
2. Otherwise pick the mapped bucket with the smallest value (ties broken
   uniformly at random), add ``w`` to its value, and replace its key
   with ``e`` with probability ``w / V_new`` (Theorem 1).

Empty buckets have value 0, so a new flow landing on an empty bucket is
adopted with probability ``w / w = 1`` — the generic rule needs no
special case.  With ``d`` equal to the total number of buckets and one
shared "hash" this degenerates to Unbiased SpaceSaving; with small ``d``
(2-4) each update costs O(d) instead of O(n) while the size estimate on
any partial key stays unbiased (Lemma 3).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.hashing.family import HashFamily
from repro.obs.replay import (
    PURPOSE_ADOPT,
    PURPOSE_TIEBREAK,
    replay_draw,
    replay_seed,
)
from repro.obs.stats import CocoStats
from repro.sketches.base import (
    COUNTER_BYTES,
    DEFAULT_KEY_BYTES,
    Sketch,
    UpdateCost,
)


class BasicCocoSketch(Sketch):
    """CocoSketch with stochastic variance minimisation over d choices.

    Args:
        d: Number of arrays / hash functions (paper default 2).
        l: Buckets per array.
        seed: Seeds both the hash family and the replacement RNG.
        key_bytes: Per-bucket key width for memory accounting.
        hash_backend: ``"mix64"`` (fast, default) or ``"bob"`` (faithful).
        replay: Draw replacement decisions from the counter-based
            deterministic stream (:mod:`repro.obs.replay`) instead of
            the sequential RNG — same probability law, but bit-exactly
            reproducible across engines (differential tests).
    """

    name = "CocoSketch"

    def __init__(
        self,
        d: int = 2,
        l: int = 1024,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
        hash_backend: str = "mix64",
        replay: bool = False,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        self.d = d
        self.l = l
        self.key_bytes = key_bytes
        self._family = HashFamily(d, seed, backend=hash_backend, key_bytes=key_bytes)
        self._hash = self._family.index_fns(l)
        self._rng = random.Random(seed ^ 0x5EED)
        self._replay = bool(replay)
        self._replay_seed = replay_seed(seed ^ 0x5EED)
        self._seq = 0
        self.stats = CocoStats(d)
        self._keys: List[List[Optional[int]]] = [[None] * l for _ in range(d)]
        self._vals: List[List[int]] = [[0] * l for _ in range(d)]

    @classmethod
    def from_memory(
        cls,
        memory_bytes: int,
        d: int = 2,
        seed: int = 0,
        key_bytes: int = DEFAULT_KEY_BYTES,
        hash_backend: str = "mix64",
    ) -> "BasicCocoSketch":
        """Size the sketch to a data-plane memory budget.

        Each bucket costs ``key_bytes + 4`` bytes (key + 32-bit counter),
        exactly the paper's accounting — CocoSketch keeps no auxiliary
        structures.
        """
        bucket = key_bytes + COUNTER_BYTES
        l = memory_bytes // (d * bucket)
        if l < 1:
            raise ValueError(
                f"memory {memory_bytes}B too small for d={d} "
                f"({d * bucket}B minimum)"
            )
        return cls(d, l, seed, key_bytes, hash_backend)

    def update(self, key: int, size: int = 1) -> None:
        """Insert packet ``(key, size)`` (§4.1 insertion)."""
        stats = self.stats
        stats.packets += 1
        seq = self._seq
        self._seq = seq + 1
        keys = self._keys
        vals = self._vals
        if self._replay:
            self._update_replay(key, size, seq)
            return
        min_i = 0
        min_j = 0
        min_v = None
        ties = 1
        rng = self._rng
        for i in range(self.d):
            j = self._hash[i](key)
            row_keys = keys[i]
            if row_keys[j] == key:
                vals[i][j] += size
                stats.matched += 1
                stats.candidate_scans += i + 1
                return
            v = vals[i][j]
            if min_v is None or v < min_v:
                min_v = v
                min_i = i
                min_j = j
                ties = 1
            elif v == min_v:
                # Reservoir-style uniform tie-break among equal minima.
                ties += 1
                if rng.random() * ties < 1.0:
                    min_i = i
                    min_j = j
        stats.candidate_scans += self.d
        new_v = min_v + size
        vals[min_i][min_j] = new_v
        if rng.random() * new_v < size:
            if keys[min_i][min_j] is not None:
                stats.evictions[min_i] += 1
            keys[min_i][min_j] = key
            stats.replacements += 1
        else:
            stats.rejects += 1

    def _update_replay(self, key: int, size: int, seq: int) -> None:
        """Replay-mode insertion: same law, deterministic draws.

        The tie-break picks the k-th minimum-value candidate (array
        order) with one uniform draw — the same distribution as the
        default reservoir walk, phrased to consume exactly the draws
        the vectorised engine consumes so both resolve identically
        under :mod:`repro.obs.replay`.
        """
        stats = self.stats
        keys = self._keys
        vals = self._vals
        js = [self._hash[i](key) for i in range(self.d)]
        for i, j in enumerate(js):
            if keys[i][j] == key:
                vals[i][j] += size
                stats.matched += 1
                stats.candidate_scans += i + 1
                return
        stats.candidate_scans += self.d
        values = [vals[i][js[i]] for i in range(self.d)]
        min_v = min(values)
        tied = [i for i, v in enumerate(values) if v == min_v]
        rs = self._replay_seed
        k = int(replay_draw(rs, seq, PURPOSE_TIEBREAK) * len(tied))
        if k >= len(tied):
            k = len(tied) - 1
        min_i = tied[k]
        min_j = js[min_i]
        new_v = min_v + size
        vals[min_i][min_j] = new_v
        if replay_draw(rs, seq, PURPOSE_ADOPT) * new_v < size:
            if keys[min_i][min_j] is not None:
                stats.evictions[min_i] += 1
            keys[min_i][min_j] = key
            stats.replacements += 1
        else:
            stats.rejects += 1

    def query(self, key: int) -> float:
        """Estimated size: sum of values of mapped buckets holding *key*.

        A flow normally occupies at most one bucket; after an eviction
        and re-adoption it can transiently appear in two, in which case
        both bucket counters carry part of its (unbiased) estimate.
        """
        total = 0
        for i in range(self.d):
            j = self._hash[i](key)
            if self._keys[i][j] == key:
                total += self._vals[i][j]
        return float(total)

    def flow_table(self) -> Dict[int, float]:
        """(FullKey, Size) table over all recorded keys (§4.3 Step 3)."""
        table: Dict[int, float] = {}
        for i in range(self.d):
            row_keys = self._keys[i]
            row_vals = self._vals[i]
            for j in range(self.l):
                k = row_keys[j]
                if k is not None:
                    table[k] = table.get(k, 0.0) + row_vals[j]
        return table

    def memory_bytes(self) -> int:
        return self.d * self.l * (self.key_bytes + COUNTER_BYTES)

    def update_cost(self) -> UpdateCost:
        """O(d): d hashes, d bucket reads, one value+key write, one draw."""
        return UpdateCost(
            hashes=self.d, reads=self.d, writes=2, random_draws=2
        )

    def reset(self) -> None:
        for i in range(self.d):
            self._keys[i] = [None] * self.l
            self._vals[i] = [0] * self.l
        self._seq = 0
        self.stats.reset()

    def occupancy(self) -> float:
        """Fraction of buckets holding a key (diagnostics)."""
        filled = sum(
            1 for row in self._keys for k in row if k is not None
        )
        return filled / (self.d * self.l)
