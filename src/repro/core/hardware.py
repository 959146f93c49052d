"""Hardware-friendly CocoSketch: circular dependencies removed (§4.2).

Two changes versus :class:`~repro.core.cocosketch.BasicCocoSketch`:

* **Across buckets** — the d mapped buckets are updated independently,
  each running stochastic variance minimisation as if ``d = 1``: always
  add ``w`` to the bucket's value, then replace its key with probability
  ``w / V_new``.  No cross-array comparison, so each array fits one
  unidirectional pipeline.
* **Within a bucket** — the value update no longer depends on the key
  (Theorem 1 with d = 1 increments the value regardless of a key match),
  so key and value live in separate pipeline stages.

Queries take the **median** of the d per-array estimates (a flow absent
from an array estimates 0 there); for even d the median is the mean of
the two middle values, which keeps the d = 2 default unbiased.

:class:`P4CocoSketch` additionally routes the replacement probability
through the Tofino math unit's approximate division (§6.2), reproducing
the P4 build's exact decision distribution.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.hashing.family import HashFamily
from repro.hwsim.approx_div import approx_reciprocal_probability
from repro.obs.replay import replay_draw, replay_seed
from repro.obs.stats import CocoStats
from repro.sketches.base import (
    COUNTER_BYTES,
    DEFAULT_KEY_BYTES,
    Sketch,
    UpdateCost,
)
from repro._util import median


class HardwareCocoSketch(Sketch):
    """CocoSketch with per-array independent updates and median query.

    Args:
        d: Number of independent arrays (does not affect hardware
            throughput — arrays run in parallel; it trades worst-case
            vs. typical error, Fig 17(b)).
        l: Buckets per array.
        seed: Seeds hashes and the replacement RNG.
        replay: Counter-based deterministic draws with the rule's
            *unconditional* form (a draw on every array, same-key wins
            being no-ops) — the exact decision structure the vectorised
            engine schedules, so state and counters are bit-identical
            across engines at any batch size.
    """

    name = "CocoSketch-HW"

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
        self._rng = random.Random(seed ^ 0xFACADE)
        self._replay = bool(replay)
        self._replay_seed = replay_seed(seed ^ 0xFACADE)
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
    ) -> "HardwareCocoSketch":
        """Size to a memory budget; bucket = key + 32-bit counter."""
        bucket = key_bytes + COUNTER_BYTES
        l = memory_bytes // (d * bucket)
        if l < 1:
            raise ValueError(
                f"memory {memory_bytes}B too small for d={d} "
                f"({d * bucket}B minimum)"
            )
        return cls(d, l, seed, key_bytes, hash_backend)

    def _replace_probability(self, size: int, new_value: int) -> float:
        """Target probability w / V_new (overridden by the P4 variant)."""
        return size / new_value

    def _replace_decision(self, u: float, size: int, new_value: int) -> bool:
        """Replay-mode win predicate; multiplicative form matches the
        vectorised engine's ``u * V_new < w`` bit for bit (the P4
        variant overrides this through its approximate division)."""
        return u * new_value < size

    def update(self, key: int, size: int = 1) -> None:
        """Independent d = 1 update in every array (§4.2 insertion)."""
        stats = self.stats
        stats.packets += 1
        stats.candidate_scans += self.d
        seq = self._seq
        self._seq = seq + 1
        if self._replay:
            # Unconditional form: one draw per array keyed on (packet,
            # array); a same-key win rewrites the key in place (no-op).
            rs = self._replay_seed
            for i in range(self.d):
                j = self._hash[i](key)
                vals_i = self._vals[i]
                new_v = vals_i[j] + size
                vals_i[j] = new_v
                keys_i = self._keys[i]
                u = replay_draw(rs, seq, i)
                if self._replace_decision(u, size, new_v):
                    prev = keys_i[j]
                    if prev is not None and prev != key:
                        stats.evictions[i] += 1
                    keys_i[j] = key
                    stats.replacements += 1
                else:
                    stats.rejects += 1
            return
        rng = self._rng
        for i in range(self.d):
            j = self._hash[i](key)
            vals_i = self._vals[i]
            new_v = vals_i[j] + size
            vals_i[j] = new_v
            keys_i = self._keys[i]
            if keys_i[j] != key:
                # Replacing an identical key would be a no-op, so the
                # draw is skipped; the decision distribution matches the
                # unconditional hardware rule exactly.
                if rng.random() < self._replace_probability(size, new_v):
                    if keys_i[j] is not None:
                        stats.evictions[i] += 1
                    keys_i[j] = key
                    stats.replacements += 1
                else:
                    stats.rejects += 1
            else:
                stats.matched += 1

    def array_estimate(self, i: int, key: int) -> float:
        """Per-array unbiased estimator: value if the key is held, else 0."""
        j = self._hash[i](key)
        if self._keys[i][j] == key:
            return float(self._vals[i][j])
        return 0.0

    def query(self, key: int) -> float:
        """Median of the d per-array estimates (§4.3)."""
        return median([self.array_estimate(i, key) for i in range(self.d)])

    def flow_table(self) -> Dict[int, float]:
        """(FullKey, Size) table: median estimate per recorded key."""
        recorded = set()
        for row in self._keys:
            recorded.update(k for k in row if k is not None)
        return {k: self.query(k) for k in recorded}

    def memory_bytes(self) -> int:
        return self.d * self.l * (self.key_bytes + COUNTER_BYTES)

    def update_cost(self) -> UpdateCost:
        """Sequential-equivalent cost; arrays run in parallel on HW."""
        return UpdateCost(
            hashes=self.d, reads=self.d, writes=2 * self.d, random_draws=self.d
        )

    def reset(self) -> None:
        for i in range(self.d):
            self._keys[i] = [None] * self.l
            self._vals[i] = [0] * self.l
        self._seq = 0
        self.stats.reset()


class P4CocoSketch(HardwareCocoSketch):
    """Tofino variant: replacement probability via approximate division.

    Identical to :class:`HardwareCocoSketch` except the replacement
    probability ``w / V`` is realised as
    ``rand32 < w * (2**32 ~/ V)`` with ``~/`` the math unit's
    top-4-significant-bit approximate division — the exact data-plane
    decision rule of the paper's P4 build (§6.2).  ``mantissa_bits``
    widens/narrows the modelled math unit for ablation studies.
    """

    name = "CocoSketch-P4"

    def __init__(self, *args, mantissa_bits: int = 4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mantissa_bits = mantissa_bits

    def _replace_probability(self, size: int, new_value: int) -> float:
        return approx_reciprocal_probability(
            size, new_value, self.mantissa_bits
        )

    def _replace_decision(self, u: float, size: int, new_value: int) -> bool:
        """Replay mode keeps the math-unit's approximate probability."""
        return u < self._replace_probability(size, new_value)
