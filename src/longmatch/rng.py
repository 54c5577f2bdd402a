"""Deterministic 64-bit integer PRNG primitives.

Sampling decisions that must be bit-identical across platforms and runs
(impostor probe selection, CV fold assignment, residual subsampling) are
driven by SplitMix64 rather than a float-based generator: the algorithm is
defined purely on 64-bit integer arithmetic and has a published reference
implementation, so a seed pins the output everywhere.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream (Steele, Lea & Flood; Vigna's reference constants)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection of the modulo tail."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    """Draw k of range(n) without replacement, in selection order.

    Virtual partial Fisher-Yates over the identity array: only touched
    positions are materialized, so pools can be large while k stays small.
    A (n, k, seed) triple fully determines the result.
    """
    if k > n:
        raise ValueError("cannot sample more items than the pool holds")
    rng = SplitMix64(seed)
    moved: dict[int, int] = {}
    out = []
    for i in range(k):
        j = i + rng.below(n - i)
        out.append(moved.get(j, j))
        # position i is never revisited; park its current value at j
        moved[j] = moved.get(i, i)
    return out


def shuffled(items: list, seed: int) -> list:
    """Full Fisher-Yates shuffle of a copy of items, driven by SplitMix64."""
    rng = SplitMix64(seed)
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out
