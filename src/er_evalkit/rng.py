"""Deterministic pseudo-random streams for fixture generation.

The generator is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter
advanced by a fixed odd constant, finalized through an avalanche mix. It is
explicitly specified here, depends only on integer arithmetic, and therefore
produces the same stream on every platform and in any implementation that
follows the same recipe. Named substreams are derived by mixing the master
seed with an FNV-1a hash of the stream label, so independent generation
stages (catalog, queries, matcher noise, click log) never share state.

Draw i of a stream is ``mix(seed + i·γ)``, so a batch of draws needs no
loop over the state: :meth:`SplitMix64.normals` lays the next k counters
out as 128-bit lanes of one Python int and runs the mix once over all of
them. A lane holds its 64-bit word plus room for the full product by a
64-bit constant, so no multiply or shift spills into a neighbour.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANE_BYTES = 16
_BATCH = 512   # uniforms per packed pass (even); bounds the lane constants
_TWO_PI = 2.0 * math.pi


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=4)
def _lanes(k: int) -> tuple[int, int]:
    """For k packed lanes: a 1 in each lane, and lane i's offset ``i·γ``
    (i from 1)."""
    ones = int.from_bytes(b"\x01".ljust(_LANE_BYTES, b"\0") * k, "little")
    offsets = int.from_bytes(b"".join(
        (i * _GAMMA).to_bytes(_LANE_BYTES, "little")
        for i in range(1, k + 1)), "little")
    return ones, offsets


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Split one master seed into an independent per-stream seed."""
    return _mix64((seed & _MASK64) ^ _fnv1a64(label))


class SplitMix64:
    """Seeded stream of uniform 64-bit words plus the derived draws we need."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def _top53(self, k: int) -> tuple[int, ...]:
        """The next k draws, each ``next_u64() >> 11``, mixed all at once."""
        ones, offsets = _lanes(k)
        low = ones * _MASK64
        z = (self._state * ones + offsets) & low
        self._state = (self._state + k * _GAMMA) & _MASK64
        z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
        z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
        z = (z ^ (z >> 31)) >> 11
        words = z.to_bytes(_LANE_BYTES * k, "little")
        return struct.unpack(f"<{2 * k}Q", words)[::2]

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is < n / 2**64."""
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError("randint() requires lo <= hi")
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One normal draw; the same as ``normals(1, mu, sigma)[0]``."""
        return self.normals(1, mu, sigma)[0]

    def normals(self, n: int, mu: float = 0.0,
                sigma: float = 1.0) -> list[float]:
        """n Box-Muller draws, each from the next two uniforms u1, u2:
        ``mu + sigma * sqrt(-2 log(1 - u1)) * cos(2π u2)``."""
        sqrt, log, cos = math.sqrt, math.log, math.cos
        out = []
        for start in range(0, 2 * n, _BATCH):
            pairs = iter(self._top53(min(_BATCH, 2 * n - start)))
            out += [mu + sigma * sqrt(-2.0 * log(1.0 - a * 2.0**-53))
                    * cos(_TWO_PI * (b * 2.0**-53)) for a, b in zip(pairs, pairs)]
        return out
