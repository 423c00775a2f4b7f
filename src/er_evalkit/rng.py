"""Deterministic pseudo-random streams for fixture generation.

The generator is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter
advanced by a fixed odd constant, finalized through an avalanche mix. It is
explicitly specified here, depends only on integer arithmetic, and therefore
produces the same stream on every platform and in any implementation that
follows the same recipe. Named substreams are derived by mixing the master
seed with an FNV-1a hash of the stream label, so independent generation
stages (catalog, queries, matcher noise, click log) never share state.

Draw i of a stream is ``mix(seed + i·γ)``, so a batch of draws needs no
loop over the state: :meth:`SplitMix64.uniforms` and
:meth:`SplitMix64.polar` lay the next counters out as 128-bit lanes of one
Python int and run the mix once over all of them. A lane holds its 64-bit
word plus room for the full product by a 64-bit constant, so no multiply
or shift spills into a neighbour.

A normal draw is Box-Muller's, from the next two uniforms u1, u2, in two
parts: the radius ``r = sigma * sqrt(-2 log(1 - u1))`` and the draw
``mu + r * cos(2π u2)``. :class:`Polar` mixes only the pairs' first
uniforms up front; it computes a radius, or completes a draw by reading its
u2 by counter, only when asked. Since |cos| <= 1 and rounding is monotone,
a draw never exceeds ``mu + r``, so a caller can rule a draw out by its
radius alone, and the largest u1 bounds every radius of a batch.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from typing import Iterable, Sequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANE_BYTES = 16
_BATCH = 512   # lanes per packed pass; bounds the lane constants
_TWO_PI = 2.0 * math.pi
# The largest radius of a unit draw, as Polar.radii computes it: the
# largest first uniform, (2**53 - 1) * 2**-53, leaves 1 - u1 = 2**-53.
MAX_RADIUS = math.sqrt(-2.0 * math.log(1.0 - (2**53 - 1) * 2.0**-53))


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=8)
def _lanes(k: int, stride: int) -> tuple[int, int, int]:
    """For k packed lanes: a 1 in each lane, each lane's 64-bit mask, and
    lane i's offset ``(1 + i·stride)·γ`` (i from 0)."""
    ones = int.from_bytes(b"\x01".ljust(_LANE_BYTES, b"\0") * k, "little")
    offsets = int.from_bytes(b"".join(
        ((1 + i * stride) * _GAMMA).to_bytes(_LANE_BYTES, "little")
        for i in range(k)), "little")
    return ones, ones * _MASK64, offsets


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

    def _top53(self, n: int, stride: int = 1) -> tuple[int, ...]:
        """Every stride-th of the next ``n·stride`` draws, from the first,
        each ``next_u64() >> 11``, mixed _BATCH at a time."""
        out = ()
        for done in range(0, n, _BATCH):
            k = min(_BATCH, n - done)
            ones, low, offsets = _lanes(k, stride)
            z = (self._state * ones + offsets) & low
            self._state = (self._state + k * stride * _GAMMA) & _MASK64
            z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
            z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
            z = (z ^ (z >> 31)) >> 11
            words = z.to_bytes(_LANE_BYTES * k, "little")
            out += struct.unpack(f"<{2 * k}Q", words)[::2]
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> list[float]:
        """The next n ``random()`` draws."""
        return [a * 2.0**-53 for a in self._top53(n)]

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
        """The next n normal draws, all completed."""
        return self.polar(n, sigma).draws(range(n), mu)

    def polar(self, n: int, sigma: float = 1.0) -> Polar:
        """The next n normal draws, each completed on demand. The stream
        moves past all 2n uniforms now, mixing only the pairs' first."""
        start = self._state
        return Polar(start, self._top53(n, 2), sigma)


class Polar:
    """n Box-Muller draws from the stream state ``start``. Draw j takes
    uniforms 2j + 1 and 2j + 2 after it; ``firsts[j]`` is the first, as
    its 53-bit integer."""

    __slots__ = ("_start", "_firsts", "_sigma")

    def __init__(self, start: int, firsts: tuple[int, ...], sigma: float):
        self._start, self._firsts, self._sigma = start, firsts, sigma

    def radii(self, indices: Iterable[int]) -> list[float]:
        """The radius ``sigma * sqrt(-2 log(1 - u1))`` of each draw j."""
        sigma, firsts, sqrt, log = (self._sigma, self._firsts, math.sqrt,
                                    math.log)
        return [sigma * sqrt(-2.0 * log(1.0 - firsts[j] * 2.0**-53))
                for j in indices]

    def radius_bound(self) -> float:
        """At least every radius. The radius grows with u1, and the
        largest u1's is widened by a relative 2**-32, far more than libm's
        rounding of log can take back."""
        firsts = self._firsts
        if not firsts:
            return 0.0
        return self.radii([firsts.index(max(firsts))])[0] * (1.0 + 2.0**-32)

    def draws(self, indices: Sequence[int], mu: float = 0.0) -> list[float]:
        """The draw ``mu + radius * cos(2π u2)`` of each j of indices."""
        start, cos = self._start, math.cos
        return [mu + r * cos(_TWO_PI * (
            (_mix64((start + (2 * j + 2) * _GAMMA) & _MASK64) >> 11)
            * 2.0**-53)) for j, r in zip(indices, self.radii(indices))]
