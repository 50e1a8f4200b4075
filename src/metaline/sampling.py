"""Deterministic pseudo-random rational sampling.

A fixed 64-bit linear-congruential sequence (Knuth's MMIX multiplier)
drives every sampled input in the package.  States are mixed with a
CRC32 of a stream name, so independent checks draw from independent
streams and filtering one check never shifts another's samples.
Rationals have numerator and denominator bounded by 97.
"""

from __future__ import annotations

import zlib
from math import lcm

from .scalars import Q

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1

NUMERATOR_BOUND = 97
DENOMINATOR_BOUND = 97


class RationalSampler:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self.state = (self.seed ^ 0x9E3779B97F4A7C15) & _MASK
        self._step()
        self._step()

    def _step(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state >> 33

    def derive(self, name: str) -> "RationalSampler":
        """Independent stream for a named check, same base seed."""
        return RationalSampler(self.seed ^ (zlib.crc32(name.encode()) << 17))

    def integer(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self._step() % bound

    def _draw(self):
        num = self.integer(2 * NUMERATOR_BOUND + 1) - NUMERATOR_BOUND
        return num, self.integer(DENOMINATOR_BOUND) + 1

    def rational(self):
        return Q(*self._draw())

    def nonzero_rational(self):
        while True:
            value = self.rational()
            if value != 0:
                return value

    def vector(self, length: int):
        return tuple(self.rational() for _ in range(length))

    def integers(self, length: int):
        """vector(length) from the same draws, as (ints, den): ints[k] / den."""
        draws = [self._draw() for _ in range(length)]
        den = lcm(*(d for _, d in draws))
        return [n * (den // d) for n, d in draws], den

    def nonzero_vector(self, length: int):
        while True:
            vec = self.vector(length)
            if any(x != 0 for x in vec):
                return vec

    def distinct_rationals(self, count: int):
        seen = []
        while len(seen) < count:
            value = self.rational()
            if value not in seen:
                seen.append(value)
        return tuple(seen)
