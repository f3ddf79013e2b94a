"""Deterministic 64-bit PRNG for reproducible instance generation.

SplitMix64, specified exactly so any implementation can regenerate the
same instances from (kind, seed):

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

The stream for a named kind starts from state = seed XOR fnv1a64(kind),
where fnv1a64 is the 64-bit FNV-1a hash of the kind's ASCII bytes.
Bounded draws use rejection sampling so every value in range is equally
likely and the stream stays reproducible.  ``below(n)`` reads
k = max(1, ceil(bitlength(n - 1) / 64)) outputs as one k*64-bit integer,
most significant output first, accepts it below the largest multiple of n
that fits in k*64 bits and returns it mod n; otherwise it draws again.
Every n <= 2^64 takes one output per draw.
"""

from __future__ import annotations

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# Largest denominator of a random rational (capped by the bounds).
DEN_MAX = 8


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("ascii"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    @staticmethod
    def for_kind(kind: str, seed: int) -> "SplitMix64":
        return SplitMix64((seed & _MASK) ^ fnv1a64(kind))

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection on k*64-bit draws.

        Every n <= 2^64 has k = 1 and takes one output per attempt, with
        no bit length, word loop or ``range`` to set up.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n <= _SPAN:
            limit = _SPAN - _SPAN % n
            while True:
                v = self.next_u64()
                if v < limit:
                    return v % n
        words = ((n - 1).bit_length() + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            v = self.next_u64()
            for _ in range(words - 1):
                v = (v << 64) | self.next_u64()
            if v < limit:
                return v % n

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def fraction_pair(self, bounds: int) -> tuple[int, int]:
        """Random rational as an unreduced (num, den): numerator in
        [-bounds, bounds], then denominator in [1, min(DEN_MAX, bounds)]."""
        num = self.int_between(-bounds, bounds)
        return num, self.int_between(1, min(DEN_MAX, bounds))
