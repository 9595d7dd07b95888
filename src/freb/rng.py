"""Pinned deterministic random number generator.

Every perturbation draws randomness from this generator so that a
(seed, instance id, perturbation kind) triple fully determines the output on
any platform and Python version.  The algorithm is fixed and documented here;
do not swap it for ``random.Random`` (whose shuffle/choice internals are not
part of the language spec).

Generator: xorshift64* (Marsaglia xorshift with a finalizing multiply).
Seeding recipe: one round of splitmix64 over the user seed, so that small
consecutive seeds produce uncorrelated streams and the all-zero state is
unreachable.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """xorshift64* stream seeded via splitmix64."""

    def __init__(self, seed: int):
        self.seed = seed
        state = _splitmix64(seed & _MASK64)
        # xorshift needs a non-zero state; splitmix64 maps exactly one input
        # to zero, remap it to the gamma constant.
        self._state = state if state != 0 else _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def random(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, start: int, stop: int | None = None) -> int:
        """Uniform integer in [start, stop), unbiased via rejection sampling."""
        if stop is None:
            start, stop = 0, start
        n = stop - start
        if n <= 0:
            raise ValueError(f"empty range [{start}, {stop})")
        # Largest multiple of n that fits in 64 bits; reject draws above it.
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return start + (u % n)

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        return self.randrange(a, b + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> list[int]:
        """In-place Fisher-Yates shuffle; returns the permutation applied.

        ``perm[i]`` is the original index of the element now at position i,
        which is enough to replay the shuffle without the generator.
        """
        perm = list(range(len(items)))
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def derive_seed(global_seed: int, instance_id: str, kind: str) -> int:
    """Stable 64-bit seed for one (global seed, instance, perturbation) cell.

    SHA-256 based so the value does not depend on Python's randomized string
    hashing, process order, or platform word size.
    """
    key = f"{global_seed}|{instance_id}|{kind}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def derive_rng(global_seed: int, instance_id: str, kind: str) -> Rng:
    return Rng(derive_seed(global_seed, instance_id, kind))
