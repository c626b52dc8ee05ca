"""Deterministic random streams keyed by (seed, site) or (seed, trial).

Every Monte Carlo quantity in this package is a pure function of its seed:
every subcommand draws from streams derived from a trial index, one per MC
trial or disorder realisation.  Per-site streams, derived from the site
coordinates, key only the site-keyed configurations that the tests draw as
an oracle.  Results are therefore independent of evaluation order and of
how work is distributed over threads.
Seeds and site coordinates lie in [-2**63, 2**63), trial indices in [0, 2**64).
Each stream is ``default_rng(SeedSequence(words))`` bit for bit; its faster
SeedSequence class is made on the first key, so importing this loads no ``numpy.random``.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["site_stream", "trial_stream"]


def zigzag(n: int) -> int:
    """Map an integer to a non-negative integer, injectively (0,-1,1,-2,2 -> 0,1,2,3,4)."""
    return 2 * n if n >= 0 else -2 * n - 1


@functools.cache
def _pool_seed_sequence() -> type:
    """SeedSequence whose generate_state(4, uint64), the one request PCG64 makes, hashes the pool as one array.

    Word i of eight is (pool[i % 4] ^ X_i) * X_{i+1} mod 2**32, xor-shifted right by 16, X_i = INIT_B * MULT_B**i
    mod 2**32: numpy's loop on all words at once, paired into uint64 as numpy does; other requests go to that loop.
    """
    init_b, mult_b = 0x8B51F9DD, 0x58F38DED  # INIT_B, MULT_B of numpy's bit_generator.pyx
    x = np.array([init_b * pow(mult_b, i, 1 << 32) % (1 << 32) for i in range(9)], dtype=np.uint32)
    xor, mult = x[:8].reshape(2, 4), x[1:].reshape(2, 4)  # row r holds words 4r..4r+3
    shift, pairs = np.array(16, dtype=np.uint32), np.dtype("<u8")  # a 0-d array shifts faster than the int 16

    class PoolSeedSequence(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64 or self.pool_size != 4:
                return super().generate_state(n_words, dtype)
            v = self.pool ^ xor
            v *= mult
            v ^= v >> shift
            return v.astype("<u4", copy=False).view(pairs).astype(np.uint64, copy=False).ravel()

    PoolSeedSequence.__qualname__ = "PoolSeedSequence"  # pickle finds it as rng.PoolSeedSequence
    return PoolSeedSequence


def __getattr__(name: str):
    if name == "PoolSeedSequence":
        return _pool_seed_sequence()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _keyed(values: list[int], seed, name: str, key) -> np.random.Generator:
    """Generator seeded with the uint32 words SeedSequence would assemble from np.uint64(values).

    Each value in [0, 2**64) gives its low 32-bit word, then its high word when that is non-zero.
    """
    words = []
    for v in values:
        if not 0 <= v < 1 << 64:
            raise ValueError(f"stream key (seed={seed}, {name}={key}) is outside the 64-bit range: seeds and "
                             f"site coordinates must lie in [-2**63, 2**63), trial indices in [0, 2**64)")
        words.append(v & 0xFFFFFFFF)
        if v >> 32:
            words.append(v >> 32)
    return np.random.Generator(np.random.PCG64(_pool_seed_sequence()(np.array(words, dtype=np.uint32))))


def site_stream(seed: int, site: tuple[int, ...]) -> np.random.Generator:
    """Generator keyed by (seed, site); identical arguments give identical streams."""
    # leading 0 tags site streams, keeping them disjoint from trial streams
    return _keyed([zigzag(int(seed)), 0, len(site), *(zigzag(int(c)) for c in site)], seed, "site", site)


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Generator keyed by (seed, trial index), for independent MC trials."""
    # the constant 1 tags trial streams so they never collide with site streams
    return _keyed([zigzag(int(seed)), 1, int(trial)], seed, "trial", trial)
