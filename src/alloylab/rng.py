"""Deterministic random streams keyed by (seed, site) or (seed, trial).

Every Monte Carlo quantity in this package is a pure function of its seed:
every subcommand draws from streams derived from a trial index, one per MC
trial or disorder realisation.  Per-site streams, derived from the site
coordinates, key only the site-keyed configurations that the tests draw as
an oracle.  Results are therefore independent of evaluation order and of
how work is distributed over threads.
Seeds, site coordinates and trial indices are integers (``operator.index``): seeds and site coordinates in
[-2**63, 2**63), trial indices in [0, 2**64).  Each stream is ``default_rng(SeedSequence(words))`` bit for bit; a seed's
words are derived once, and the faster SeedSequence class on the first key, so importing this loads no numpy.random.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = ["site_stream", "trial_stream"]


def zigzag(n: int) -> int:
    """Map an integer to a non-negative integer, injectively (0,-1,1,-2,2 -> 0,1,2,3,4)."""
    return 2 * n if n >= 0 else -2 * n - 1


@functools.cache
def _pool_seed_sequence() -> type:
    """SeedSequence whose generate_state(4, uint64), the one request PCG64 makes, hashes the pool in Python ints.

    Word i of eight is (pool[i % 4] ^ X_i) * X_{i+1} mod 2**32, xor-shifted right by 16, X_i = INIT_B * MULT_B**i mod
    2**32: numpy's loop, unrolled, with word i at bits 32i of one 256-bit int whose eight words are xor-shifted at
    once; its 32 little-endian bytes are the four uint64, word 2j the low and word 2j + 1 the high half of uint64 j.
    """
    init_b, mult_b = 0x8B51F9DD, 0x58F38DED  # INIT_B, MULT_B of numpy's bit_generator.pyx
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = (init_b * pow(mult_b, i, 1 << 32) % (1 << 32) for i in range(9))
    m, low_halves = 0xFFFFFFFF, int("0000FFFF" * 8, 16)

    class PoolSeedSequence(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes np.uint64 itself: the identity test skips np.dtype on every key
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64) or self.pool_size != 4:
                return super().generate_state(n_words, dtype)
            p0, p1, p2, p3 = self.pool.tolist()
            v = ((p0 ^ x0) * x1 & m | ((p1 ^ x1) * x2 & m) << 32 | ((p2 ^ x2) * x3 & m) << 64
                 | ((p3 ^ x3) * x4 & m) << 96 | ((p0 ^ x4) * x5 & m) << 128 | ((p1 ^ x5) * x6 & m) << 160
                 | ((p2 ^ x6) * x7 & m) << 192 | ((p3 ^ x7) * x8 & m) << 224)
            return np.frombuffer(bytearray((v ^ v >> 16 & low_halves).to_bytes(32, "little")), "<u8")

    PoolSeedSequence.__qualname__ = "PoolSeedSequence"  # pickle finds it as rng.PoolSeedSequence
    return PoolSeedSequence


def __getattr__(name: str):
    if name == "PoolSeedSequence":
        return _pool_seed_sequence()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _words(v: int) -> tuple[int, ...]:
    """np.uint64(v)'s uint32 words as SeedSequence assembles them: the low word, then the high one when non-zero."""
    if not 0 <= v < 1 << 64:
        raise OverflowError  # the stream names the key
    return (v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,)


@functools.lru_cache(maxsize=64)
def _seed_words(seed: int) -> tuple[int, ...]:  # an estimator keys all its trials with one seed
    return _words(zigzag(seed))


def _refused(error: Exception, seed, name: str, key) -> ValueError:
    """The ValueError for a key that is not an integer (TypeError) or lies outside the 64-bit range (OverflowError)."""
    why = ("must consist of integers" if isinstance(error, TypeError) else "is outside the 64-bit range: seeds and "
           "site coordinates must lie in [-2**63, 2**63), trial indices in [0, 2**64)")
    return ValueError(f"stream key (seed={seed!r}, {name}={key!r}) {why}")


def site_stream(seed: int, site: tuple[int, ...]) -> np.random.Generator:
    """Generator keyed by (seed, site); identical arguments give identical streams."""
    try:  # leading 0 tags site streams, keeping them disjoint from trial streams
        words = [*_seed_words(operator.index(seed)), 0, len(site),
                 *(w for c in site for w in _words(zigzag(operator.index(c))))]
    except (TypeError, OverflowError) as error:
        raise _refused(error, seed, "site", site) from None
    return np.random.Generator(np.random.PCG64(_pool_seed_sequence()(np.array(words, dtype=np.uint32))))


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Generator keyed by (seed, trial index), for independent MC trials."""
    try:  # the constant 1 tags trial streams so they never collide with site streams
        words = [*_seed_words(operator.index(seed)), 1, *_words(operator.index(trial))]
    except (TypeError, OverflowError) as error:
        raise _refused(error, seed, "trial", trial) from None
    return np.random.Generator(np.random.PCG64(_pool_seed_sequence()(np.array(words, dtype=np.uint32))))
