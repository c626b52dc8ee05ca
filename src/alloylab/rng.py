"""Deterministic random streams keyed by (seed, site) or (seed, trial).

Every Monte Carlo quantity in this package is a pure function of its seed:
per-site draws use a stream derived from the site coordinates, per-trial
draws use a stream derived from the trial index.  Results are therefore
independent of evaluation order and of how work is distributed over threads.
Seeds and site coordinates lie in [-2**63, 2**63), trial indices in [0, 2**64).
"""

from __future__ import annotations

import numpy as np

__all__ = ["site_stream", "trial_stream"]


def zigzag(n: int) -> int:
    """Map an integer to a non-negative integer, injectively (0,-1,1,-2,2 -> 0,1,2,3,4)."""
    return 2 * n if n >= 0 else -2 * n - 1


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
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def site_stream(seed: int, site: tuple[int, ...]) -> np.random.Generator:
    """Generator keyed by (seed, site); identical arguments give identical streams."""
    # leading 0 tags site streams, keeping them disjoint from trial streams
    return _keyed([zigzag(int(seed)), 0, len(site), *(zigzag(int(c)) for c in site)], seed, "site", site)


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Generator keyed by (seed, trial index), for independent MC trials."""
    # the constant 1 tags trial streams so they never collide with site streams
    return _keyed([zigzag(int(seed)), 1, int(trial)], seed, "trial", trial)
