"""Deterministic random streams keyed by (seed, site) or (seed, trial).

Every Monte Carlo quantity in this package is a pure function of its seed:
every subcommand draws from streams derived from a trial index, one per MC
trial or disorder realisation.  Per-site streams, derived from the site
coordinates, key only the site-keyed configurations that the tests draw as
an oracle.  Results are therefore independent of evaluation order and of
how work is distributed over threads.
Seeds, site coordinates and trial indices are integers (``operator.index``): seeds and site coordinates in
[-2**63, 2**63), trial indices in [0, 2**64).  Each stream is ``default_rng(SeedSequence(words))`` bit for bit.
Trials 2 and up read their PCG64 state from a block that hashes 256 trials of one seed in one numpy pass;
``numpy.random`` loads on the first key, not on import.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = ["site_stream", "trial_stream"]

BLOCK = 256  # trials per hashed block; it divides 2**32, so a block's trials all have the same number of words


def zigzag(n: int) -> int:
    """Map an integer to a non-negative integer, injectively (0,-1,1,-2,2 -> 0,1,2,3,4)."""
    return 2 * n if n >= 0 else -2 * n - 1


def _words(v: int) -> tuple[int, ...]:
    """np.uint64(v)'s uint32 words as SeedSequence assembles them: the low word, then the high one when non-zero."""
    if not 0 <= v < 1 << 64:
        raise OverflowError  # the stream names the key
    return (v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,)


@functools.lru_cache(maxsize=64)
def _seed_words(seed: int) -> tuple[int, ...]:  # an estimator keys all its trials with one seed
    return _words(zigzag(seed))


def _trial_words(seed: int, trial: int) -> tuple[int, ...]:
    """The entropy words of trial stream (seed, trial); the tag 1 keeps trial streams apart from site streams."""
    return (*_seed_words(seed), 1, *_words(trial))


def _refused(error: Exception, seed, name: str, key) -> ValueError:
    """The ValueError for a key that is not an integer (TypeError) or lies outside the 64-bit range (OverflowError)."""
    why = ("must consist of integers" if isinstance(error, TypeError) else "is outside the 64-bit range: seeds and "
           "site coordinates must lie in [-2**63, 2**63), trial indices in [0, 2**64)")
    return ValueError(f"stream key (seed={seed!r}, {name}={key!r}) {why}")


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n, as an (n, 1) column: the successive hash constants of SeedSequence."""
    return np.array([[init * pow(mult, k, 1 << 32) % (1 << 32)] for k in range(n)], dtype=np.uint32)


# INIT_A, MULT_A (pool mixing) and INIT_B, MULT_B (generate_state) of numpy's bit_generator.pyx
_A, _B = _powers(0x43B0D7E5, 0x931E8875, 21), _powers(0x8B51F9DD, 0x58F38DED, 9)
_OTHERS = [[lane for lane in range(4) if lane != src] for src in range(4)]


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ v >> 16


def _hash(v: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """numpy's hashmix: (v ^ c_k) * c_{k+1}, xor-shifted, with one constant pair per output row."""
    return _xorshift((v ^ constants[:-1]) * constants[1:])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(0xCA01F9DD * x - 0x4973F715 * y)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` of each column of a (4 or 5, keys) uint32 array.

    A key of fewer than 4 words is padded with zeros, which SeedSequence hashes in their place.  numpy's pool
    mixing with its 4-word pool, vectorised over the keys and the pool lanes: the first four words hashed, 12
    cross-mixes (each lane into the other three), a fifth word mixed into every lane; then the eight state words,
    the pool cycled twice, read as four little-endian uint64 per key.
    """
    pool = _hash(entropy[:4], _A[:5])
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hash(pool[src], _A[4 + 3 * src:8 + 3 * src]))
    if len(entropy) == 5:
        pool = _mix(pool, _hash(entropy[4], _A[16:21]))
    return _hash(np.tile(pool, (2, 1)), _B).T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=4)  # an estimator walks its trials in order; a block is 8 KB
def _state_block(seed: int, block: int) -> np.ndarray:
    """The read-only (BLOCK, 4) PCG64 seed states of trials BLOCK * block + r of ``seed``, r < BLOCK."""
    words = _trial_words(seed, block * BLOCK)
    entropy = np.zeros((max(4, len(words)), BLOCK), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(_seed_words(seed)) + 1] += np.arange(BLOCK, dtype=np.uint32)  # the trials' low words
    states = _seed_states(entropy)
    states.flags.writeable = False
    return states


class _TrialSeed:
    """The seed sequence of the trial stream (seed, trial), as numpy's ISeedSequence.

    It serves the one request PCG64 makes, ``generate_state(4, np.uint64)``, from the trial's row of its seed's
    block, and passes trials 0 and 1 and any other request to numpy's SeedSequence.  It keeps only the key, so a
    stream pins no block.  ``entropy`` is SeedSequence's word array.  It does not spawn.
    """

    __slots__ = ("seed", "trial")

    def __init__(self, seed: int, trial: int):
        self.seed, self.trial = seed, trial

    @property
    def entropy(self) -> np.ndarray:
        return np.array(_trial_words(self.seed, self.trial), dtype=np.uint32)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # a seed's lone key is nearly always trial 0 or 1, and one SeedSequence costs far less than a block
        if n_words == 4 and dtype is np.uint64 and self.trial > 1:
            return _state_block(self.seed, self.trial // BLOCK)[self.trial % BLOCK]
        return np.random.SeedSequence(self.entropy).generate_state(n_words, dtype)


@functools.cache
def _trial_seed() -> type:
    """_TrialSeed, registered as numpy's ISeedSequence on the first key, so importing this loads no numpy.random."""
    np.random.bit_generator.ISeedSequence.register(_TrialSeed)
    return _TrialSeed


def site_stream(seed: int, site: tuple[int, ...]) -> np.random.Generator:
    """Generator keyed by (seed, site); identical arguments give identical streams."""
    try:  # leading 0 tags site streams, keeping them disjoint from trial streams
        words = [*_seed_words(operator.index(seed)), 0, len(site),
                 *(w for c in site for w in _words(zigzag(operator.index(c))))]
    except (TypeError, OverflowError) as error:
        raise _refused(error, seed, "site", site) from None
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Generator keyed by (seed, trial index), for independent MC trials."""
    try:
        s, t = operator.index(seed), operator.index(trial)
        _trial_words(s, t)  # the range checks
    except (TypeError, OverflowError) as error:
        raise _refused(error, seed, "trial", trial) from None
    return np.random.Generator(np.random.PCG64(_trial_seed()(s, t)))
