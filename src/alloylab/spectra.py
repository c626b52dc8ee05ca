"""Eigenvalue counting, Wegner-type Monte Carlo and regularity diagnostics.

The eigenvalue-count bound states that the expected number of eigenvalues of
a box Hamiltonian in an interval is at most
|I| / (2 lambda) * ||rho||_Var * sum_j ||t_j||_1 with the coefficient family
from the positive-combination construction; this module estimates the left
side by Monte Carlo and evaluates the right side exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import _mean_stderr
from .model import (
    ModelConfig,
    Site,
    _as_site,
    assemble_hamiltonian,
    build_box,
    interior_boundary,
    lambda_plus,
    sample_configuration,
)
from .moments import DisorderSampler, _check_coupling, run_trials
from .poscomb import wegner_coefficients
from .rng import trial_stream

__all__ = [
    "WegnerReport",
    "RegularityReport",
    "eigenvalues",
    "wegner_mc",
    "pair_regularity_probability",
]


def eigenvalues(H: np.ndarray) -> np.ndarray:
    """Full ascending spectrum of a real symmetric matrix."""
    if not np.allclose(H, H.T):
        raise ValueError("Hamiltonian must be symmetric")
    return np.linalg.eigvalsh(H)


def _check_interval(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")


@dataclass(frozen=True)
class WegnerReport:
    interval: tuple[float, float]
    box_radius: int
    mean_count: float
    stderr: float
    trials: int
    abstract_bound: float
    bound_satisfied: bool


# doubles per stacked eigensolve: sub-stacks of at most 4 MiB of matrices
_EIGVALSH_STACK = 2 ** 19


def _sturm_below(diagonals: np.ndarray, energies) -> np.ndarray:
    """#{eigenvalues < E} of the chain -Delta + diag(a), as (len(energies), rows): one count per
    energy E and per row a of the (rows, n) ``diagonals``.

    By Sylvester's law the count is the number of negative LDL^T pivots of H - E, and with unit
    hoppings d_1 = a_1 - E, d_k = a_k - E - 1/d_{k-1}.  A pivot with |d| <= the smallest normal
    double is taken as -tiny, as LAPACK's ``dstebz`` does, so no step divides by zero.
    """
    tiny = np.finfo(float).tiny
    shifted = diagonals.T[:, None, :] - np.asarray(energies, dtype=float)[:, None]
    below = np.zeros(shifted.shape[1:], dtype=np.int64)
    d = np.full(shifted.shape[1:], np.inf)  # 1/inf = 0, so the first step is d_1 = a_1 - E
    for column in shifted:
        d = column - 1.0 / d
        d[np.abs(d) <= tiny] = -tiny
        below += d < 0
    return below


def wegner_mc(model: ModelConfig, l: int, interval, trials: int, seed: int,
              threads: int = 1) -> WegnerReport:
    """MC mean eigenvalue count in the interval against the exact count bound.

    In d = 1 H is tridiagonal with unit hoppings, so each worker counts its block of trials
    with ``_sturm_below``, as #{ev < nextafter(b, +inf)} - #{ev < a}, from the diagonals alone.
    In d >= 2 each worker's block is diagonalized as (trials, n, n) stacks of at most
    max(1, 2**19 // n**2) matrices, one ``np.linalg.eigvalsh`` call each.  eigvalsh runs the
    same LAPACK call on every matrix of a stack as on a single matrix.  Either way a trial's
    count depends only on its own row, so the counts do not depend on the stacking, nor on
    the number of threads.
    """
    _check_coupling(model.coupling)
    a, b = float(interval[0]), float(interval[1])
    _check_interval(a, b)
    geometry = build_box(l, (0,) * model.dimension)
    sampler = DisorderSampler(model, geometry)
    coeff = wegner_coefficients(model.potential, l)
    diagonals = sampler.diagonals(sampler.omega(seed, trials))
    stack = max(1, _EIGVALSH_STACK // len(geometry) ** 2)

    def counts(block: range) -> np.ndarray:
        if model.dimension == 1:
            below = _sturm_below(diagonals[block.start:block.stop], (a, np.nextafter(b, np.inf)))
            return (below[1] - below[0]).astype(float)
        parts = []
        for start in range(block.start, block.stop, stack):
            ev = np.linalg.eigvalsh(sampler.hamiltonian(diagonals[start:min(start + stack, block.stop)]))
            parts.append(np.sum((ev >= a) & (ev <= b), axis=1))
        return np.concatenate(parts).astype(float)

    mean, stderr = map(float, _mean_stderr(run_trials(counts, trials, threads)))
    bound = (1.0 / (2.0 * model.coupling) * model.density.total_variation
             * (b - a) * coeff["t_l1_total"])
    return WegnerReport((a, b), l, mean, stderr, trials, bound,
                        bool(mean + 3 * stderr <= bound))


# ---------------------------------------------------------------------------
# regularity of boxes at real energies


def _is_regular(eig, E: float, ix: int, idx, thresh: float) -> bool:
    """|G(E; ix, w)| <= thresh at every index w in idx, from eig = (vals, vecs).

    The eigenbasis keeps the real-energy solve stable near resonances; a gap
    below the resolution threshold counts as E in the spectrum, which is
    never regular.
    """
    vals, vecs = eig
    scale = max(1.0, float(np.max(np.abs(vals))))
    if float(np.min(np.abs(vals - E))) <= 1e-12 * scale:
        return False
    row = (vecs[ix, :] / (vals - E)) @ vecs.T
    return bool(np.max(np.abs(row[idx])) <= thresh)


@dataclass(frozen=True)
class RegularityReport:
    L: int
    x: Site
    y: Site
    m: float
    energies: tuple[float, ...]
    per_energy_frequency: tuple[float, ...]
    pair_frequency: float
    trials: int
    note: str


def pair_regularity_probability(model: ModelConfig, L: int, x, y, interval,
                                grid_points: int, m: float, trials: int, seed: int,
                                threads: int = 1) -> RegularityReport:
    """Frequency of "for every grid energy, one of the two boxes is regular".

    The boxes must be separated enough that their couplings are independent;
    the continuum of energies is approximated by a finite grid, which biases
    the estimate upward, so the report says so.  Each box is diagonalized at
    most once per trial, the y box only once some energy needs it.  Trial t
    draws its sites with a configuration seed taken from trial_stream(seed, t).
    """
    if grid_points < 1:
        raise ValueError(f"need at least one grid energy, got {grid_points}")
    x, y = _as_site(x), _as_site(y)
    diam = model.potential.diameter_linf()
    sep = max(abs(a - b) for a, b in zip(x, y))
    if sep < 2 * L + diam + 1:
        raise ValueError(f"need |x-y|_inf >= 2L + diam + 1 = {2 * L + diam + 1}, got {sep}")
    if not math.isfinite(m):
        raise ValueError(f"the regularity rate m must be finite, got {m}")
    a, b = float(interval[0]), float(interval[1])
    _check_interval(a, b)
    energies = tuple(np.linspace(a, b, grid_points)) if grid_points > 1 else (0.5 * (a + b),)
    box_x = build_box(L, x)
    box_y = build_box(L, y)
    need = lambda_plus(box_x, model.potential) | lambda_plus(box_y, model.potential)
    ix, iy = box_x.index_of(x), box_y.index_of(y)
    idx_x, idx_y = box_x.rows(interior_boundary(box_x)), box_y.rows(interior_boundary(box_y))
    thresh = math.exp(-m * L)

    def one(t: int) -> np.ndarray:  # 0/1 flag per grid energy, then the all-energies flag
        omega = sample_configuration(model, need, int(trial_stream(seed, t).integers(2 ** 62)))
        eig_x = np.linalg.eigh(assemble_hamiltonian(model, omega, box_x))
        eig_y = None
        flags = []
        for E in energies:
            ok = _is_regular(eig_x, E, ix, idx_x, thresh)
            if not ok:
                if eig_y is None:
                    eig_y = np.linalg.eigh(assemble_hamiltonian(model, omega, box_y))
                ok = _is_regular(eig_y, E, iy, idx_y, thresh)
            flags.append(ok)
        return np.array(flags + [all(flags)], dtype=float)

    freq, _ = _mean_stderr(run_trials(lambda block: np.array([one(t) for t in block]), trials, threads))
    return RegularityReport(L, x, y, m, energies, tuple(freq[:-1]), float(freq[-1]), trials,
                            "grid approximation of the energy continuum; upper-bias estimate")
