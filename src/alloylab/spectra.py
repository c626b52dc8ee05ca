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
    _as_site,
    _require,
    assemble_hamiltonian,  # this and sample_configuration are unused: bench/test_layertrace.py pins both bindings
    build_box,
    explicit_geometry,
    interior_boundary,
    sample_configuration,
)
from .moments import DisorderSampler, run_trials
from .poscomb import wegner_coefficients

__all__ = [
    "WegnerReport",
    "RegularityReport",
    "eigenvalues",
    "wegner_mc",
    "pair_regularity_probability",
]


def eigenvalues(H: np.ndarray) -> np.ndarray:
    """Full ascending spectrum of a real symmetric matrix."""
    # exact symmetry, the usual case, is cheap to confirm; allclose only judges what it misses
    if not (np.array_equal(H, H.T) or np.allclose(H, H.T)):
        raise ValueError("Hamiltonian must be symmetric")
    return np.linalg.eigvalsh(H)


@dataclass(frozen=True)
class WegnerReport:
    mean_count: float
    stderr: float
    abstract_bound: float
    bound_satisfied: bool


# doubles per stacked eigensolve: run_trials blocks of at most 4 MiB of matrices
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

    In d = 1 H is tridiagonal with unit hoppings, so a block of trials is counted with
    ``_sturm_below``, as #{ev < nextafter(b, +inf)} - #{ev < a}, from the diagonals alone.
    In d >= 2 ``run_trials`` cuts blocks of at most max(1, 2**19 // n**2) trials, one stacked
    ``np.linalg.eigvalsh`` call each, which runs the same LAPACK call on every matrix as on one.
    A trial's count depends only on its own row, so neither the blocks nor the threads move it.
    """
    _require("radius", l=l)
    _require("positive", coupling=model.coupling)
    _require("interval", interval=interval)
    _require("count", trials=trials, threads=threads)
    a, b = float(interval[0]), float(interval[1])
    geometry = build_box(l, (0,) * model.dimension)
    sampler = DisorderSampler(model, geometry)
    coeff = wegner_coefficients(model.potential, l)
    diagonals = sampler.diagonals(sampler.omega(seed, trials))
    stack = None if model.dimension == 1 else max(1, _EIGVALSH_STACK // len(geometry) ** 2)

    def counts(block: range) -> np.ndarray:
        rows = diagonals[block.start:block.stop]
        if model.dimension == 1:
            below = _sturm_below(rows, (a, np.nextafter(b, np.inf)))
            return (below[1] - below[0]).astype(float)
        ev = np.linalg.eigvalsh(sampler.hamiltonian(rows))
        return np.sum((ev >= a) & (ev <= b), axis=1).astype(float)

    mean, stderr = map(float, _mean_stderr(run_trials(counts, trials, threads, stack)))
    bound = (1.0 / (2.0 * model.coupling) * model.density.total_variation
             * (b - a) * coeff["t_l1_total"])
    return WegnerReport(mean, stderr, bound, bool(mean + 3 * stderr <= bound))


# ---------------------------------------------------------------------------
# regularity of boxes at real energies


def _regular(vals: np.ndarray, vecs: np.ndarray, energies: np.ndarray, ix: int, idx, thresh: float) -> np.ndarray:
    """(trials, energies) flags |G(E; ix, w)| <= thresh at every index w in idx, from a stack of eigenpairs.

    G(E; ix, .) = (vecs[ix, :] / (vals - E)) @ vecs.T: the eigenbasis keeps the real-energy solve
    stable near resonances.  A gap |vals - E| <= 1e-12 max(1, ||vals||_inf) counts as E in the
    spectrum, which is never regular; its row divides by 1 instead, so an exact hit raises no warning.
    """
    gap = vals[:, None, :] - energies[:, None]
    resonant = np.min(np.abs(gap), axis=2) <= 1e-12 * np.maximum(1.0, np.max(np.abs(vals), axis=1))[:, None]
    rows = (vecs[:, ix, None, :] / np.where(resonant[..., None], 1.0, gap)) @ vecs[:, idx, :].transpose(0, 2, 1)
    return ~resonant & (np.max(np.abs(rows), axis=2) <= thresh)


@dataclass(frozen=True)
class RegularityReport:
    energies: tuple[float, ...]
    per_energy_frequency: tuple[float, ...]
    pair_frequency: float


def pair_regularity_probability(model: ModelConfig, L: int, x, y, interval,
                                grid_points: int, m: float, trials: int, seed: int,
                                threads: int = 1) -> RegularityReport:
    """Frequency of "for every grid energy, one of the two boxes is regular".

    The boxes must be separated enough that their couplings are independent; the continuum of
    energies is approximated by a finite grid, which biases ``pair_frequency`` upward.  Trial t's
    couplings are row t of one ``DisorderSampler.omega`` block on the union of the two boxes.  A
    box's H is its own -Delta (never the union's: at the minimum separation the boxes can be one
    bond apart) plus its slice ``union.rows(box)`` of the trial's lambda V.  ``run_trials`` cuts
    the trials into blocks bounded as in ``wegner_mc``; each block diagonalizes the x box in one
    ``np.linalg.eigh`` call, and the y box only for the trials that some energy leaves x-irregular.
    """
    _require("interval", interval=interval)
    _require("count", grid_points=grid_points, trials=trials, threads=threads)
    _require("real", m=m)
    x, y = _as_site(x, "x"), _as_site(y, "y")
    if len(x) != model.dimension or len(y) != model.dimension:
        raise ValueError(f"x = {x} and y = {y} must both have the model's dimension {model.dimension}")
    diam = model.potential.diameter_linf()
    sep = max(abs(a - b) for a, b in zip(x, y))
    if sep < 2 * L + diam + 1:
        raise ValueError(f"need |x-y|_inf >= 2L + diam + 1 = {2 * L + diam + 1}, got {sep}")
    a, b = float(interval[0]), float(interval[1])
    energies = tuple(np.linspace(a, b, grid_points)) if grid_points > 1 else (0.5 * (a + b),)
    box_x, box_y = build_box(L, x), build_box(L, y)
    union = explicit_geometry(box_x.sites + box_y.sites)
    sampler = DisorderSampler(model, union)
    diagonals = sampler.diagonals(sampler.omega(seed, trials))
    grid, thresh, n = np.array(energies), math.exp(-m * L), len(box_x)
    stack = max(1, _EIGVALSH_STACK // (n * max(n, len(energies))))  # bounds H, its vectors and the G rows

    def regular(box, centre):
        """sub -> the (len(sub), energies) flags of the box for those trials, from one stacked eigh."""
        own, rows = DisorderSampler(model, box), union.rows(box)
        ix, idx = box.index_of(centre), box.rows(interior_boundary(box))
        return lambda sub: _regular(*np.linalg.eigh(own.hamiltonian(diagonals[sub][:, rows])), grid, ix, idx, thresh)

    regular_x, regular_y = regular(box_x, x), regular(box_y, y)

    def flags(block: range) -> np.ndarray:  # per trial: 0/1 per grid energy, then the all-energies flag
        sub = np.arange(block.start, block.stop)
        ok = regular_x(sub)
        need = ~ok.all(axis=1)
        if need.any():
            ok[need] |= regular_y(sub[need])
        return np.column_stack([ok, ok.all(axis=1)]).astype(float)

    freq, _ = _mean_stderr(run_trials(flags, trials, threads, stack))
    return RegularityReport(energies, tuple(freq[:-1]), float(freq[-1]))
