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
    BoxGeometry,
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
    "count_in_interval",
    "wegner_mc",
    "apriori_wegner_bound",
    "regularity_check",
    "pair_regularity_probability",
    "eigenfunction_decay",
]


def eigenvalues(H) -> np.ndarray:
    """Full ascending spectrum of a real symmetric matrix."""
    M = H.entries if hasattr(H, "entries") else np.asarray(H)
    if not np.allclose(M, M.T):
        raise ValueError("Hamiltonian must be symmetric")
    return np.linalg.eigvalsh(M)


def _check_interval(a: float, b: float) -> None:
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")


def count_in_interval(H, a: float, b: float) -> int:
    """Number of eigenvalues in the closed interval [a, b]."""
    _check_interval(a, b)
    ev = eigenvalues(H)
    return int(np.sum((ev >= a) & (ev <= b)))


@dataclass(frozen=True)
class WegnerReport:
    interval: tuple[float, float]
    box_radius: int
    mean_count: float
    stderr: float
    trials: int
    abstract_bound: float
    bound_satisfied: bool
    coefficients: dict


def wegner_mc(model: ModelConfig, l: int, interval, trials: int, seed: int,
              threads: int = 1) -> WegnerReport:
    """MC mean eigenvalue count in the interval against the exact count bound."""
    _check_coupling(model.coupling)
    a, b = float(interval[0]), float(interval[1])
    _check_interval(a, b)
    geometry = build_box(l, (0,) * model.dimension)
    sampler = DisorderSampler(model, geometry)
    coeff = wegner_coefficients(model.potential, l)
    diagonals = sampler.diagonals(sampler.omega(seed, trials))

    def one(trial: int) -> float:
        H = sampler.hamiltonian(diagonals[trial])
        ev = np.linalg.eigvalsh(H)
        return float(np.sum((ev >= a) & (ev <= b)))

    mean, stderr = map(float, _mean_stderr(run_trials(one, trials, threads)))
    bound = (1.0 / (2.0 * model.coupling) * model.density.total_variation
             * (b - a) * coeff["t_l1_total"])
    return WegnerReport((a, b), l, mean, stderr, trials, bound,
                        bool(mean + 3 * stderr <= bound), coeff)


def apriori_wegner_bound(C: float, s: float, volume: int, width: float) -> float:
    """Count bound 4 C / pi * width^s * volume from a diagonal-moment bound C."""
    if width < 0 or volume < 0:
        raise ValueError("width and volume must be nonnegative")
    return 4.0 * C / math.pi * width ** s * volume


# ---------------------------------------------------------------------------
# regularity of boxes at real energies


def regularity_check(model: ModelConfig, omega, L: int, x, E: float, m: float) -> bool:
    """Exponential smallness from the center to the interior boundary.

    A box around x is regular at (m, E) when E is off the spectrum of its
    Hamiltonian and |G(E; x, w)| <= e^{-mL} for every interior-boundary w.
    """
    x = _as_site(x)
    box = build_box(L, x)
    H = assemble_hamiltonian(model, omega, box)
    idx = [box.index_of(w) for w in sorted(interior_boundary(box))]
    return _is_regular(np.linalg.eigh(H.entries), E, box.index_of(x), idx, math.exp(-m * L))


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
    a, b = float(interval[0]), float(interval[1])
    energies = tuple(np.linspace(a, b, grid_points)) if grid_points > 1 else (0.5 * (a + b),)
    box_x = build_box(L, x)
    box_y = build_box(L, y)
    need = lambda_plus(box_x, model.potential) | lambda_plus(box_y, model.potential)
    idx_x = [box_x.index_of(w) for w in sorted(interior_boundary(box_x))]
    idx_y = [box_y.index_of(w) for w in sorted(interior_boundary(box_y))]
    thresh = math.exp(-m * L)

    def one(t: int) -> np.ndarray:  # 0/1 flag per grid energy, then the all-energies flag
        omega = sample_configuration(model, need, int(trial_stream(seed, t).integers(2 ** 62)))
        eig_x = np.linalg.eigh(assemble_hamiltonian(model, omega, box_x).entries)
        eig_y = None
        flags = []
        for E in energies:
            ok = _is_regular(eig_x, E, box_x.index_of(x), idx_x, thresh)
            if not ok:
                if eig_y is None:
                    eig_y = np.linalg.eigh(assemble_hamiltonian(model, omega, box_y).entries)
                ok = _is_regular(eig_y, E, box_y.index_of(y), idx_y, thresh)
            flags.append(ok)
        return np.array(flags + [all(flags)], dtype=float)

    freq, _ = _mean_stderr(run_trials(one, trials, threads))
    return RegularityReport(L, x, y, m, energies, tuple(freq[:-1]), float(freq[-1]), trials,
                            "grid approximation of the energy continuum; upper-bias estimate")


def eigenfunction_decay(model: ModelConfig, omega, geometry: BoxGeometry,
                        window) -> list[dict]:
    """Least-squares decay slope of log|psi| for eigenvectors in the window.

    The slope is fitted against the sup-distance from the amplitude peak,
    restricted to the outer half of the observed distance range; localized
    states give strongly negative slopes, extended ones hover near zero.
    """
    a, b = float(window[0]), float(window[1])
    H = assemble_hamiltonian(model, omega, geometry)
    vals, vecs = np.linalg.eigh(H.entries)
    sites = np.array(geometry.sites)
    out = []
    for i, E in enumerate(vals):
        if not a <= E <= b:
            continue
        psi = np.abs(vecs[:, i])
        peak = sites[int(np.argmax(psi))]
        dist = np.max(np.abs(sites - peak), axis=1)
        dmax = int(np.max(dist))
        if dmax < 2:
            out.append({"energy": float(E), "slope": None, "note": "box too small for a fit"})
            continue
        mask = (dist >= dmax / 2) & (psi > 1e-300)
        if int(np.sum(mask)) < 2:
            out.append({"energy": float(E), "slope": None, "note": "not enough outer points"})
            continue
        coef = np.polyfit(dist[mask], np.log(psi[mask]), 1)
        out.append({"energy": float(E), "slope": float(coef[0]), "intercept": float(coef[1])})
    return out
