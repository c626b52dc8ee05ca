"""Green functions, depleted operators, Schur complements and annulus geometry.

Operators are plain (n, n) arrays in the geometry's site order.  The depleted
operator H^L removes exactly the hopping terms on bonds crossing between L and
its complement.  The blocks of the identities (inner, ring and exterior
blocks, the hopping C = -H[L, ext], the crossing-bond matrix T) are index
slices of one H assembled on the whole geometry, so omega must cover
lambda_plus of the whole geometry.  The convention G(z; x, y) = 0 for a site
outside the geometry lives only in ``moments.finite_volume_sum``, which sums
over the depleted region alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BoxGeometry,
    ModelConfig,
    SingleSitePotential,
    Site,
    _as_site,
    _require,
    _site_set,
    assemble_hamiltonian,
    build_box,
    exterior_boundary,
    interior_boundary,
    site_add,
)

__all__ = [
    "AnnulusGeometry",
    "green",
    "schur_B",
    "verify_schur_identity",
    "verify_two_step_schur",
    "verify_resolvent_identities",
    "annulus",
]


def green(H: np.ndarray, z: complex) -> np.ndarray:
    """G = (H - z)^{-1} for H or any square block of it.  Caller asserts z is off the spectrum when real."""
    _require("complex", z=z)
    try:
        return np.linalg.inv(H - z * np.eye(len(H), dtype=complex))
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"singular resolvent at z={z}: {err}") from err


def _complement(n: int, rows: np.ndarray) -> np.ndarray:
    """The indices 0..n-1 outside ``rows``, ascending, from a mask: what np.setdiff1d(np.arange(n), rows) gives."""
    inside = np.zeros(n, dtype=bool)
    inside[rows] = True
    return np.flatnonzero(~inside)


def _deplete(H: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H^L, T) for L = ``rows``: T = Delta - Delta^L is -H on the blocks between L and the rest."""
    rest = _complement(len(H), rows)
    T = np.zeros_like(H)
    T[np.ix_(rows, rest)] = -H[np.ix_(rows, rest)]
    T[np.ix_(rest, rows)] = -H[np.ix_(rest, rows)]
    return H + T, T


def _schur_B(H: np.ndarray, rows: np.ndarray, z: complex) -> np.ndarray:
    """C (H_ext - z)^{-1} C^T, with C = -H[L, ext] the hopping from L = ``rows`` to the rest."""
    ext = _complement(len(H), rows)
    C = -H[np.ix_(rows, ext)]
    return C @ green(H[np.ix_(ext, ext)], z) @ C.T


def schur_B(model: ModelConfig, omega: dict[Site, float], geometry: BoxGeometry, inner_sites, z: complex) -> np.ndarray:
    """Exterior-feedback operator B on the inner region.

    B = P_L Delta I_ext (H_ext - z)^{-1} P_ext Delta I_L; it lives on the
    interior boundary of L and is independent of couplings that only act
    inside L.  H is assembled on the whole geometry, so omega must cover
    lambda_plus(geometry).
    """
    return _schur_B(assemble_hamiltonian(model, omega, geometry), geometry.rows(inner_sites), z)


def verify_schur_identity(model: ModelConfig, omega: dict[Site, float], geometry: BoxGeometry,
                          inner_sites, z: complex) -> float:
    """Max-abs discrepancy of P_L G P_L* = (H_L - B - z)^{-1} on L x L."""
    inner_geo = geometry.subset(inner_sites)
    rows = geometry.rows(inner_geo)
    lhs = green(assemble_hamiltonian(model, omega, geometry), z)[np.ix_(rows, rows)]
    # H_L is assembled, not sliced: bench/test_layertrace.py pins three assemblies per check
    H_in = assemble_hamiltonian(model, omega, inner_geo)
    rhs = green(H_in - schur_B(model, omega, geometry, inner_geo.sites, z), z)
    return float(np.max(np.abs(lhs - rhs)))


def verify_two_step_schur(model: ModelConfig, omega: dict[Site, float], geometry: BoxGeometry,
                          inner1, inner2, z: complex) -> float:
    """Nested-complement identity for L1 inside L2 with int-boundary(L2) disjoint from L1."""
    s1, s2 = _site_set(inner1), _site_set(inner2)
    if not s1 <= s2:
        raise ValueError("need inner1 within inner2")
    r1, r2, ring = geometry.rows(s1), geometry.rows(s2), geometry.rows(s2 - s1)
    if interior_boundary(s2) & s1:
        raise ValueError("interior boundary of the outer region must avoid the inner region")

    H = assemble_hamiltonian(model, omega, geometry)
    lhs = green(H, z)[np.ix_(r1, r1)]
    at = np.searchsorted(r2, ring)  # the ring's places among the rows of L2
    B_ring = _schur_B(H, r2, z)[np.ix_(at, at)]
    K = H[np.ix_(ring, ring)] - B_ring - z * np.eye(len(ring), dtype=complex)
    C = -H[np.ix_(r1, ring)]  # hopping between L1 and the ring
    S = H[np.ix_(r1, r1)] - z * np.eye(len(r1), dtype=complex) - C @ np.linalg.solve(K, C.T.astype(complex))
    return float(np.max(np.abs(lhs - np.linalg.inv(S))))


def verify_resolvent_identities(model: ModelConfig, omega: dict[Site, float], geometry: BoxGeometry,
                                inner_sites, z: complex) -> tuple[float, float]:
    """Residuals of the first- and second-order geometric resolvent identities."""
    H = assemble_hamiltonian(model, omega, geometry)
    Hd, T = _deplete(H, geometry.rows(inner_sites))
    G, Gd = green(H, z), green(Hd, z)
    first = float(np.max(np.abs(G - Gd - G @ T @ Gd)))
    second = float(np.max(np.abs(G - Gd - Gd @ T @ Gd - Gd @ T @ G @ T @ Gd)))
    return first, second


# ---------------------------------------------------------------------------
# annulus geometry for the finite-volume criterion


@dataclass(frozen=True)
class AnnulusGeometry:
    """The screening sets built from translates of supp u along a box shell."""

    B_x: frozenset[Site]
    hat_W_x: frozenset[Site]
    W_x: frozenset[Site]


def annulus(geometry: BoxGeometry, x, L: int, u: SingleSitePotential) -> AnnulusGeometry:
    """Build B_x, hat-W_x and W_x inside the geometry.

    B_x is the interior boundary of the L-cube translated to x; hat-W_x
    collects the supp-u translates along B_x, and W_x is hat-W_x thickened
    by one exterior layer.  Requires L >= diam(supp u) + 2 so the
    annulus cuts x off from far sites.
    """
    x = _as_site(x, "x")
    diam = u.diameter_linf()
    if L < diam + 2:
        raise ValueError(f"need L >= diam(supp u) + 2 = {diam + 2}, got {L}")
    supp = u.support()
    gamma = geometry.site_set()

    B_x = interior_boundary(build_box(L, x).sites)
    hat_W = {site_add(t, b) for b in B_x for t in supp} & gamma
    W = (hat_W | exterior_boundary(hat_W)) & gamma if hat_W else set()
    return AnnulusGeometry(frozenset(B_x), frozenset(hat_W), frozenset(W))
