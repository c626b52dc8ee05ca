"""Green functions, depleted operators, Schur complements and annulus geometry.

Conventions: G(z; i, j) = 0 whenever i or j lies outside the geometry the
resolvent was built on, and the depleted operator H^L removes exactly the
hopping terms on bonds crossing between L and its complement.  The blocks of
the identities (inner, ring and exterior blocks, the hopping C = -H[L, ext],
the crossing-bond matrix T) are index slices of one H assembled on the whole
geometry, so omega must cover lambda_plus of the whole geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BoxGeometry,
    Configuration,
    HamiltonianMatrix,
    ModelConfig,
    SingleSitePotential,
    Site,
    _as_site,
    _site_set,
    assemble_hamiltonian,
    build_box,
    connected_components,
    exterior_boundary,
    interior_boundary,
    site_add,
)

__all__ = [
    "GreenMatrix",
    "DepletedOperators",
    "AnnulusGeometry",
    "green",
    "depleted",
    "schur_B",
    "verify_schur_identity",
    "verify_two_step_schur",
    "verify_resolvent_identities",
    "annulus",
    "separates",
]


@dataclass(frozen=True)
class GreenMatrix:
    """Dense (H - z)^{-1} on a geometry, with site-keyed access."""

    geometry: BoxGeometry
    z: complex
    entries: np.ndarray

    def at(self, x, y) -> complex:
        """G(z; x, y); zero if either site is outside the geometry."""
        if x not in self.geometry or y not in self.geometry:
            return 0.0 + 0.0j
        return self.entries[self.geometry.index_of(x), self.geometry.index_of(y)]

    def residual(self, H: HamiltonianMatrix) -> float:
        n = len(self.geometry)
        M = (H.entries - self.z * np.eye(n)) @ self.entries - np.eye(n)
        return float(np.max(np.abs(M)))


def _resolvent(M: np.ndarray, z: complex) -> np.ndarray:
    """(M - z)^{-1} for a square block M."""
    return np.linalg.inv(M - z * np.eye(len(M), dtype=complex))


def green(H: HamiltonianMatrix, z: complex) -> GreenMatrix:
    """Invert H - z.  Caller asserts z is off the spectrum when real."""
    try:
        entries = _resolvent(H.entries, z)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"singular resolvent at z={z}: {err}") from err
    return GreenMatrix(H.geometry, z, entries)


@dataclass(frozen=True)
class DepletedOperators:
    """H^L (bonds across the L boundary removed) and the coupling T = H^L - H."""

    geometry: BoxGeometry
    inner: BoxGeometry | None
    depleted: np.ndarray
    coupling: np.ndarray


def _deplete(H: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H^L, T) for L = ``rows``: T = Delta - Delta^L is -H on the blocks between L and the rest."""
    rest = np.setdiff1d(np.arange(len(H)), rows)
    T = np.zeros_like(H)
    T[np.ix_(rows, rest)] = -H[np.ix_(rows, rest)]
    T[np.ix_(rest, rows)] = -H[np.ix_(rest, rows)]
    return H + T, T


def _schur_B(H: np.ndarray, rows: np.ndarray, z: complex) -> np.ndarray:
    """C (H_ext - z)^{-1} C^T, with C = -H[L, ext] the hopping from L = ``rows`` to the rest."""
    ext = np.setdiff1d(np.arange(len(H)), rows)
    C = -H[np.ix_(rows, ext)]
    return C @ _resolvent(H[np.ix_(ext, ext)], z) @ C.T


def depleted(model: ModelConfig, omega: Configuration, geometry: BoxGeometry, inner_sites) -> DepletedOperators:
    """Deplete the hopping between ``inner_sites`` and the rest of the geometry."""
    inner = _site_set(inner_sites)
    Hd, T = _deplete(assemble_hamiltonian(model, omega, geometry).entries, geometry.rows(inner))
    return DepletedOperators(geometry, geometry.subset(inner) if inner else None, Hd, T)


def schur_B(model: ModelConfig, omega: Configuration, geometry: BoxGeometry, inner_sites, z: complex) -> np.ndarray:
    """Exterior-feedback operator B on the inner region.

    B = P_L Delta I_ext (H_ext - z)^{-1} P_ext Delta I_L; it lives on the
    interior boundary of L and is independent of couplings that only act
    inside L.  H is assembled on the whole geometry, so omega must cover
    lambda_plus(geometry).
    """
    return _schur_B(assemble_hamiltonian(model, omega, geometry).entries, geometry.rows(inner_sites), z)


def verify_schur_identity(model: ModelConfig, omega: Configuration, geometry: BoxGeometry,
                          inner_sites, z: complex) -> float:
    """Max-abs discrepancy of P_L G P_L* = (H_L - B - z)^{-1} on L x L."""
    inner_geo = geometry.subset(inner_sites)
    rows = geometry.rows(inner_geo)
    lhs = green(assemble_hamiltonian(model, omega, geometry), z).entries[np.ix_(rows, rows)]
    # H_L is assembled, not sliced: bench/test_layertrace.py pins three assemblies per check
    H_in = assemble_hamiltonian(model, omega, inner_geo)
    rhs = _resolvent(H_in.entries - schur_B(model, omega, geometry, inner_geo.sites, z), z)
    return float(np.max(np.abs(lhs - rhs)))


def verify_two_step_schur(model: ModelConfig, omega: Configuration, geometry: BoxGeometry,
                          inner1, inner2, z: complex) -> float:
    """Nested-complement identity for L1 inside L2 with int-boundary(L2) disjoint from L1."""
    s1, s2 = _site_set(inner1), _site_set(inner2)
    if not s1 <= s2:
        raise ValueError("need inner1 within inner2")
    r1, r2, ring = geometry.rows(s1), geometry.rows(s2), geometry.rows(s2 - s1)
    if interior_boundary(s2) & s1:
        raise ValueError("interior boundary of the outer region must avoid the inner region")

    H = assemble_hamiltonian(model, omega, geometry).entries
    lhs = _resolvent(H, z)[np.ix_(r1, r1)]
    at = np.searchsorted(r2, ring)  # the ring's places among the rows of L2
    B_ring = _schur_B(H, r2, z)[np.ix_(at, at)]
    K = H[np.ix_(ring, ring)] - B_ring - z * np.eye(len(ring), dtype=complex)
    C = -H[np.ix_(r1, ring)]  # hopping between L1 and the ring
    S = H[np.ix_(r1, r1)] - z * np.eye(len(r1), dtype=complex) - C @ np.linalg.solve(K, C.T.astype(complex))
    return float(np.max(np.abs(lhs - np.linalg.inv(S))))


def verify_resolvent_identities(model: ModelConfig, omega: Configuration, geometry: BoxGeometry,
                                inner_sites, z: complex) -> tuple[float, float]:
    """Residuals of the first- and second-order geometric resolvent identities."""
    H = assemble_hamiltonian(model, omega, geometry).entries
    Hd, T = _deplete(H, geometry.rows(inner_sites))
    G, Gd = _resolvent(H, z), _resolvent(Hd, z)
    first = float(np.max(np.abs(G - Gd - G @ T @ Gd)))
    second = float(np.max(np.abs(G - Gd - Gd @ T @ Gd - Gd @ T @ G @ T @ Gd)))
    return first, second


# ---------------------------------------------------------------------------
# annulus geometry for the finite-volume criterion


@dataclass(frozen=True)
class AnnulusGeometry:
    """The screening sets built from translates of supp u along a box shell."""

    x: Site
    L: int
    B_x: frozenset[Site]
    hat_W_x: frozenset[Site]
    W_x: frozenset[Site]
    hat_Lambda_x: frozenset[Site]
    Lambda_x: frozenset[Site]


def annulus(geometry: BoxGeometry, x, L: int, u: SingleSitePotential) -> AnnulusGeometry:
    """Build B_x, hat-W_x, W_x, hat-Lambda_x, Lambda_x inside the geometry.

    B_x is the interior boundary of the L-cube translated to x; hat-W_x
    collects the supp-u translates along B_x; the plain variants are
    thickened by one exterior layer.  Requires L >= diam(supp u) + 2 so the
    annulus actually separates x from far sites.
    """
    x = _as_site(x)
    diam = u.diameter_linf()
    if L < diam + 2:
        raise ValueError(f"need L >= diam(supp u) + 2 = {diam + 2}, got {L}")
    supp = u.support()
    gamma = geometry.site_set()

    cube_x = build_box(L, x).sites
    B_x = interior_boundary(cube_x)

    hat_W = {site_add(t, b) for b in B_x for t in supp} & gamma
    hat_L = {site_add(t, b) for b in cube_x for t in supp} & gamma
    W = (hat_W | exterior_boundary(hat_W)) & gamma if hat_W else set()
    Lam = (hat_L | exterior_boundary(hat_L)) & gamma if hat_L else set()
    return AnnulusGeometry(x, L, frozenset(B_x), frozenset(hat_W), frozenset(W),
                           frozenset(hat_L), frozenset(Lam))


def separates(geometry: BoxGeometry, ann: AnnulusGeometry, far_site) -> bool:
    """Flood-fill check: removing W_x disconnects x from the far site."""
    remaining = geometry.site_set() - ann.W_x
    comps = connected_components(remaining)
    far = _as_site(far_site)
    for comp in comps:
        if ann.x in comp:
            return far not in comp
    return False
