"""Green functions, depleted operators, Schur complements and annulus geometry.

Conventions: G(z; i, j) = 0 whenever i or j lies outside the geometry the
resolvent was built on, and the depleted operator H^L removes exactly the
hopping terms on bonds crossing between L and its complement.
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
    adjacency_matrix,
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


def green(H: HamiltonianMatrix, z: complex) -> GreenMatrix:
    """Invert H - z.  Caller asserts z is off the spectrum when real."""
    n = len(H.geometry)
    try:
        entries = np.linalg.inv(H.entries - z * np.eye(n, dtype=complex))
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


def depleted(model: ModelConfig, omega: Configuration, geometry: BoxGeometry, inner_sites) -> DepletedOperators:
    """Deplete the hopping between ``inner_sites`` and the rest of the geometry."""
    inner = _site_set(inner_sites)
    if not inner <= geometry.site_set():
        raise ValueError("inner region must be contained in the geometry")
    H = assemble_hamiltonian(model, omega, geometry)
    mask_in = np.array([s in inner for s in geometry.sites])
    cross = np.logical_xor.outer(mask_in, mask_in)
    A = adjacency_matrix(geometry)
    T = A * cross  # Delta - Delta^L: +1 on crossing bonds
    Hd = H.entries + T  # -Delta^L = -Delta + T
    inner_geo = geometry.subset(inner) if inner else None
    return DepletedOperators(geometry, inner_geo, Hd, T)


def schur_B(model: ModelConfig, omega: Configuration, geometry: BoxGeometry, inner_sites, z: complex) -> np.ndarray:
    """Exterior-feedback operator B on the inner region.

    B = P_L Delta I_ext (H_ext - z)^{-1} P_ext Delta I_L; it lives on the
    interior boundary of L and is independent of couplings that only act
    inside L.
    """
    inner = _site_set(inner_sites)
    if not inner <= geometry.site_set():
        raise ValueError("inner region must be contained in the geometry")
    if len(inner) == len(geometry):
        return np.zeros((len(inner), len(inner)), dtype=complex)
    ext_geo = geometry.subset(geometry.site_set() - inner)
    H_ext = assemble_hamiltonian(model, omega, ext_geo)
    in_inner = np.array([s in inner for s in geometry.sites])
    C = adjacency_matrix(geometry)[np.ix_(in_inner, ~in_inner)]  # Delta entries between L and the exterior
    G_ext = np.linalg.inv(H_ext.entries - z * np.eye(len(ext_geo), dtype=complex))
    return C @ G_ext @ C.T


def verify_schur_identity(model: ModelConfig, omega: Configuration, geometry: BoxGeometry,
                          inner_sites, z: complex) -> float:
    """Max-abs discrepancy of P_L G P_L* = (H_L - B - z)^{-1} on L x L."""
    inner_geo = geometry.subset(_site_set(inner_sites))
    H_full = assemble_hamiltonian(model, omega, geometry)
    G = green(H_full, z)
    idx = [geometry.index_of(s) for s in inner_geo.sites]
    lhs = G.entries[np.ix_(idx, idx)]
    H_in = assemble_hamiltonian(model, omega, inner_geo)
    B = schur_B(model, omega, geometry, inner_geo.sites, z)
    rhs = np.linalg.inv(H_in.entries - B - z * np.eye(len(inner_geo), dtype=complex))
    return float(np.max(np.abs(lhs - rhs)))


def verify_two_step_schur(model: ModelConfig, omega: Configuration, geometry: BoxGeometry,
                          inner1, inner2, z: complex) -> float:
    """Nested-complement identity for L1 inside L2 with int-boundary(L2) disjoint from L1."""
    s1 = _site_set(inner1)
    s2 = _site_set(inner2)
    if not s1 <= s2 or not s2 <= geometry.site_set():
        raise ValueError("need inner1 within inner2 within the geometry")
    if interior_boundary(s2) & s1:
        raise ValueError("interior boundary of the outer region must avoid the inner region")

    geo1, geo2, geo_ring = geometry.subset(s1), geometry.subset(s2), geometry.subset(s2 - s1)

    H_full = assemble_hamiltonian(model, omega, geometry)
    G = green(H_full, z)
    idx1 = [geometry.index_of(s) for s in geo1.sites]
    lhs = G.entries[np.ix_(idx1, idx1)]

    B2 = schur_B(model, omega, geometry, s2, z)  # on inner2, ordered like geometry
    ring_idx2 = [geo2.index_of(s) for s in geo_ring.sites]
    B_ring = B2[np.ix_(ring_idx2, ring_idx2)]

    H_ring = assemble_hamiltonian(model, omega, geo_ring)
    K = H_ring.entries - B_ring - z * np.eye(len(geo_ring), dtype=complex)

    # hopping between L1 and the ring (entries of Delta)
    idx_ring = [geometry.index_of(s) for s in geo_ring.sites]
    C = adjacency_matrix(geometry)[np.ix_(idx1, idx_ring)]

    H1 = assemble_hamiltonian(model, omega, geo1)
    S = H1.entries - z * np.eye(len(geo1), dtype=complex) - C @ np.linalg.solve(K, C.T.astype(complex))
    rhs = np.linalg.inv(S)
    return float(np.max(np.abs(lhs - rhs)))


def verify_resolvent_identities(model: ModelConfig, omega: Configuration, geometry: BoxGeometry,
                                inner_sites, z: complex) -> tuple[float, float]:
    """Residuals of the first- and second-order geometric resolvent identities."""
    dep = depleted(model, omega, geometry, inner_sites)
    n = len(geometry)
    H = assemble_hamiltonian(model, omega, geometry).entries
    G = np.linalg.inv(H - z * np.eye(n, dtype=complex))
    Gd = np.linalg.inv(dep.depleted - z * np.eye(n, dtype=complex))
    T = dep.coupling
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
    d = geometry.dimension
    diam = u.diameter_linf()
    if L < diam + 2:
        raise ValueError(f"need L >= diam(supp u) + 2 = {diam + 2}, got {L}")
    supp = u.support()
    gamma = geometry.site_set()

    cube = build_box(L, (0,) * d)
    B = interior_boundary(cube)
    B_x = {site_add(b, x) for b in B}
    cube_x = {site_add(k, x) for k in cube.sites}

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
