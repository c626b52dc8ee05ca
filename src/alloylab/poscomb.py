"""Positive combinations of translated single-site potentials.

The generating function F(z) = sum_k u(-k) z^k has a leading non-vanishing
derivative at z = (1,...,1); its multi-index I0 and value c_u produce
coefficient vectors t(k) = 2 k^I0 / c_u whose convolution with u is uniformly
>= 1 on a box, which is the input the eigenvalue-count bound needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    SingleSitePotential,
    Site,
    _as_site,
    _require,
    _tail_sum,
    build_box,
    l1_norm,
    site_sub,
)

__all__ = [
    "MultiIndex",
    "LeadingDerivative",
    "falling_factorial",
    "generating_derivative",
    "find_I0",
    "prop1_sum",
    "compute_R_l",
    "prop2_min",
    "wegner_coefficients",
    "multi_indices_of_degree",
    "exponential_envelope",
]

MultiIndex = tuple[int, ...]


def multi_indices_of_degree(d: int, degree: int) -> list[MultiIndex]:
    """All I in N_0^d with |I| = degree, lexicographically sorted."""
    if d == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in multi_indices_of_degree(d - 1, degree - first):
            out.append((first,) + rest)
    return sorted(out)


def falling_factorial(k: int, i: int) -> float:
    """k (k-1) ... (k-i+1); equals 1 for i = 0.  Negative k allowed."""
    out = 1.0
    for j in range(i):
        out *= k - j
    return out


def power(k: Site, I: MultiIndex) -> float:
    """k^I with the empty-product convention 0^0 = 1."""
    out = 1.0
    for kj, ij in zip(k, I):
        if ij:
            out *= float(kj) ** ij
    return out


def generating_derivative(u: SingleSitePotential, I) -> float:
    """D^I F at z = 1 as the exact finite sum of falling factorials.

    F(z) = sum_k u(-k) z^k, so D^I F(1) = sum_k u(-k) prod_j ff(k_j, i_j),
    evaluated over the (possibly truncated) support of u.
    """
    I = tuple(int(i) for i in I)
    total = 0.0
    for t in u.support():
        k = tuple(-c for c in t)  # u(-k) != 0 exactly when -k in supp u
        term = u.value(t)
        for kj, ij in zip(k, I):
            term *= falling_factorial(kj, ij)
        total += term
    return total


@dataclass(frozen=True)
class LeadingDerivative:
    I0: MultiIndex
    c_u: float
    truncation_error: float


def _vanish_tolerance(u: SingleSitePotential, degree: int) -> float:
    """Scale-aware zero threshold for D^I F(1) at the given total degree."""
    scale = 0.0
    for t in u.support():
        k = tuple(-c for c in t)
        ff_max = max(abs(falling_factorial(kj, degree)) for kj in k) if degree else 1.0
        scale += abs(u.value(t)) * max(1.0, ff_max)
    return 1e-9 * max(1.0, scale)


def find_I0(u: SingleSitePotential, degree_cap: int = 12) -> LeadingDerivative:
    """Diagonal inspection: smallest total degree with a non-vanishing D^I F(1).

    Within the minimal degree the lexicographically smallest qualifying
    multi-index is chosen, which makes the output deterministic.
    """
    d = u.dimension
    for degree in range(degree_cap + 1):
        tol = _vanish_tolerance(u, degree)
        hits = []
        for I in multi_indices_of_degree(d, degree):
            val = generating_derivative(u, I)
            if abs(val) > tol:
                hits.append((I, val))
        if hits:
            I0, c_u = hits[0]
            # the tail of D^I0 F(1) that truncating u discards: |prod ff(k_j, i_j)| <= (|k|_1 + |I0|)^|I0|
            return LeadingDerivative(I0, c_u, _tail_sum(u, sum(I0)))
    raise ValueError(f"all derivatives up to total degree {degree_cap} vanish within tolerance")


def prop1_sum(u: SingleSitePotential, I, x) -> float:
    """sum_k k^I u(x - k) over the effective support (exact finite sum)."""
    I = tuple(int(i) for i in I)
    x = _as_site(x, "x")
    total = 0.0
    for t in u.support():
        k = site_sub(x, t)
        total += power(k, I) * u.value(t)
    return total


def compute_R_l(C: float, alpha: float, c_u: float, I0, l: int, d: int) -> tuple[float, int]:
    """Exhaustion radius for the uniformly positive combination on the l-box.

    R_l = max(2l + (2/alpha) ln(2 3^d C / (|c_u| (1 - e^{-alpha/2}))),
              8 (d + |I0|)^2 / alpha^2); the integer box radius is its ceiling.
    """
    _require("radius", l=l)
    _require("positive", C=C, alpha=alpha)
    if c_u == 0:
        raise ValueError("c_u must be nonzero")
    deg = sum(int(i) for i in I0)
    first = 2 * l + (2.0 / alpha) * math.log(2.0 * 3 ** d * C / (abs(c_u) * (1.0 - math.exp(-alpha / 2.0))))
    second = 8.0 * (d + deg) ** 2 / alpha ** 2
    R = max(first, second)
    return R, int(math.ceil(R))


def exponential_envelope(u: SingleSitePotential) -> tuple[float, float]:
    """(C, alpha) with |u(k)| <= C e^{-alpha |k|_1} over the effective support: the tail's, or alpha = 1."""
    if u.tail_amplitude is not None:
        return u.tail_amplitude, u.tail_rate
    return max(abs(u.value(k)) * math.exp(l1_norm(k)) for k in u.support()), 1.0


def prop2_min(u: SingleSitePotential, l: int, R_int: int, lead: LeadingDerivative) -> float:
    """min over x in the l-box of (2/c_u) sum_{k in R-box} k^I0 u(x - k).

    R_int and lead are ``wegner_coefficients``' radius and ``find_I0``'s result.
    """
    d = u.dimension
    box_l = build_box(l, (0,) * d)
    best = math.inf
    supp = u.support()
    for x in box_l.sites:
        total = 0.0
        for t in supp:
            k = site_sub(x, t)
            if max(abs(c) for c in k) <= R_int:
                total += power(k, lead.I0) * u.value(t)
        best = min(best, 2.0 * total / lead.c_u)
    return best


def wegner_coefficients(u: SingleSitePotential, l: int,
                        lead: LeadingDerivative | None = None) -> dict:
    """The coefficient family t(k) = 2 k^I0 / c_u on the R_l-box.

    Returns the radius, the per-site l1 norm (identical for every box site j)
    and the total sum over j of those norms, which feeds the eigenvalue-count
    bound together with the interval length and the density's variation.
    """
    if lead is None:
        lead = find_I0(u)
    C, alpha = exponential_envelope(u)
    d = u.dimension
    R, R_int = compute_R_l(C, alpha, lead.c_u, lead.I0, l, d)
    box_R = build_box(R_int, (0,) * d)
    abs_powers = sum(abs(power(k, lead.I0)) for k in box_R.sites)
    per_j = 2.0 / abs(lead.c_u) * abs_powers
    total = (2 * l + 1) ** d * per_j
    return {
        "c_u": lead.c_u,
        "R": R,
        "R_int": R_int,
        "t_l1_per_site": per_j,
        "t_l1_total": total,
    }
