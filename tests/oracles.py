"""Scalar reference implementations that the vectorized code is tested against."""

from alloylab.model import SingleSitePotential, Site, _as_site, site_sub


def potential_value(u: SingleSitePotential, omega: dict[Site, float], x) -> float:
    """V(x) = sum_k omega_k u(x - k), an exact finite sum over supp u."""
    x = _as_site(x)
    total = 0.0
    for t in u.support():
        k = site_sub(x, t)
        if k not in omega:
            raise KeyError(f"configuration missing omega at {k} (needed for V({x}))")
        total += omega[k] * u.value(t)
    return total
