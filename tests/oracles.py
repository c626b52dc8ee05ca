"""Reference implementations that the package is tested against: scalar loops, and constants from the thesis formulas."""

import mpmath as mp

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


def gap_constants_reference(u: SingleSitePotential, density, coupling: float, s: float, alpha) -> dict:
    """d0, D, D_volume, D_plus and D_plus_volume of the gap construction at a given direction alpha.

    Written from the thesis formulas, at 30 digits.  With supp u in {0..n-1}, largest gap r,
    the window rows w_i = (u(i), u(i-1), .., u(i-r)) for i = 0..n+r-1, C_s = 2^s s^{-s} / (1-s),
    K(t) = ||rho||_inf^{(r+1)t} (2R)^{rt} C_s with R = max |supp rho|, t_l = s(l+1)/(n+r) and
    V_l = 2(l+1)(r+1)^{r/2}:

        d0            = 1 / ((n+r) (r+1)^{r/2})
        D_plus(l)     = K(t_l) |alpha_0|^{t_l} (1 + max_i |alpha_i / alpha_0|)^{rs}
                        prod_{i<=l} (lambda |<alpha, w_i>|)^{-s/(n+r)}
        D_plus_vol(l) = K(t_l) (1 + V_l)^{rs} V_l^s prod_{i<=l} (lambda ||w_i||)^{-s/(n+r)}

    D and D_volume are the full-period terms l = n+r-1 (t = s), D_plus and D_plus_volume the
    maxima over l = 0..n+r-1.
    """
    with mp.workdps(30):
        sites = [k[0] for k in u.support()]
        n = sites[-1] + 1
        r = max(b - a - 1 for a, b in zip(sites, sites[1:])) if len(sites) > 1 else 0
        s, lam = mp.mpf(s), mp.mpf(coupling)
        alpha = [mp.mpf(a) for a in alpha]
        rows = [[mp.mpf(u.value((i - k,))) for k in range(r + 1)] for i in range(n + r)]
        C_s = 2 ** s * s ** -s / (1 - s)
        ratio = max((abs(a / alpha[0]) for a in alpha[1:]), default=mp.mpf(0))

        def K(t):
            return mp.mpf(density.linf) ** ((r + 1) * t) * (2 * mp.mpf(density.support_radius)) ** (r * t) * C_s

        direct, volume = [], []
        for l in range(n + r):
            t = s * (l + 1) / (n + r)
            V = 2 * (l + 1) * mp.mpf(r + 1) ** (mp.mpf(r) / 2)
            dots = mp.fprod(lam * abs(mp.fdot(alpha, w)) for w in rows[: l + 1])
            norms = mp.fprod(lam * mp.sqrt(mp.fdot(w, w)) for w in rows[: l + 1])
            direct.append(K(t) * abs(alpha[0]) ** t * (1 + ratio) ** (r * s) * dots ** (-s / (n + r)))
            volume.append(K(t) * (1 + V) ** (r * s) * V ** s * norms ** (-s / (n + r)))
        return {
            "d0": float(1 / ((n + r) * mp.mpf(r + 1) ** (mp.mpf(r) / 2))),
            "D": float(direct[-1]),
            "D_volume": float(volume[-1]),
            "D_plus": float(max(direct)),
            "D_plus_volume": float(max(volume)),
        }
