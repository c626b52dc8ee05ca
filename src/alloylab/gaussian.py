"""Conditional-distribution structure of the alloy potential in d = 1.

Two stories live here.  For compactly supported disorder the potential
values are so strongly coupled that conditioning two of them pins a third
into a deterministic interval (an interval-arithmetic fact, checked by
rejection sampling).  For Gaussian disorder with supp u = {-1, 0} the
conditional law of V(0) given neighboring potential values is an explicit
Gaussian whose variance is a rational function of the geometric sums
s_l = sum_{i=0..l} u(-1)^{2i}; both the closed forms and the determinant
identity det(A_l A_l^T) = s_l are compared against exact covariance algebra.

Note the i = 0 term in s_l: dropping it breaks the determinant identity and
the agreement with the covariance computation, as direct evaluation shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SingleSitePotential, _chain_support
from .rng import trial_stream

__all__ = [
    "NegexampleConstants",
    "negexample_constants",
    "negexample_check",
    "s_l",
    "build_A_l",
    "a_l_determinants",
    "gaussian_conditional",
    "conditional_oracle",
    "holder_constant_probe",
]


# ---------------------------------------------------------------------------
# deterministic interval arithmetic for compactly supported disorder


@dataclass(frozen=True)
class NegexampleConstants:
    theta_pos: tuple[int, ...]
    theta_neg: tuple[int, ...]
    theta_1: tuple[int, ...]
    theta_0: tuple[int, ...]
    s_plus: float
    m: float
    c: float
    degenerate: bool  # n = 1 collapses the conditioning sites onto V(0) itself


def negexample_constants(u: SingleSitePotential) -> NegexampleConstants:
    """Constants of the pinned-interval construction for connected supp u.

    Requires d = 1, supp u = {0..n-1} with all values nonzero (u_min enters a
    denominator).  The set Theta_1 collects the sites whose couplings are
    forced near 1 by the conditioning; m is the u-mass on Theta_1 and
    c = n u_max / u_min controls the interval half-width.
    """
    supp = _chain_support(u)
    n = supp[-1] + 1
    if supp != list(range(n)):
        raise ValueError("supp u must be the connected block {0..n-1}")
    vals = {k: u.value((k,)) for k in supp}
    if any(v == 0.0 for v in vals.values()):
        raise ValueError("all values on the support must be nonzero")
    theta_pos = tuple(k for k in supp if vals[k] > 0)
    theta_neg = tuple(k for k in supp if vals[k] < 0)
    u_max = max(abs(v) for v in vals.values())
    u_min = min(abs(v) for v in vals.values())
    s_plus = sum(vals[k] for k in theta_pos)
    if (n - 1) not in theta_pos:
        theta_1 = tuple(k + 1 for k in theta_pos)
    else:
        theta_1 = tuple(sorted(set(k + 1 for k in theta_pos if k + 1 in vals) | {0}))
    theta_0 = tuple(k for k in supp if k not in theta_1)
    m = sum(vals[k] for k in theta_1)
    c = n * u_max / u_min
    return NegexampleConstants(theta_pos, theta_neg, theta_1, theta_0,
                               s_plus, m, c, degenerate=(n == 1))


def negexample_check(u: SingleSitePotential, delta: float, delta_prime: float,
                     attempts: int, seed: int = 0) -> dict:
    """Rejection-sample the conditioning event and count pinning violations.

    Draws uniform(0,1) couplings, conditions on V(-1), V(n-1) both landing in
    [s+ - delta', s+], and verifies V(0) in [m - c delta, m + c delta].  The
    two conditioning events involve disjoint coupling groups (negative vs
    nonnegative indices), so each group is rejection-sampled independently,
    which is an exact draw from the conditional law with far fewer wasted
    proposals than conditioning jointly.
    """
    if not (delta >= delta_prime > 0):
        raise ValueError("need delta >= delta' > 0")
    if attempts < 2:
        raise ValueError(f"need at least 2 attempts, one proposal per coupling group, got {attempts}")
    const = negexample_constants(u)
    supp = [k[0] for k in u.support()]
    n = max(supp) + 1
    uv = np.array([u.value((k,)) for k in range(n)])

    # V(-1) = sum_k u(k) w[-1-k] over k=0..n-1 -> couplings at -n..-1
    # V(n-1) = sum_k u(k) w[n-1-k]            -> couplings at 0..n-1
    # V(0)  = sum_k u(k) w[-k] -> uses w[-(n-1)..0], one from each group
    lo, hi = const.s_plus - delta_prime, const.s_plus

    rng = trial_stream(seed, 0)
    budget_per_group = attempts // 2
    group_draws_1 = rng.random((budget_per_group, n))   # w at -n..-1 (index j = w[-n + j])
    group_draws_2 = rng.random((budget_per_group, n))   # w at 0..n-1

    # V(-1) in terms of group 1: w[-1-k] = row[n-1-k]
    v_minus = group_draws_1[:, ::-1] @ uv
    v_plus = group_draws_2[:, ::-1] @ uv
    acc1 = group_draws_1[(v_minus >= lo) & (v_minus <= hi)]
    acc2 = group_draws_2[(v_plus >= lo) & (v_plus <= hi)]
    accepted = min(len(acc1), len(acc2))
    if accepted == 0:
        return {
            "accepted": 0,
            "violations": 0,
            "violation_fraction": None,
            "attempts": attempts,
            "inconclusive": True,
            "constants": const,
        }

    # V(0) = sum_k u(k) w[-k]: w[0] from group 2 (index 0), w[-k], k>=1 from group 1 (index n-k)
    v0 = acc2[:accepted, 0] * uv[0]
    if n > 1:
        v0 = v0 + acc1[:accepted, n - 1:0:-1] @ uv[1:]
    lo0, hi0 = const.m - const.c * delta, const.m + const.c * delta
    violations = int(np.sum((v0 < lo0 - 1e-12) | (v0 > hi0 + 1e-12)))
    return {
        "accepted": accepted,
        "violations": violations,
        "violation_fraction": violations / accepted,
        "attempts": attempts,
        "inconclusive": False,
        "constants": const,
        "v0_range": (float(np.min(v0)), float(np.max(v0))),
        "target_interval": (lo0, hi0),
    }


# ---------------------------------------------------------------------------
# Gaussian conditionals for supp u = {-1, 0}


def s_l(a: float, l: int) -> float:
    """Geometric sum sum_{i=0..l} a^{2i} (s_0 = 1)."""
    if l < 0:
        raise ValueError("l must be >= 0")
    return sum(a ** (2 * i) for i in range(l + 1))


def build_A_l(a: float, l: int) -> np.ndarray:
    """The l x (l+1) band matrix mapping couplings to potential values."""
    A = np.zeros((l, l + 1))
    for i in range(l):
        A[i, i] = 1.0
        A[i, i + 1] = a
    return A


def a_l_determinants(a: float, l: int) -> dict:
    """det(A_l A_l^T) by LU against the geometric sum, plus corner inverse entries.

    Also reports the sum started at i = 1 to document that this variant does
    not reproduce the determinant for any l.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    A = build_A_l(a, l)
    M = A @ A.T
    det = float(np.linalg.det(M))
    Minv = np.linalg.inv(M)
    return {
        "det": det,
        "s_l": s_l(a, l),
        "s_l_from_one": s_l(a, l) - 1.0,
        "corner_11": float(Minv[0, 0]),
        "corner_ll": float(Minv[l - 1, l - 1]),
        "corner_expected": s_l(a, l - 1) / s_l(a, l),
    }


def gaussian_conditional(a: float, sigma: float, l: int, m: int,
                         v_minus=None, v_plus=None) -> tuple[float, float]:
    """(mean, variance) of V(0) given the l values to the right and m to the left.

    Closed forms: variance sigma^2 (a^2 - 1 + 1/s_m + 1/s_l) for m, l >= 1 and
    sigma^2 (a^2 + 1/s_l) for m = 0 (one-sided conditioning); the means use
    the corner rows of (A A^T)^{-1}.  Here a = u(-1) and u(0) = 1.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    if m < 0:
        raise ValueError("need m >= 0")
    if a == 0.0:
        raise ValueError("u(-1) = 0 decouples the sites; conditioning is vacuous")
    v_plus = np.zeros(l) if v_plus is None else np.asarray(v_plus, dtype=float)
    if v_plus.shape != (l,):
        raise ValueError("v_plus must have length l")
    if m == 0:
        gamma = sigma ** 2 * (a ** 2 + 1.0 / s_l(a, l))
        Ml = build_A_l(a, l)
        inv_l = np.linalg.inv(Ml @ Ml.T)
        mean = a * float(inv_l[0, :] @ v_plus)
        return mean, gamma
    v_minus = np.zeros(m) if v_minus is None else np.asarray(v_minus, dtype=float)
    if v_minus.shape != (m,):
        raise ValueError("v_minus must have length m")
    gamma = sigma ** 2 * (a ** 2 - 1.0 + 1.0 / s_l(a, m) + 1.0 / s_l(a, l))
    Ml = build_A_l(a, l)
    Mm = build_A_l(a, m)
    inv_l = np.linalg.inv(Ml @ Ml.T)
    inv_m = np.linalg.inv(Mm @ Mm.T)
    mean = a * (float(inv_m[m - 1, :] @ v_minus) + float(inv_l[0, :] @ v_plus))
    return mean, gamma


def conditional_oracle(a: float, sigma: float, l: int, m: int,
                       v_minus=None, v_plus=None) -> tuple[float, float]:
    """Exact covariance algebra for the same conditional law.

    Y = V(0), W = (V(-m)..V(-1), V(1)..V(l)) as linear maps of i.i.d.
    N(0, sigma^2) couplings; mean and variance come from
    cov(Y,W) cov(W,W)^{-1} applied to the conditioning vector.
    """
    if l < 1 or m < 0:
        raise ValueError("need l >= 1 and m >= 0")
    idx = list(range(-m - 1, l + 2))  # couplings w_j entering the involved values
    pos = {j: i for i, j in enumerate(idx)}
    dim = len(idx)

    def value_row(x: int) -> np.ndarray:
        row = np.zeros(dim)
        row[pos[x]] = 1.0       # u(0) = 1
        row[pos[x + 1]] = a     # u(-1) = a
        return row

    Y = value_row(0)
    rows = [value_row(k) for k in range(-m, 0)] + [value_row(k) for k in range(1, l + 1)]
    Wm = np.array(rows)
    s2 = sigma ** 2
    covYY = s2 * float(Y @ Y)
    covWY = s2 * (Wm @ Y)
    covWW = s2 * (Wm @ Wm.T)
    if np.linalg.cond(covWW) > 1e14:
        raise np.linalg.LinAlgError("conditioning covariance is numerically singular")
    solve = np.linalg.solve(covWW, covWY)
    var = covYY - float(covWY @ solve)
    v_minus = np.zeros(m) if v_minus is None else np.asarray(v_minus, dtype=float)
    v_plus = np.zeros(l) if v_plus is None else np.asarray(v_plus, dtype=float)
    v = np.concatenate([v_minus, v_plus])
    mean = float(solve @ v)
    return mean, var


def holder_constant_probe(a: float, sigma: float, L_values) -> dict[int, float]:
    """Minimal conditional standard deviation over the interior of each box.

    For |a| != 1 the two-sided conditional variance is bounded below by
    sigma^2 |a^2 - 1| uniformly in the box size; at |a| = 1 it decays like
    1/L, which is exactly the obstruction to a size-uniform regularity
    constant.  Returns {L: min conditional std over interior sites}.
    """
    out = {}
    for L in L_values:
        best = math.inf
        # site x in {-L..L}; l = distance to the right edge, m = to the left
        for x in range(-L, L + 1):
            l = L - x
            m = x + L
            if l < 1:
                continue
            _, gamma = gaussian_conditional(a, sigma, l, m)
            best = min(best, math.sqrt(max(gamma, 0.0)))
        out[int(L)] = best
    return out
