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

from dataclasses import dataclass

import numpy as np

from .model import SingleSitePotential, _chain_values, _require
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
]


# ---------------------------------------------------------------------------
# deterministic interval arithmetic for compactly supported disorder


@dataclass(frozen=True)
class NegexampleConstants:
    theta_pos: tuple[int, ...]
    theta_neg: tuple[int, ...]
    theta_1: tuple[int, ...]
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
    vals = _chain_values(u)
    n = len(vals)
    if 0.0 in vals:
        raise ValueError("supp u must be the connected block {0..n-1}")
    theta_pos = tuple(k for k in range(n) if vals[k] > 0)
    theta_neg = tuple(k for k in range(n) if vals[k] < 0)
    u_max = max(abs(v) for v in vals)
    u_min = min(abs(v) for v in vals)
    s_plus = sum(vals[k] for k in theta_pos)
    if (n - 1) not in theta_pos:
        theta_1 = tuple(k + 1 for k in theta_pos)
    else:
        theta_1 = tuple(sorted(set(k + 1 for k in theta_pos if k + 1 < n) | {0}))
    m = sum(vals[k] for k in theta_1)
    c = n * u_max / u_min
    return NegexampleConstants(theta_pos, theta_neg, theta_1, s_plus, m, c, degenerate=(n == 1))


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
    _require("real", delta=delta, delta_prime=delta_prime)
    if isinstance(attempts, (int, np.integer)) and attempts < 2:
        raise ValueError(f"need at least 2 attempts, one proposal per coupling group, got {attempts}")
    _require("count", attempts=attempts)
    if not (delta >= delta_prime > 0):
        raise ValueError("need delta >= delta' > 0")
    const = negexample_constants(u)
    uv = np.array(_chain_values(u))
    n = len(uv)

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

    # V(0) = sum_k u(k) w[-k]: w[0] from group 2 (index 0), w[-k], k>=1 from group 1 (index n-k)
    v0 = acc2[:accepted, 0] * uv[0]
    if n > 1:
        v0 = v0 + acc1[:accepted, n - 1:0:-1] @ uv[1:]
    lo0, hi0 = const.m - const.c * delta, const.m + const.c * delta
    return {
        "accepted": accepted,
        "violations": int(np.sum((v0 < lo0 - 1e-12) | (v0 > hi0 + 1e-12))),
        "attempts": attempts,
        "inconclusive": accepted == 0,
        "constants": const,
        "v0_range": (float(np.min(v0)), float(np.max(v0))) if accepted else None,
        "target_interval": (lo0, hi0),
    }


# ---------------------------------------------------------------------------
# Gaussian conditionals for supp u = {-1, 0}


def s_l(a, l: int):
    """Geometric sum sum_{i=0..l} a^{2i} (s_0 = 1), elementwise for an array a."""
    _require("radius", l=l)
    return sum(a ** (2 * i) for i in range(l + 1))


def build_A_l(a, l: int) -> np.ndarray:
    """The l x (l+1) band matrix mapping couplings to potential values; one per entry of an array a."""
    A = np.zeros(np.shape(a) + (l, l + 1))
    i = np.arange(l)
    A[..., i, i] = 1.0
    A[..., i, i + 1] = np.asarray(a)[..., None]
    return A


def a_l_determinants(a: float, l: int) -> dict:
    """det(A_l A_l^T) by LU against the geometric sum, plus corner inverse entries.

    Both corners of the inverse equal s_{l-1} / s_l.  Also reports the sum
    started at i = 1 to document that this variant does not reproduce the
    determinant for any l.
    """
    _require("count", l=l)
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
    }


def _stack(a, sigma, l: int, m: int):
    """(a, sigma) as equal-length 1-D float arrays, plus whether both came as scalars."""
    _require("count", l=l)
    _require("radius", m=m)
    _require("real", a=a, sigma=sigma)
    if np.ndim(a) > 1 or np.ndim(sigma) > 1:
        raise ValueError("a and sigma must be scalars or 1-D arrays")
    scalar = np.ndim(a) == 0 and np.ndim(sigma) == 0
    a, sigma = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                                   np.atleast_1d(np.asarray(sigma, dtype=float)))
    return a, sigma, scalar


def _values(v, n: int, name: str) -> np.ndarray:
    """The n conditioning values (zeros when not given), shared by every (a, sigma) of a stack."""
    v = np.zeros(n) if v is None else np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}")
    return v


def _result(scalar: bool, mean: np.ndarray, var: np.ndarray):
    return (float(mean[0]), float(var[0])) if scalar else (mean, var)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] . y[i] for each row i, by the same BLAS dot as the 1-D product x[i] @ y[i]."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def gaussian_conditional(a, sigma, l: int, m: int, v_minus=None, v_plus=None):
    """(mean, variance) of V(0) given the l values to the right and m to the left.

    Closed forms: variance sigma^2 (a^2 - 1 + 1/s_m + 1/s_l) for m, l >= 1 and
    sigma^2 (a^2 + 1/s_l) for m = 0 (one-sided conditioning); the means use
    the corner rows of (A A^T)^{-1}.  Here a = u(-1) and u(0) = 1.  a and
    sigma may be equal-length 1-D arrays: the result is then a pair of arrays,
    from one stacked inverse per band matrix; scalars give a pair of floats.
    """
    a, sigma, scalar = _stack(a, sigma, l, m)
    if np.any(a == 0.0):
        raise ValueError("u(-1) = 0 decouples the sites; conditioning is vacuous")
    v_minus, v_plus = _values(v_minus, m, "v_minus"), _values(v_plus, l, "v_plus")
    Ml = build_A_l(a, l)
    right = _dot(np.linalg.inv(Ml @ Ml.transpose(0, 2, 1))[:, 0, :], v_plus)  # the corner term of the right values
    if m == 0:
        return _result(scalar, a * right, sigma ** 2 * (a ** 2 + 1.0 / s_l(a, l)))
    gamma = sigma ** 2 * (a ** 2 - 1.0 + 1.0 / s_l(a, m) + 1.0 / s_l(a, l))
    Mm = build_A_l(a, m)
    inv_m = np.linalg.inv(Mm @ Mm.transpose(0, 2, 1))
    return _result(scalar, a * (_dot(inv_m[:, m - 1, :], v_minus) + right), gamma)


def conditional_oracle(a, sigma, l: int, m: int, v_minus=None, v_plus=None):
    """Exact covariance algebra for the same conditional law.

    Y = V(0), W = (V(-m)..V(-1), V(1)..V(l)) as linear maps of i.i.d.
    N(0, sigma^2) couplings w_{-m}..w_{l+1}; mean and variance come from
    cov(Y,W) cov(W,W)^{-1} applied to the conditioning vector.  Array a and
    sigma are handled as in gaussian_conditional, with one stacked cond and
    one stacked solve.
    """
    a, sigma, scalar = _stack(a, sigma, l, m)
    v = np.concatenate([_values(v_minus, m, "v_minus"), _values(v_plus, l, "v_plus")])
    rows = build_A_l(a, l + m + 1)  # V(-m)..V(l)
    Y = rows[:, m]
    Wm = np.delete(rows, m, axis=1)
    s2 = sigma ** 2
    covYY = s2 * _dot(Y, Y)
    covWY = s2[:, None] * (Wm @ Y[..., None])[..., 0]
    covWW = s2[:, None, None] * (Wm @ Wm.transpose(0, 2, 1))
    singular = ~(np.linalg.cond(covWW) <= 1e14)
    if np.any(singular):
        members = ", ".join(f"(a={x!r}, sigma={s!r})"
                            for x, s in zip(a[singular].tolist(), sigma[singular].tolist()))
        raise np.linalg.LinAlgError(f"conditioning covariance is numerically singular at {members}")
    solve = np.linalg.solve(covWW, covWY[..., None])[..., 0]
    return _result(scalar, _dot(solve, v), covYY - _dot(covWY, solve))
