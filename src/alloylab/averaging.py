"""Spectral-averaging checks: quadrature integrals against closed-form bounds.

Each check pairs a numerically evaluated average (adaptive quadrature split
at the integrable algebraic singularities, the roots of the relevant
determinant polynomial, and at the density's knots, with QAWS at a real
scalar pole, or Monte Carlo for multi-variable averages) with the
corresponding closed-form upper bound; the
margin bound - integral should be nonnegative up to the integration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DisorderDensity
from .rng import trial_stream

__all__ = [
    "AverageCheck",
    "graf_check",
    "det_average_check",
    "detgen_check",
    "resolvent_average_check",
    "nonmonotone_average_check",
]


@dataclass(frozen=True)
class AverageCheck:
    integral_value: float
    bound_value: float
    error: float          # quadrature error estimate, or 3x MC standard error

    @property
    def margin(self) -> float:
        return self.bound_value - self.integral_value

    def holds(self) -> bool:
        return self.integral_value <= self.bound_value + self.error


def _fractional_prefactor(s: float) -> float:
    """2^s s^{-s} / (1 - s), the constant of the one-pole average."""
    if not 0.0 < s < 1.0:
        raise ValueError("exponent s must lie in (0, 1)")
    return 2.0 ** s * s ** (-s) / (1.0 - s)


def _check_trials(trials: int) -> None:
    """The contract of every MC estimator: at least one trial, checked before any stream is derived."""
    if trials < 1:
        raise ValueError("need at least one trial")


def _mean_stderr(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-column MC mean and standard error of samples stacked along axis 0.

    Each column is reduced along a contiguous row of the transposed block,
    which takes the pairwise sum of that column alone, so it matches
    np.mean / np.std(ddof=1) of the column bit for bit; an axis-0 reduction
    sums row by row instead.  A single trial or a constant column (e.g. no
    disorder) has stderr 0.
    """
    samples = np.asarray(samples, dtype=float)
    trials = len(samples)
    columns = np.ascontiguousarray(np.atleast_2d(samples.T))
    mean = np.mean(columns, axis=1)
    stderr = np.zeros(len(columns))
    if trials > 1:  # np.std(ddof=1) of one trial warns of a division by zero
        stderr = np.where(np.ptp(columns, axis=1) > 0.0, np.std(columns, axis=1, ddof=1) / math.sqrt(trials), 0.0)
    return mean.reshape(samples.shape[1:]), stderr.reshape(samples.shape[1:])


def _integrate(f, density: DisorderDensity, singular_points) -> tuple[float, float]:
    """Adaptive quadrature of f * rho over the support, split at singularities and at the density's knots."""
    from scipy.integrate import quad  # slow to import, and only the quadrature checks need it

    lo, hi = density.a, density.b
    singular = {float(p) for p in singular_points if lo < p < hi}
    # a knot by a singular point would leave a panel too narrow for quad's nodes to miss the singularity
    knots = {t for t in density.breakpoints if all(abs(t - p) > 1e-9 * (hi - lo) for p in singular)}
    pts = sorted(singular | knots)
    pdf = density.pdf
    val, err = quad(lambda t: f(t) * pdf(t), lo, hi, points=pts or None, limit=400)
    return float(val), float(err)


def _pencil(A, V, s: float) -> tuple:
    """(A, V, log|det V|, roots of det(A + rV) = eigenvalues of -V^{-1} A, s/n); V must be invertible."""
    A = np.asarray(A, dtype=complex)
    V = np.asarray(V, dtype=complex)
    sign, logdetV = np.linalg.slogdet(V)
    if sign == 0 or not np.isfinite(logdetV):
        raise ValueError("V must be invertible")
    return A, V, logdetV, np.linalg.eigvals(-np.linalg.solve(V, A)), s / A.shape[0]


def _check_dissipative(A: np.ndarray) -> None:
    """Im A = (A - A^*) / 2i must be positive semidefinite, up to -1e-10."""
    if float(np.min(np.linalg.eigvalsh((A - A.conj().T) / 2j))) < -1e-10:
        raise ValueError("A must be dissipative (nonnegative imaginary part)")


def _det_power(r: float, logdetV: float, roots, p: float) -> float:
    """|det(A + rV)|^{-p} = exp(-p (log|det V| + sum_i log|r - r_i|)) over the pencil roots r_i; +inf on a root."""
    dists = [abs(r - x) for x in roots]
    return math.inf if 0.0 in dists else math.exp(-p * (logdetV + sum(map(math.log, dists))))


# ---------------------------------------------------------------------------
# scalar pole average


def _real_pole_average(density: DisorderDensity, s: float, beta: float) -> tuple[float, float]:
    """integral of |t - beta|^{-s} rho(t) dt for real beta, panel by panel between the knots and beta.

    A panel that ends at beta goes to QUADPACK's QAWS (Piessens et al., 1983)
    with |t - beta|^{-s} as its algebraic end weight, in u = t - beta so that
    a panel of a few ulps keeps its resolution.  QAWS evaluates only rho, never
    the pole, so no knot beside it is dropped: dropping one put its kink inside
    the QAWS panel, where the error estimate missed it.  Every other panel is
    integrated in u = log|t - beta|, which turns a pole just beyond its end (a
    pole just outside the support, or just across a knot) into the smooth
    integrand e^{(1-s)u} rho(t); QAGS in t extrapolated such a panel to the
    limit of a pole on its end, e.g. 5.0000000010 for 4.9207553414.
    """
    from scipy.integrate import quad  # slow to import, and only the quadrature checks need it

    pdf = density.pdf
    inside = [beta] if density.a < beta < density.b else []
    edges = sorted({density.a, density.b, *density.breakpoints, *inside})
    val = err = 0.0
    for x, y in zip(edges, edges[1:]):
        # clamped, since beta + u may round out of the panel, where rho can jump to 0
        if beta in (x, y):
            v, e = quad(lambda u: pdf(min(max(beta + u, x), y)), x - beta, y - beta,
                        weight="alg", wvar=(-s, 0.0) if x == beta else (0.0, -s))
        else:
            side = math.copysign(1.0, x - beta)
            ends = sorted((math.log(abs(x - beta)), math.log(abs(y - beta))))
            v, e = quad(lambda u: math.exp((1.0 - s) * u) * pdf(min(max(beta + side * math.exp(u), x), y)),
                        *ends, limit=400)
        val += v
        err += e
    return val, err


def graf_check(density: DisorderDensity, s: float, beta: complex) -> AverageCheck:
    """integral of |xi - beta|^{-s} rho(xi) dxi against the one-pole bound."""
    bound = density.linf ** s * density.l1 ** (1.0 - s) * _fractional_prefactor(s)  # checks s before any quadrature
    beta = complex(beta)
    if abs(beta.imag) < 1e-14:
        val, err = _real_pole_average(density, s, beta.real)
    else:
        val, err = _integrate(lambda t: abs(t - beta) ** (-s), density, [])
    return AverageCheck(val, bound, err)


# ---------------------------------------------------------------------------
# determinant and resolvent averages


def det_average_check(A: np.ndarray, V: np.ndarray, density: DisorderDensity, s: float) -> AverageCheck:
    """integral of |det(A + rV)|^{-s/n} rho(r) dr against |det V|^{-s/n} times the pole bound."""
    A, V, logdetV, roots, p = _pencil(A, V, s)
    roots_list = roots.tolist()  # one log per root at each node, not one determinant
    val, err = _integrate(lambda r: _det_power(r, logdetV, roots_list, p), density, roots.real)
    bound = math.exp(-p * logdetV) * density.l1 ** (1.0 - s) * density.linf ** s * _fractional_prefactor(s)
    return AverageCheck(val, bound, err)


def detgen_check(A: np.ndarray, Vs, alpha, density: DisorderDensity, t: float,
                 trials: int = 20000, seed: int = 0) -> AverageCheck:
    """Multi-variable determinant average by Monte Carlo against the coupled bound.

    The (N+1)-dimensional integral of |det(A + sum_i r_i V_i)|^{-t/n} over the
    product density is estimated by direct sampling; the bound involves the
    combination sum_k alpha_k V_k, which must be invertible with alpha_0 != 0.
    """
    A = np.asarray(A, dtype=complex)
    Vs = [np.asarray(V, dtype=complex) for V in Vs]
    alpha = np.asarray(alpha, dtype=float)
    N = len(Vs) - 1
    n = A.shape[0]
    if alpha.shape != (N + 1,):
        raise ValueError("alpha must have one entry per matrix")
    if alpha[0] == 0:
        raise ValueError("alpha_0 must be nonzero")
    comb = sum(a * V for a, V in zip(alpha, Vs))
    sign, logdet_comb = np.linalg.slogdet(comb)
    if sign == 0 or not np.isfinite(logdet_comb):
        raise ValueError("sum_k alpha_k V_k must be invertible")
    pref = _fractional_prefactor(t)
    _check_trials(trials)

    draws = density.sample(trial_stream(seed, 0).random((trials, N + 1)))
    # one stack of A + sum_k r_k V_k, summed in the order of k, and one slogdet;
    # math.exp per trial, since np.exp may differ from it in the last ulp
    M = np.broadcast_to(A, (trials, n, n)).copy()
    for k, V in enumerate(Vs):
        M += draws[:, k, None, None] * V
    p = t / n
    vals = np.array([math.exp(-p * float(ld)) for ld in np.linalg.slogdet(M)[1]])  # -inf when singular
    mean, stderr = _mean_stderr(vals)

    ratio = 0.0 if N == 0 else max(abs(alpha[i]) / abs(alpha[0]) for i in range(1, N + 1))
    R = density.support_radius
    bound = (math.exp(-p * logdet_comb) * abs(alpha[0]) ** t * (1.0 + ratio) ** (N * t)
             * pref * (2.0 * R) ** (N * t) * density.linf ** ((N + 1) * t))
    return AverageCheck(float(mean), bound, 3.0 * float(stderr))


def _smallest_singular_value(m: list) -> float:
    """sigma_min of the n x n matrix M, n <= 3, from its row-major entries m (Python scalars, |m_ij| <= 1).

    With F = ||M||_F^2 and D = |det M|, in closed form:
    - n = 1: |m|.
    - n = 2: D / sigma_max, with sigma_max^2 = (F + sqrt(F^2 - 4D^2)) / 2.  The
      discriminant is taken as (p - t)^2 + 4|q|^2 over M^*M = [[p, q], [q*, t]],
      which is the same number but does not cancel when sigma_1 ~ sigma_2.
    - n = 3: D / sqrt(y_1), where y_1 = sigma_1^2 sigma_2^2 is the largest root
      of y^3 - G y^2 + F D^2 y - D^4 and G = ||adj M||_F^2 is the sum of the
      squared cofactors.  Newton from y = G, above every root, falls to it
      monotonically.  Near a double root (sigma_2 ~ sigma_3) the coefficients
      fix y_1 only to about sqrt(eps), 5e-6 relative at M = I, so where the
      rounding bound eps * S / (p'(y) y) on y exceeds about 1e-14, with S the
      sum of the moduli of the cubic's terms, svd answers instead.
    D = 0 gives 0.0.  The m_ij are at most 1 in modulus so that D^4 and y^3
    neither overflow nor underflow.
    """
    if len(m) == 1:
        return abs(m[0])
    if len(m) == 4:
        a, b, c, d = m
        D = abs(a * d - b * c)
        if D == 0.0:
            return 0.0
        p, t = abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2
        return D / math.sqrt((p + t + math.hypot(p - t, 2.0 * abs(a.conjugate() * b + c.conjugate() * d))) / 2.0)
    a, b, c, d, e, f, g, h, i = m
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    D = abs(a * c0 + b * c1 + c * c2)
    if D == 0.0:
        return 0.0
    G = math.hypot(*map(abs, (c0, c1, c2, c * h - b * i, a * i - c * g, b * g - a * h,
                             b * f - c * e, c * d - a * f, a * e - b * d))) ** 2
    FD2 = math.hypot(*map(abs, m)) ** 2 * D * D
    D4 = D ** 4
    y, slope = G, G * G + FD2  # p(G) > 0 and p'(G) > 0
    while slope > 0.0:  # p' can reach 0 only by rounding, beside a near-double root
        below = y - (((y - G) * y + FD2) * y - D4) / slope
        if not below < y:
            break
        y, slope = below, (3.0 * below - 2.0 * G) * below + FD2
    if not ((y + G) * y * y + FD2 * y + D4) < 100.0 * slope * y:  # also when p'(y) <= 0
        return float(np.linalg.svd(np.reshape(m, (3, 3)), compute_uv=False)[-1])
    return D / math.sqrt(y)


def resolvent_average_check(A: np.ndarray, V: np.ndarray, density: DisorderDensity, s: float) -> AverageCheck:
    """integral of ||(A + rV)^{-1}||^{s/n} rho(r) dr against the norm-determinant bound."""
    A, V, logdetV, roots, p = _pencil(A, V, s)
    n = A.shape[0]
    R = density.support_radius
    if n <= 3:
        # a power of 2 scales every entry of A + rV on the support to modulus <= 1 without rounding
        scale = 2.0 ** -math.frexp(float(np.abs(A).max() + R * np.abs(V).max()))[1]
        a, v = (scale * A).ravel().tolist(), (scale * V).ravel().tolist()
        smallest = lambda r: _smallest_singular_value([x + r * y for x, y in zip(a, v)]) / scale
    else:
        smallest = lambda r: float(np.linalg.svd(A + r * V, compute_uv=False)[-1])

    def f(r):
        sigma = smallest(r)
        return math.inf if sigma == 0.0 else sigma ** (-p)

    val, err = _integrate(f, density, roots.real)
    normA = float(np.linalg.norm(A, 2))
    normV = float(np.linalg.norm(V, 2))
    bound = (density.l1 ** (1.0 - s) * density.linf ** s * (normA + R * normV) ** (s * (n - 1) / n)
             * _fractional_prefactor(s) * math.exp(-(s / n) * logdetV))
    return AverageCheck(val, bound, err)


def nonmonotone_average_check(A: np.ndarray, W: np.ndarray, density: DisorderDensity,
                              s: float, x: int, y: int, z: complex) -> AverageCheck:
    """Matrix-element average over a positive multiplication direction.

    integral of |<e_x, (A + tW - z)^{-1} e_y>|^s rho(t) dt against
    8 * 4^{-s} [W(x)W(y)]^{-s/2} ||rho||_inf^s 2^s s^{-s} / (1-s); needs a
    density with an integrable derivative, Im(A) >= 0 and Im(z) < 0.
    """
    A = np.asarray(A, dtype=complex)
    W = np.asarray(W, dtype=float)
    n = A.shape[0]
    wdiag = np.diag(W)
    if not np.allclose(W, np.diag(wdiag)) or np.min(wdiag) < 0:
        raise ValueError("W must be a nonnegative diagonal multiplication operator")
    if wdiag[x] <= 0 or wdiag[y] <= 0:
        raise ValueError("W must be positive at the probed sites")
    if complex(z).imag >= 0:
        raise ValueError("z must lie in the lower half-plane")
    _check_dissipative(A)
    if density.deriv_l1 is None:
        raise ValueError("density must have an integrable derivative (raised_cosine or end-matched piecewise_linear)")

    ey = np.zeros(n)
    ey[y] = 1.0

    def f(t):
        M = A + t * W - complex(z) * np.eye(n)
        col = np.linalg.solve(M, ey.astype(complex))
        return abs(col[x]) ** s

    val, err = _integrate(f, density, [])
    bound = (8.0 * 4.0 ** (-s) / (wdiag[x] * wdiag[y]) ** (s / 2.0)
             * density.linf ** s * _fractional_prefactor(s))
    return AverageCheck(val, bound, err)
