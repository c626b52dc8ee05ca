"""Spectral-averaging checks: quadrature integrals against closed-form bounds.

Each check pairs a numerically evaluated average (adaptive quadrature split
at the integrable algebraic singularities, the roots of the relevant
determinant polynomial, and at the density's knots, or Monte Carlo for
multi-variable averages) with the corresponding closed-form upper bound; the
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
    "graf_bound_value",
    "graf_check",
    "det_average_check",
    "detgen_check",
    "norm_inverse_check",
    "resolvent_average_check",
    "dissipative_average_check",
    "nonmonotone_average_check",
]


@dataclass(frozen=True)
class AverageCheck:
    integral_value: float
    bound_value: float
    error: float          # quadrature error estimate, or 3x MC standard error
    method: str           # "quadrature" or "monte-carlo"

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

    Each column is reduced as its own contiguous 1-D array, so it matches
    np.mean / np.std(ddof=1) of that column alone bit for bit; an axis-0
    reduction sums row by row instead.  A single trial or a constant column
    (e.g. no disorder) has stderr 0.
    """
    samples = np.asarray(samples, dtype=float)
    trials = len(samples)
    columns = np.ascontiguousarray(np.atleast_2d(samples.T))
    mean = np.array([np.mean(c) for c in columns])
    stderr = np.array([np.std(c, ddof=1) / math.sqrt(trials) if trials > 1 and np.ptp(c) > 0.0 else 0.0
                       for c in columns])
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


def _pencil_roots(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Roots of det(A + rV) as eigenvalues of -V^{-1} A."""
    return np.linalg.eigvals(-np.linalg.solve(V, A))


def _pencil(A, V, s: float) -> tuple:
    """(A, V, log|det V|, roots of det(A + rV), s/n) for an average over the pencil A + rV; V must be invertible."""
    A = np.asarray(A, dtype=complex)
    V = np.asarray(V, dtype=complex)
    sign, logdetV = np.linalg.slogdet(V)
    if sign == 0 or not np.isfinite(logdetV):
        raise ValueError("V must be invertible")
    return A, V, logdetV, _pencil_roots(A, V), s / A.shape[0]


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


def graf_bound_value(density: DisorderDensity, s: float) -> float:
    return density.linf ** s * density.l1 ** (1.0 - s) * _fractional_prefactor(s)


def graf_check(density: DisorderDensity, s: float, beta: complex) -> AverageCheck:
    """integral of |xi - beta|^{-s} rho(xi) dxi against the one-pole bound."""
    bound = graf_bound_value(density, s)  # checks the exponent before any quadrature
    beta = complex(beta)
    singular = [beta.real] if abs(beta.imag) < 1e-14 else []
    f = lambda t: abs(t - beta) ** (-s)
    val, err = _integrate(f, density, singular)
    return AverageCheck(val, bound, err, "quadrature")


# ---------------------------------------------------------------------------
# determinant and resolvent averages


def det_average_check(A: np.ndarray, V: np.ndarray, density: DisorderDensity, s: float) -> AverageCheck:
    """integral of |det(A + rV)|^{-s/n} rho(r) dr against |det V|^{-s/n} times the pole bound."""
    A, V, logdetV, roots, p = _pencil(A, V, s)
    roots_list = roots.tolist()  # one log per root at each node, not one determinant
    val, err = _integrate(lambda r: _det_power(r, logdetV, roots_list, p), density, roots.real)
    bound = math.exp(-p * logdetV) * density.l1 ** (1.0 - s) * density.linf ** s * _fractional_prefactor(s)
    return AverageCheck(val, bound, err, "quadrature")


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

    rng = trial_stream(seed, 0)
    draws = density.sample(rng, size=(trials, N + 1))
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
    return AverageCheck(float(mean), bound, 3.0 * float(stderr), "monte-carlo")


def norm_inverse_check(V: np.ndarray) -> tuple[float, float]:
    """(||V^{-1}||, ||V||^{n-1} / |det V|); the first never exceeds the second."""
    V = np.asarray(V, dtype=complex)
    n = V.shape[0]
    svals = np.linalg.svd(V, compute_uv=False)
    if svals[-1] == 0:
        raise ValueError("V must be invertible")
    lhs = 1.0 / float(svals[-1])
    rhs = float(svals[0]) ** (n - 1) / float(np.prod(svals))
    return lhs, rhs


def resolvent_average_check(A: np.ndarray, V: np.ndarray, density: DisorderDensity, s: float) -> AverageCheck:
    """integral of ||(A + rV)^{-1}||^{s/n} rho(r) dr against the norm-determinant bound."""
    A, V, logdetV, roots, p = _pencil(A, V, s)
    n = A.shape[0]

    def f(r):
        svals = np.linalg.svd(A + r * V, compute_uv=False)
        smallest = float(svals[-1])
        if smallest == 0.0:
            return math.inf
        return smallest ** (-p)

    val, err = _integrate(f, density, roots.real)
    R = density.support_radius
    normA = float(np.linalg.norm(A, 2))
    normV = float(np.linalg.norm(V, 2))
    bound = (density.l1 ** (1.0 - s) * density.linf ** s * (normA + R * normV) ** (s * (n - 1) / n)
             * _fractional_prefactor(s) * math.exp(-(s / n) * logdetV))
    return AverageCheck(val, bound, err, "quadrature")


def dissipative_average_check(A: np.ndarray, V: np.ndarray, M1: np.ndarray, M2: np.ndarray,
                              density: DisorderDensity, s: float) -> dict:
    """Weak-type average for dissipative A and positive diagonal V.

    The universal constant in the bound is not explicit, so this check
    reports the smallest c with
    integral <= (n c ||M1 V^{-1/2}|| ||M2 V^{-1/2}|| ||rho||_inf)^s / (1-s),
    for stability comparisons across scalings rather than a pass/fail verdict.
    """
    A = np.asarray(A, dtype=complex)
    V = np.asarray(V, dtype=float)
    M1 = np.asarray(M1, dtype=complex)
    M2 = np.asarray(M2, dtype=complex)
    n = A.shape[0]
    diag = np.diag(V)
    if not np.allclose(V, np.diag(diag)) or np.min(diag) <= 0:
        raise ValueError("V must be diagonal and strictly positive")
    _check_dissipative(A)

    roots = _pencil_roots(A, V.astype(complex))

    def f(r):
        try:
            X = np.linalg.solve(A + r * V, M2)
        except np.linalg.LinAlgError:
            return math.inf
        return float(np.linalg.norm(M1 @ X, 2)) ** s

    val, err = _integrate(f, density, roots.real)
    Vm = np.diag(1.0 / np.sqrt(diag))
    factor = n * float(np.linalg.norm(M1 @ Vm, 2)) * float(np.linalg.norm(M2 @ Vm, 2)) * density.linf
    if val <= 0 or factor == 0:
        fitted_c = 0.0
    else:
        fitted_c = (val * (1.0 - s)) ** (1.0 / s) / factor
    bound_at_c = (factor * max(fitted_c, 0.0)) ** s / (1.0 - s)
    return {
        "integral": val,
        "error": err,
        "fitted_constant": fitted_c,
        "bound_at_fitted_constant": bound_at_c,
    }


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

    ex = np.zeros(n)
    ex[x] = 1.0
    ey = np.zeros(n)
    ey[y] = 1.0

    def f(t):
        M = A + t * W - complex(z) * np.eye(n)
        col = np.linalg.solve(M, ey.astype(complex))
        return abs(col[x]) ** s

    val, err = _integrate(f, density, [])
    bound = (8.0 * 4.0 ** (-s) / (wdiag[x] * wdiag[y]) ** (s / 2.0)
             * density.linf ** s * _fractional_prefactor(s))
    return AverageCheck(val, bound, err, "quadrature")
