"""Quadrature/MC averages against the closed-form spectral-averaging bounds."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.integrate import _quadpack

from alloylab import averaging
from alloylab.averaging import (
    _det_power,
    _quad,
    _scipy_module,
    det_average_check,
    detgen_check,
    graf_check,
    nonmonotone_average_check,
    resolvent_average_check,
)
from alloylab.model import DisorderDensity


def uniform01():
    return DisorderDensity("uniform", (0, 1))


def test_graf_uniform_center():
    # closed form: int_0^1 |t - 1/2|^{-1/2} dt = 4 sqrt(1/2) = 2 sqrt(2)
    chk = graf_check(uniform01(), 0.5, 0.5)
    assert chk.integral_value == pytest.approx(2 * math.sqrt(2), abs=1e-8)
    assert chk.bound_value == pytest.approx(4.0, abs=1e-12)
    assert chk.margin > 0


def test_graf_far_pole():
    chk = graf_check(uniform01(), 0.5, 100.0)
    # integral 2(sqrt(100) - sqrt(99)) ~ 100^{-1/2}
    assert chk.integral_value == pytest.approx(0.10025125786760089, abs=1e-9)
    assert chk.holds()


def test_graf_small_exponent_limit():
    chk = graf_check(uniform01(), 0.01, 0.3)
    assert abs(chk.integral_value - 1.0) < 0.05


def test_graf_complex_pole():
    chk = graf_check(uniform01(), 0.5, 0.5 + 0.2j)
    assert chk.holds()
    assert chk.integral_value < 2 * math.sqrt(2)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.8, 0.95])
def test_graf_pole_a_few_ulps_inside_the_support(s):
    # the panel [1, beta] is 5 ulps wide; a node of QAGP on it landed on the pole: ZeroDivisionError
    beta = 1 + 1e-15
    chk = graf_check(DisorderDensity("uniform", (1, 2)), s, beta)
    exact = ((beta - 1) ** (1 - s) + (2 - beta) ** (1 - s)) / (1 - s)
    assert abs(chk.integral_value - exact) <= chk.error + 1e-15


def test_graf_pole_just_outside_the_support():
    # QAGS extrapolated to the pole-on-the-end limit 1/(1 - s) = 5.0000000010, reporting an error of 1.2e-9
    d, s = 1e-9, 0.8
    chk = graf_check(uniform01(), s, -d)
    exact = ((1 + d) ** (1 - s) - d ** (1 - s)) / (1 - s)  # 4.9207553414
    assert abs(chk.integral_value - exact) <= chk.error


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: QAGS misses the peak of width |Im beta| at a near-real "
                                      "complex pole, 4.1% and 1.0% off with a reported error below 1e-10")
@pytest.mark.parametrize("beta, exact", [
    # 40-digit mpmath, from u eps^{-s} 2F1(1/2, s/2; 3/2; -u^2/eps^2) at u = 1 - Re beta and u = -Re beta
    (0.3 + 1e-7j, 8.2458197427455274),
    (0.5 + 1e-10j, 8.6201152441774460),
])
def test_graf_near_real_complex_pole(beta, exact):
    chk = graf_check(uniform01(), 0.8, beta)
    assert chk.holds()
    assert abs(chk.integral_value - exact) <= max(chk.error, 1e-12 * exact)


def _real_pencil_root_cases():
    """(A, closed form) for V = [[1]] on uniform(1, 2) at s = 0.8, with the root r = -A just outside [1, 2].

    The average is int_d^{1+d} u^{-s} du = ((1 + d)^{1-s} - d^{1-s}) / (1 - s), d the root's float distance
    from the nearer end of the support.
    """
    for root in (1.0 - 1e-9, 2.0 + 1e-9):
        d = 1.0 - root if root < 1.0 else root - 2.0
        yield np.array([[-root]]), ((1.0 + d) ** 0.2 - d ** 0.2) / 0.2


_REAL_PENCIL_ROOTS = list(_real_pencil_root_cases())


@pytest.mark.parametrize("A, exact", _REAL_PENCIL_ROOTS, ids=["below", "above"])
def test_graf_check_reads_the_real_pole_just_outside_the_support(A, exact):
    chk = graf_check(DisorderDensity("uniform", (1, 2)), 0.8, -A[0, 0])
    assert abs(chk.integral_value - exact) <= max(chk.error, 1e-12 * exact)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a real pencil root 1e-9 outside the support reads "
                                      "5.0000000006 for 4.9207553, with a reported error of 2.3e-9")
@pytest.mark.parametrize("check", [det_average_check, resolvent_average_check])
@pytest.mark.parametrize("A, exact", _REAL_PENCIL_ROOTS, ids=["below", "above"])
def test_pencil_average_at_a_real_root_just_outside_the_support(check, A, exact):
    chk = check(A, np.eye(1), DisorderDensity("uniform", (1, 2)), 0.8)
    assert abs(chk.integral_value - exact) <= max(chk.error, 1e-12 * exact)


def test_graf_tightness_inside_support():
    for beta in (0.1, 0.5, 0.9):
        chk = graf_check(uniform01(), 0.5, beta)
        assert 0.1 < chk.integral_value / chk.bound_value <= 1.0


@pytest.mark.parametrize("beta", [complex(math.inf, 1.0), complex(0.5, math.inf), math.nan],
                         ids=["infinite-real-part", "infinite-imaginary-part", "nan"])
def test_graf_rejects_a_non_finite_pole_before_any_quadrature(monkeypatch, beta):
    # unchecked, an infinite pole would integrate to 0.0 and hold, and a NaN one end in an IntegrationWarning
    def refuse(*args, **kwargs):
        raise AssertionError("graf_check integrated a non-finite pole")

    monkeypatch.setattr(averaging, "_quad", refuse)
    with pytest.raises(ValueError, match="must be finite"):
        graf_check(uniform01(), 0.5, beta)


def test_det_average_scalar_exact():
    chk = det_average_check(np.zeros((1, 1)), np.eye(1), uniform01(), 0.5)
    assert chk.integral_value == pytest.approx(2.0, abs=1e-8)  # int_0^1 r^{-1/2}
    assert chk.bound_value == pytest.approx(4.0, abs=1e-12)


def test_det_average_real_root_inside_the_support():
    # the pencil root r = 1/2 is a breakpoint: int_0^1 |r - 1/2|^{-1/2} dr = 2 sqrt(2)
    chk = det_average_check(np.array([[-0.5]]), np.eye(1), uniform01(), 0.5)
    assert chk.integral_value == pytest.approx(2 * math.sqrt(2), abs=1e-8)


def test_root_product_integrand_is_infinite_on_a_root():
    roots = [0.5, 2.0 + 1.0j]
    assert _det_power(0.5, 0.0, roots, 0.25) == math.inf
    assert _det_power(0.0, 0.0, roots, 0.25) == pytest.approx(abs(0.5 * (2.0 + 1.0j)) ** -0.25, rel=1e-15)


def _pdf_evaluations(density, beta) -> int:
    """Integrand evaluations of one graf_check, counted by wrapping the density's pdf."""
    calls = 0
    pdf = density.pdf

    def counting(t):
        nonlocal calls
        calls += 1
        return pdf(t)

    density.pdf = counting
    graf_check(density, 0.5, beta)
    return calls


@pytest.mark.parametrize("check", [det_average_check, resolvent_average_check])
def test_quadpack_failure_reaches_the_caller(check):
    # a pencil root 1e-15 below the support end 1: QAGP reports ier = 3, and the check warns with quad's text
    with pytest.warns(IntegrationWarning, match="Extremely bad integrand behavior occurs at some points"):
        check(np.array([[-(1 + 1e-15)]]), np.eye(1), DisorderDensity("uniform", (1, 2)), 0.8)


def test_scipy_module_is_the_loaded_module_or_an_import_error():
    assert _scipy_module("scipy.integrate._quadpack") is _quadpack  # the package loaded it, so it is reused
    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module"):
        _scipy_module("scipy.linalg._no_such_module")


@pytest.mark.parametrize("ier", [1, 2, 3, 4, 5, 6, 7, 8, 80])
@pytest.mark.parametrize("routine, kw, quad_kw", [
    ("_qagse", {}, {}),
    ("_qagpe", {"points": [0.5]}, {"points": [0.5]}),
    ("_qawse", {"alg": (-0.5, 0.0)}, {"weight": "alg", "wvar": (-0.5, 0.0)}),
], ids=["qags", "qagp", "qaws"])
@pytest.mark.parametrize("limit", [50, 400])
def test_quadpack_return_codes_are_reported_as_quad_reports_them(monkeypatch, ier, routine, kw, quad_kw, limit):
    # _quad and quad call the same module, so one patched routine shows both the same return code
    monkeypatch.setattr(_quadpack, routine, lambda *args: (0.25, 1e-3, ier))
    if ier in (1, 2, 3, 4, 5, 7):
        with pytest.warns(IntegrationWarning) as got:
            assert _quad(math.cos, 0.0, 1.0, limit=limit, **kw) == (0.25, 1e-3)
        with pytest.warns(IntegrationWarning) as want:
            quad(math.cos, 0.0, 1.0, limit=limit, **quad_kw)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
    else:
        with pytest.raises(ValueError) as got:
            _quad(math.cos, 0.0, 1.0, limit=limit, **kw)
        with pytest.raises(ValueError) as want:
            quad(math.cos, 0.0, 1.0, limit=limit, **quad_kw)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("beta", [0.7, 0.3 + 0.2j, 1.5])
def test_density_kink_costs_at_most_twice_the_evaluations(beta):
    # without the knot as a breakpoint quad bisects around the kink: 3.5-19x the evaluations on these poles
    kinked = DisorderDensity("piecewise_linear", [(0, 0), (0.3, 1.5), (1, 0)])
    assert _pdf_evaluations(kinked, beta) <= 2 * _pdf_evaluations(uniform01(), beta)


def test_det_average_smooth_case():
    chk = det_average_check(np.eye(2), np.eye(2), uniform01(), 0.4)
    # integrand (1+r)^{-0.4} smooth and below 1
    assert chk.integral_value < 1.0
    assert chk.holds() and chk.margin > 0


def test_det_average_joint_scaling():
    # (A, V) -> (2A, 2V) multiplies det by 2^n, so the integral and the bound
    # pick up the same factor 2^{-s}
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    V = rng.normal(size=(2, 2))
    s = 0.5
    c1 = det_average_check(A, V, uniform01(), s)
    c2 = det_average_check(2 * A, 2 * V, uniform01(), s)
    factor = 2.0 ** (-s)
    assert c2.integral_value == pytest.approx(factor * c1.integral_value, rel=1e-6)
    assert c2.bound_value == pytest.approx(factor * c1.bound_value, rel=1e-12)


def test_det_average_unitary_invariance():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    V = rng.normal(size=(3, 3)) + np.eye(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    c1 = det_average_check(A, V, uniform01(), 0.35)
    c2 = det_average_check(Q @ A @ Q.conj().T, Q @ V @ Q.conj().T, uniform01(), 0.35)
    assert abs(c1.integral_value - c2.integral_value) < 1e-8


def test_det_average_rejects_singular_direction():
    with pytest.raises(ValueError):
        det_average_check(np.eye(2), np.zeros((2, 2)), uniform01(), 0.5)


def test_detgen_reduces_to_det_average():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    V = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    base = det_average_check(A, V, uniform01(), 0.5)
    gen = detgen_check(A, [V], [1.0], uniform01(), 0.5, trials=40000, seed=3)
    assert abs(gen.integral_value - base.integral_value) <= gen.error + 1e-6
    assert gen.bound_value == pytest.approx(base.bound_value, rel=1e-12)


def test_detgen_two_variable_bound():
    chk = detgen_check(np.zeros((1, 1)), [np.eye(1), np.eye(1)], [1.0, 0.0],
                       uniform01(), 0.5, trials=30000, seed=1)
    # exact integral: (4/3)(2 sqrt(2) - 2)
    exact = (4.0 / 3.0) * (2 * math.sqrt(2) - 2)
    assert abs(chk.integral_value - exact) <= chk.error
    assert chk.bound_value == pytest.approx(4 * math.sqrt(2), rel=1e-12)
    assert chk.holds()


def test_detgen_alpha_only_moves_bound():
    A = np.zeros((1, 1))
    Vs = [np.eye(1), np.eye(1)]
    c1 = detgen_check(A, Vs, [1.0, 0.0], uniform01(), 0.5, trials=5000, seed=2)
    c2 = detgen_check(A, Vs, [1.0, 1.0], uniform01(), 0.5, trials=5000, seed=2)
    assert c1.integral_value == c2.integral_value  # same draws, same integrand
    assert c1.bound_value != c2.bound_value


def test_detgen_rejects_zero_alpha0():
    with pytest.raises(ValueError):
        detgen_check(np.zeros((1, 1)), [np.eye(1)], [0.0], uniform01(), 0.5, trials=10)


@pytest.mark.parametrize("alpha, message", [
    ([1.0], "alpha must have one entry per matrix"),
    ([1.0, -1.0], "sum_k alpha_k V_k must be invertible"),  # V_0 - V_1 = 0
])
def test_detgen_contract(alpha, message):
    with pytest.raises(ValueError, match=message):
        detgen_check(np.zeros((1, 1)), [np.eye(1), np.eye(1)], alpha, uniform01(), 0.5, trials=10)


def test_detgen_bound_reference_with_two_extra_variables():
    # N = 2, n = 1, t = 1/2, alpha = (1, 1/2, 1/4): sum_k alpha_k V_k = 7/4 and ratio = 1/2, so with R = 1,
    # ||rho||_inf = 1 and C_{1/2} = 4 the bound is (7/4)^{-1/2} |alpha_0|^t (1 + 1/2)^{Nt} C_t (2R)^{Nt} = 12 / sqrt(7/4)
    rho = uniform01()
    assert (rho.support_radius, rho.linf) == (1.0, 1.0)
    chk = detgen_check(np.zeros((1, 1)), [np.eye(1)] * 3, [1.0, 0.5, 0.25], rho, 0.5, trials=10)
    assert chk.bound_value == pytest.approx(12.0 / math.sqrt(1.75), rel=1e-12)


def test_resolvent_average_scalar():
    # n=1, A=0, V=1: integrand r^{-1/2}; bound (0+R)^0 / ... = 4
    chk = resolvent_average_check(np.zeros((1, 1)), np.eye(1), uniform01(), 0.5)
    assert chk.integral_value == pytest.approx(2.0, abs=1e-8)
    assert chk.holds()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_resolvent_average_of_a_multiple_of_the_identity(n):
    # A + rV = rI: every singular value is r, a triple root of the n = 3 cubic, so svd answers there
    s = 0.5
    chk = resolvent_average_check(np.zeros((n, n)), np.eye(n), uniform01(), s)
    assert chk.integral_value == pytest.approx(1.0 / (1.0 - s / n), abs=1e-8)  # int_0^1 r^{-s/n} dr


def test_resolvent_average_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V = rng.normal(size=(n, n))
        while abs(np.linalg.det(V)) < 1e-3:
            V = rng.normal(size=(n, n))
        s = float(rng.uniform(0.2, 0.8))
        chk = resolvent_average_check(A, V, uniform01(), s)
        assert chk.holds()


def test_resolvent_bound_reference_at_n_2():
    # ||rho||_inf^s (||A|| + R ||V||)^{s(n-1)/n} C_s |det V|^{-s/n} with ||A|| = 2, R = ||V|| = 1, det V = 1,
    # s = 1/2 and C_{1/2} = 4: 4 * 3^{1/4}
    chk = resolvent_average_check(np.diag([2.0, 1.0]), np.eye(2), uniform01(), 0.5)
    assert chk.bound_value == pytest.approx(4.0 * 3.0 ** 0.25, rel=1e-12)


def rc01():
    return DisorderDensity("raised_cosine", (0, 1))


def test_nonmonotone_scalar_case():
    # 1x1: A = i, W = 1, z = -0.5i; direct quadrature against the bound
    chk = nonmonotone_average_check(1j * np.eye(1), np.eye(1), rc01(), 0.5, 0, 0, -0.5j)
    assert chk.holds()
    want_bound = 8 * 4 ** -0.5 * 2 ** 0.5 * 2 ** 0.5 * 0.5 ** -0.5 / 0.5
    assert chk.bound_value == pytest.approx(want_bound, rel=1e-12)


def test_nonmonotone_identity_direction():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(3, 3))
    A = (B + B.T) / 2 + 1j * np.eye(3) * 0.3
    chk = nonmonotone_average_check(A, np.eye(3), rc01(), 0.4, 0, 2, -0.3j)
    assert chk.holds()


def test_nonmonotone_small_exponent_limit():
    chk = nonmonotone_average_check(1j * np.eye(1), np.eye(1), rc01(), 0.01, 0, 0, -1.0j)
    assert abs(chk.integral_value - 1.0) < 0.05


def test_nonmonotone_requires_w11_density():
    with pytest.raises(ValueError):
        nonmonotone_average_check(1j * np.eye(1), np.eye(1), uniform01(), 0.5, 0, 0, -0.5j)


# unchecked, x = -1 would pass numpy's negative indexing (a bound from W[-1]) and x = 5 raise IndexError
@pytest.mark.parametrize("A, W, x, y, z, message", [
    (1j * np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]), 0, 1, -0.5j, "nonnegative diagonal multiplication operator"),
    (1j * np.eye(2), np.diag([0.0, 1.0]), 0, 1, -0.5j, "positive at the probed sites"),
    (1j * np.eye(2), np.eye(2), 0, 1, 0.5j, "lower half-plane"),
    (1j * np.eye(2), np.eye(2), 0, 1, 0.5, "lower half-plane"),
    (-1j * np.eye(2), np.eye(2), 0, 1, -0.5j, "must be dissipative"),
    (-1.5e-10j * np.eye(2), np.eye(2), 0, 1, -0.5j, "must be dissipative"),  # Im A = -1.5e-10, past the 1e-10
    (1j * np.eye(2), np.diag([1.0, 2.0]), -1, 1, -0.5j, r"must be indices in range\(2\)"),
    (1j * np.eye(2), np.diag([1.0, 2.0]), 5, 1, -0.5j, r"must be indices in range\(2\)"),
    (1j * np.eye(2), np.diag([1.0, 2.0]), 0, 2, -0.5j, r"must be indices in range\(2\)"),
], ids=["off-diagonal", "zero-at-x", "upper-z", "real-z", "not-dissipative", "barely-not-dissipative",
        "negative-x", "x-past-the-end", "y-past-the-end"])
def test_nonmonotone_contract(A, W, x, y, z, message):
    with pytest.raises(ValueError, match=message):
        nonmonotone_average_check(A, W, rc01(), 0.5, x, y, z)


_CHECK_AT_S = {
    "graf": lambda s: graf_check(uniform01(), s, 0.5),
    "det": lambda s: det_average_check(np.array([[-0.5]]), np.eye(1), uniform01(), s),
    "resolvent": lambda s: resolvent_average_check(np.array([[-0.5]]), np.eye(1), uniform01(), s),
    "nonmonotone": lambda s: nonmonotone_average_check(1j * np.eye(1), np.eye(1), rc01(), s, 0, 0, -0.5j),
}


@pytest.mark.parametrize("s", [0.0, 1.0, 3.0, -0.5, math.nan])
@pytest.mark.parametrize("check", list(_CHECK_AT_S))
def test_exponent_is_checked_before_any_quadrature(monkeypatch, check, s):
    # s = 3 with a pole inside the support diverges: quadrature first would warn before the contract's error
    calls = []
    real = averaging._quad
    monkeypatch.setattr(averaging, "_quad", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"exponent s must lie in \(0, 1\)"):
            _CHECK_AT_S[check](s)
    assert calls == []


def test_randomized_margins_all_checks():
    # every bound is an upper bound on its integral across random instances
    rng = np.random.default_rng(9)
    dens = uniform01()
    for _ in range(25):
        s = float(rng.uniform(0.15, 0.85))
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V = rng.normal(size=(n, n))
        while abs(np.linalg.det(V)) < 1e-3:
            V = rng.normal(size=(n, n))
        assert graf_check(dens, s, complex(rng.uniform(-1, 2), rng.uniform(0, 0.5))).holds()
        assert det_average_check(A, V, dens, s).holds()
        assert resolvent_average_check(A, V, dens, s).holds()


def kappa_form(dens, s, kappa):
    """Two-term pole bound at a free split parameter kappa, for a density of unit mass."""
    return 1.0 / kappa ** s + 2.0 * kappa ** (1.0 - s) * dens.linf / (1.0 - s)


def test_graf_bound_is_optimized_kappa_form():
    # the closed-form constant is the minimum of the two-term bound over the
    # split parameter, attained at kappa* = s ||rho||_1 / (2 ||rho||_inf), with ||rho||_1 = 1
    dens = uniform01()
    for s in (0.2, 0.5, 0.8):
        chk = graf_check(dens, s, 0.3)
        kappa_star = s / (2.0 * dens.linf)
        assert chk.bound_value == pytest.approx(kappa_form(dens, s, kappa_star), rel=1e-12)
        for kappa in (0.01, 0.1, 0.5, 2.0, 10.0):
            assert kappa_form(dens, s, kappa) >= chk.bound_value - 1e-12
            assert chk.integral_value <= kappa_form(dens, s, kappa) + 1e-8


def test_det_average_kappa_form_dominates():
    rng = np.random.default_rng(12)
    dens = uniform01()
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V = rng.normal(size=(n, n))
        while abs(np.linalg.det(V)) < 1e-3:
            V = rng.normal(size=(n, n))
        s = float(rng.uniform(0.2, 0.8))
        chk = det_average_check(A, V, dens, s)
        prefactor = abs(np.linalg.det(V)) ** (-s / n)
        for kappa in (0.05, 0.5, 5.0):
            assert chk.integral_value <= prefactor * kappa_form(dens, s, kappa) + 1e-8


def test_nonmonotone_kappa_form_dominates():
    dens = rc01()
    s = 0.5
    chk = nonmonotone_average_check(1j * np.eye(1), np.eye(1), dens, s, 0, 0, -0.5j)
    for kappa in (0.1, 0.5, 2.0):
        loose = 8.0 * 4.0 ** (-s) * (1.0 / kappa ** s
                                     + 2.0 * dens.linf * kappa ** (1.0 - s) / (1.0 - s))
        assert chk.integral_value <= loose + 1e-8
    # and the shipped bound is the optimized one
    kappa_star = s / (2.0 * dens.linf)
    assert chk.bound_value == pytest.approx(
        8.0 * 4.0 ** (-s) * kappa_form(dens, s, kappa_star), rel=1e-12)
