"""Generating-function derivatives, leading index, radii and coefficient sums."""

import math

import numpy as np
import pytest
import sympy

from alloylab.model import SingleSitePotential, build_box
from alloylab.poscomb import (
    compute_R_l,
    exponential_envelope,
    falling_factorial,
    find_I0,
    generating_derivative,
    multi_indices_of_degree,
    prop1_sum,
    prop2_min,
    wegner_coefficients,
)


def sympy_derivative_oracle(u_vals: dict, I) -> float:
    """D^I of F(z) = sum_k u(-k) z^k at z = 1, by symbolic differentiation."""
    d = len(next(iter(u_vals)))
    zs = sympy.symbols(f"z0:{d}", positive=True)
    F = 0
    for k, v in u_vals.items():
        term = sympy.Rational(1)
        for zj, kj in zip(zs, k):
            term *= zj ** (-kj)  # u(-k) z^k summed over k <-> u(t) z^{-t}
        F += v * term
    for zj, ij in zip(zs, I):
        for _ in range(ij):
            F = sympy.diff(F, zj)
    return float(F.subs({zj: 1 for zj in zs}))


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1.0
    assert falling_factorial(5, 2) == 20.0
    assert falling_factorial(-2, 3) == -24.0  # (-2)(-3)(-4)
    assert falling_factorial(0, 0) == 1.0


def test_multi_indices_enumeration():
    assert multi_indices_of_degree(1, 3) == [(3,)]
    assert multi_indices_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(multi_indices_of_degree(3, 4)) == 15


def test_generating_derivative_delta():
    u = SingleSitePotential.delta(1)
    assert generating_derivative(u, (0,)) == 1.0
    for i in range(1, 5):
        assert generating_derivative(u, (i,)) == 0.0


def test_generating_derivative_matches_sympy():
    cases = [
        {(0,): 1.0, (1,): -1.0},
        {(0,): 1.0, (2,): -1.0},
        {(0,): 0.3, (1,): 0.7, (3,): -0.2},
        {(0, 0): 1.0, (1, 0): -0.5, (0, 2): 0.25},
    ]
    for u_vals in cases:
        u = SingleSitePotential.from_values(u_vals)
        d = u.dimension
        for deg in range(0, 4):
            for I in multi_indices_of_degree(d, deg):
                got = generating_derivative(u, I)
                want = sympy_derivative_oracle(u_vals, I)
                assert got == pytest.approx(want, abs=1e-9), (u_vals, I)


def test_generating_derivative_sign_examples():
    # F = 1 - z^{-1}: value 0, first derivative +1 at z=1
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    assert generating_derivative(u, (0,)) == pytest.approx(0.0, abs=1e-15)
    assert generating_derivative(u, (1,)) == pytest.approx(1.0, abs=1e-15)
    # F = 1 - z^{-2}: first derivative +2
    u2 = SingleSitePotential.from_values({(0,): 1.0, (2,): -1.0})
    assert generating_derivative(u2, (1,)) == pytest.approx(2.0, abs=1e-15)


def test_find_I0_delta():
    lead = find_I0(SingleSitePotential.delta(1))
    assert lead.I0 == (0,) and lead.c_u == 1.0


def test_find_I0_cancelling_pair():
    lead = find_I0(SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0}))
    assert lead.I0 == (1,) and lead.c_u == pytest.approx(1.0, abs=1e-12)


def test_find_I0_exponential_family():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=30)
    lead = find_I0(u)
    assert lead.I0 == (0,)
    # geometric series 1 + 2 e^{-1} / (1 - e^{-1})
    assert lead.c_u == pytest.approx(2.163953413738653, abs=1e-10)
    assert lead.truncation_error < 1e-10


def test_find_I0_inconclusive_for_flat_zero():
    # u with all derivatives vanishing up to the cap does not exist for
    # nonzero u, but a tiny cap can exhaust before the leading index
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -2.0, (2,): 1.0})  # (1-z^{-1})^2
    with pytest.raises(ValueError):
        find_I0(u, degree_cap=1)
    lead = find_I0(u, degree_cap=4)
    assert lead.I0 == (2,)


def test_find_I0_2d_lexicographic_tiebreak():
    # symmetric cross: degree-1 derivatives vanish, several degree-2 are equal
    u = SingleSitePotential.from_values({
        (0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0,
    })
    lead = find_I0(u)
    assert sum(lead.I0) == 2
    assert lead.I0 == (0, 2)  # lexicographically smallest at that degree


def test_prop1_delta():
    u = SingleSitePotential.delta(1)
    for x in ((0,), (7,), (-3,)):
        assert prop1_sum(u, (0,), x) == 1.0


def test_prop1_two_site_translation_independence():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    assert prop1_sum(u, (1,), (0,)) == pytest.approx(1.0, abs=1e-12)
    assert prop1_sum(u, (1,), (7,)) == pytest.approx(1.0, abs=1e-12)
    u2 = SingleSitePotential.from_values({(0,): 1.0, (2,): -1.0})
    for x in range(-5, 6):
        assert prop1_sum(u2, (1,), (x,)) == pytest.approx(2.0, abs=1e-12)


def test_prop1_random_exactness():
    # leading sum equals c_u at every shift; lower orders vanish
    rng = np.random.default_rng(17)
    done = 0
    while done < 50:
        d = int(rng.integers(1, 3))
        box = build_box(3 if d == 1 else 1, (0,) * d)
        vals = {}
        for s in box.sites:
            v = float(rng.uniform(-2, 2))
            if abs(v) > 0.1:
                vals[s] = v
        if (0,) * d not in vals:
            continue
        u = SingleSitePotential.from_values(vals)
        try:
            lead = find_I0(u, degree_cap=8)
        except ValueError:
            continue
        if abs(lead.c_u) <= 1e-6:
            continue
        xs = rng.integers(-50, 51, size=(20, d))
        for x in xs:
            assert abs(prop1_sum(u, lead.I0, tuple(int(c) for c in x)) - lead.c_u) <= 1e-9
            for deg in range(sum(lead.I0)):
                for I in multi_indices_of_degree(d, deg):
                    if all(a <= b for a, b in zip(I, lead.I0)):
                        assert abs(prop1_sum(u, I, tuple(int(c) for c in x))) <= 1e-9
        done += 1


def test_prop1_scale_equivariance():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    u2 = SingleSitePotential.from_values({(0,): 2.0, (1,): -2.0})
    l1, l2 = find_I0(u), find_I0(u2)
    assert l1.I0 == l2.I0
    assert l2.c_u == pytest.approx(2 * l1.c_u, abs=1e-12)


def test_compute_R_l_reference_value():
    # exponential profile, d=1, l=5: max(10 + 2 ln(6 / (c_u (1 - e^{-1/2}))), 8)
    c_u = 2.163953413738653
    R, R_int = compute_R_l(1.0, 1.0, c_u, (0,), 5, 1)
    assert R == pytest.approx(13.905149531779877, abs=1e-9)
    assert R_int == 14


def test_compute_R_l_large_rate_limit():
    # for large decay rates the 2l branch dominates up to a shrinking offset
    R_big, _ = compute_R_l(1.0, 40.0, 1.0, (0,), 50, 1)
    assert abs(R_big - 100.0) < 0.2


def test_compute_R_l_zero_l():
    R, _ = compute_R_l(1.0, 1.0, 1.0, (0,), 0, 1)
    want = max(2 * math.log(6.0 / (1.0 * (1.0 - math.exp(-0.5)))), 8.0)
    assert R == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("l", [-1, -3])
def test_a_negative_box_radius_is_refused(l):
    # the radius 2l + ... and the (2l + 1)^d box count gave t_l1_total = -68.0 at l = -1
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    with pytest.raises(ValueError, match="l must be >= 0"):
        compute_R_l(1.0, 1.0, 1.0, (0,), l, 1)
    with pytest.raises(ValueError, match="l must be >= 0"):
        wegner_coefficients(u, l)


@pytest.mark.parametrize("C, alpha, c_u, message", [
    (1.0, 1.0, 0.0, "c_u must be nonzero"),
    (1.0, 0.0, 1.0, "alpha must be positive and finite"),
    (0.0, 1.0, 1.0, "C must be positive and finite"),
])
def test_compute_R_l_contract(C, alpha, c_u, message):
    with pytest.raises(ValueError, match=message):
        compute_R_l(C, alpha, c_u, (0,), 1, 1)


def test_prop2_delta():
    u = SingleSitePotential.delta(1)
    lead = find_I0(u)
    assert prop2_min(u, 2, wegner_coefficients(u, 2, lead)["R_int"], lead) == pytest.approx(2.0, abs=1e-12)


def test_prop2_exponential_profile():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=40)
    lead = find_I0(u)
    _, R_int = compute_R_l(1.0, 1.0, lead.c_u, lead.I0, 5, 1)
    val = prop2_min(u, 5, R_int, lead)
    assert val >= 1.0 - 1e-6


def test_prop2_finite_cancelling_pair():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    lead = find_I0(u)
    # once the R box swallows the support around the l box the sum is exactly
    # c_u at every x, so the scaled minimum is exactly 2
    assert prop2_min(u, 3, 10, lead) == pytest.approx(2.0, abs=1e-12)


def test_wegner_coefficients_delta():
    u = SingleSitePotential.delta(1)
    out = wegner_coefficients(u, 1)
    box = 2 * out["R_int"] + 1
    assert out["t_l1_per_site"] == pytest.approx(2.0 * box, abs=1e-12)
    assert out["t_l1_total"] == pytest.approx(3 * 2.0 * box, abs=1e-12)


def test_wegner_coefficients_I0_zero_counts_box():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=25)
    out = wegner_coefficients(u, 6)
    box = (2 * out["R_int"] + 1)
    assert out["t_l1_per_site"] == pytest.approx(2.0 / abs(out["c_u"]) * box, rel=1e-12)


def test_wegner_coefficients_scaling():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    u2 = SingleSitePotential.from_values({(0,): 2.0, (1,): -2.0})
    o1, o2 = wegner_coefficients(u, 2), wegner_coefficients(u2, 2)
    assert o2["c_u"] == pytest.approx(2 * o1["c_u"], abs=1e-12)


def test_exponential_envelope_dominates():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5, (3,): 0.25})
    C, alpha = exponential_envelope(u)
    assert alpha == 1.0
    for k in u.support():
        assert abs(u.value(k)) <= C * math.exp(-alpha * sum(abs(c) for c in k)) + 1e-12
