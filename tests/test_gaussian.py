"""Pinned-interval construction and Gaussian conditional formulas."""

import math

import numpy as np
import pytest

from alloylab.gaussian import (
    a_l_determinants,
    build_A_l,
    conditional_oracle,
    gaussian_conditional,
    holder_constant_probe,
    negexample_check,
    negexample_constants,
    s_l,
)
from alloylab.model import SingleSitePotential


def test_constants_sign_changing_pair():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    c = negexample_constants(u)
    assert c.theta_pos == (0,) and c.theta_neg == (1,)
    assert c.s_plus == 1.0
    assert c.theta_1 == (1,)
    assert c.m == -1.0
    assert c.c == 2.0
    assert not c.degenerate


def test_constants_positive_pair():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): 1.0})
    c = negexample_constants(u)
    assert c.theta_pos == (0, 1)
    assert c.theta_1 == (0, 1)  # n-1 in the positive part pulls in {0}
    assert c.m == 2.0 and c.s_plus == 2.0 and c.c == 2.0


def test_constants_degenerate_single_site():
    c = negexample_constants(SingleSitePotential.delta(1))
    assert c.degenerate
    assert c.theta_1 == (0,)


def test_constants_reject_zero_values():
    u = SingleSitePotential.from_values({(0,): 1.0, (2,): -1.0})
    with pytest.raises(ValueError):
        negexample_constants(u)  # gap means u(1) = 0 on the support block


def test_pinned_interval_no_violations():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    res = negexample_check(u, delta=0.2, delta_prime=0.2, attempts=60000, seed=5)
    assert not res["inconclusive"]
    assert res["accepted"] > 100
    assert res["violations"] == 0
    lo, hi = res["target_interval"]
    assert lo <= res["v0_range"][0] <= res["v0_range"][1] <= hi


def test_pinned_interval_tighter_conditioning_still_pins():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    res = negexample_check(u, delta=0.2, delta_prime=0.05, attempts=400000, seed=6)
    assert res["accepted"] > 0
    assert res["violations"] == 0


def test_pinned_interval_three_site():
    u = SingleSitePotential.from_values({(0,): 0.5, (1,): -1.0, (2,): 0.75})
    res = negexample_check(u, delta=0.3, delta_prime=0.3, attempts=200000, seed=7)
    assert res["accepted"] > 0
    assert res["violations"] == 0


def test_pinned_interval_exploratory_wide_regime():
    # delta' beyond the guarantee regime is reported, not asserted
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    res = negexample_check(u, delta=0.5, delta_prime=0.5, attempts=20000, seed=8)
    assert res["accepted"] > 0
    assert res["violations"] >= 0


def test_pinned_interval_rejects_bad_deltas():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    with pytest.raises(ValueError):
        negexample_check(u, delta=0.05, delta_prime=0.2, attempts=100, seed=0)


@pytest.mark.parametrize("attempts", [1, 0, -4])
def test_pinned_interval_needs_a_proposal_per_coupling_group(attempts):
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    with pytest.raises(ValueError, match="at least 2 attempts"):
        negexample_check(u, delta=0.2, delta_prime=0.2, attempts=attempts, seed=0)


# ---------------------------------------------------------------------------
# Gaussian conditionals


def test_s_l_values():
    assert s_l(1.0, 3) == 4.0
    assert s_l(0.5, 2) == 1.0 + 0.25 + 0.0625
    assert s_l(2.0, 0) == 1.0


def test_band_matrix_shape():
    A = build_A_l(0.5, 3)
    assert A.shape == (3, 4)
    assert A[0, 0] == 1.0 and A[0, 1] == 0.5 and A[2, 3] == 0.5


def test_determinant_identity_all_l():
    for a in (0.5, 1.0, 2.0):
        for l in range(1, 9):
            res = a_l_determinants(a, l)
            assert res["det"] == pytest.approx(res["s_l"], rel=1e-10)
            # the sum started at i=1 misses the determinant by exactly 1
            assert res["det"] - res["s_l_from_one"] == pytest.approx(1.0, rel=1e-9)


def test_determinant_reference_values():
    # direct determinants: a=1 gives det = l+1; a=0.5, l=2 gives 1.3125
    assert a_l_determinants(1.0, 3)["det"] == pytest.approx(4.0, abs=1e-12)
    assert a_l_determinants(0.5, 2)["det"] == pytest.approx(1.3125, abs=1e-12)


def test_corner_inverse_entries():
    for a in (0.5, 1.0, 1.7):
        for l in range(1, 7):
            res = a_l_determinants(a, l)
            want = s_l(a, l - 1) / s_l(a, l)
            assert res["corner_11"] == pytest.approx(want, rel=1e-10)
            assert res["corner_ll"] == pytest.approx(want, rel=1e-10)


def test_conditional_one_sided_reference():
    # m=0, a=1, sigma=1, l=2: variance 1 + 1/s_2 = 1 + 1/3, from both routes
    _, gamma = gaussian_conditional(1.0, 1.0, 2, 0)
    _, gamma_o = conditional_oracle(1.0, 1.0, 2, 0)
    assert gamma == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert gamma_o == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_conditional_two_sided_reference():
    # m=l=1, a=1, sigma=1: variance 1 - 1 + 1/2 + 1/2 = 1, matching the oracle
    _, gamma = gaussian_conditional(1.0, 1.0, 1, 1)
    _, gamma_o = conditional_oracle(1.0, 1.0, 1, 1)
    assert gamma == pytest.approx(1.0, abs=1e-12)
    assert gamma_o == pytest.approx(1.0, abs=1e-12)


def test_conditional_formula_vs_oracle_grid():
    rng = np.random.default_rng(3)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0):
            for l in range(1, 7):
                for m in range(0, 7):
                    v_plus = rng.normal(size=l)
                    v_minus = rng.normal(size=m) if m else None
                    mean_f, var_f = gaussian_conditional(a, sigma, l, m, v_minus, v_plus)
                    mean_o, var_o = conditional_oracle(a, sigma, l, m, v_minus, v_plus)
                    worst = max(worst, abs(mean_f - mean_o), abs(var_f - var_o))
    assert worst <= 1e-10


def test_conditional_rejects_decoupled():
    with pytest.raises(ValueError):
        gaussian_conditional(0.0, 1.0, 2, 2)


def test_holder_probe_uniform_lower_bound_off_one():
    a, sigma = 0.5, 1.0
    probe = holder_constant_probe(a, sigma, [2, 4, 8])
    floor = sigma * math.sqrt(abs(a * a - 1.0))
    for L, val in probe.items():
        assert val >= floor - 1e-12


def test_holder_probe_degenerates_at_one():
    probe = holder_constant_probe(1.0, 1.0, [2, 4, 8, 16])
    vals = [probe[L] for L in (2, 4, 8, 16)]
    assert vals[0] > vals[1] > vals[2] > vals[3]
    # 1/L-type decay: doubling L shrinks the minimal conditional std
    assert vals[3] < 0.5 * vals[0]


def test_holder_probe_single_l():
    probe = holder_constant_probe(0.5, 1.0, [1])
    _, gamma = gaussian_conditional(0.5, 1.0, 1, 1)
    # the interior site of the L=1 box sees one value on each side
    assert probe[1] == pytest.approx(math.sqrt(gamma), rel=1e-12)
