"""End-to-end acceptance checks, one per stated criterion, at stated tolerances.

Each test prints a single PASS line with its runtime; the assertions pin the
tolerances exactly as specified (1e-8 identity discrepancies, 1e-9 exact
sums, 1e-10 conditional agreement, 3-sigma bound comparisons for MC).
"""

import math
import time

import numpy as np
import pytest

from alloylab.averaging import (
    det_average_check,
    detgen_check,
    graf_check,
    nonmonotone_average_check,
    resolvent_average_check,
)
from alloylab.gaussian import (
    a_l_determinants,
    conditional_oracle,
    gaussian_conditional,
    negexample_check,
    s_l,
)
from alloylab.green import (
    verify_resolvent_identities,
    verify_schur_identity,
    verify_two_step_schur,
)
from alloylab.model import (
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    assemble_hamiltonian,
    build_box,
    explicit_geometry,
    lambda_plus,
    sample_configuration,
)
from alloylab.moments import (
    decay_profile,
    estimate_moment,
    nonlocal_apriori_bound,
    one_d_constants,
    w_xy,
)
from alloylab.poscomb import (
    compute_R_l,
    find_I0,
    multi_indices_of_degree,
    prop1_sum,
    prop2_min,
)
from alloylab.spectra import wegner_mc


def report(name: str, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    print(f"\n[PASS] {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def uniform01():
    return DisorderDensity("uniform", (0, 1))


def test_c01_exact_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    profiles_1d = [
        {(0,): 1.0, (1,): -0.5},
        {(0,): 1.0, (1,): -1.0},
        {(0,): 0.7, (1,): 0.4, (2,): -0.3},
        {(0,): 1.0},
    ]
    profiles_2d = [
        {(0, 0): 1.0},
        {(0, 0): 1.0, (1, 0): -0.5},
        {(0, 0): 1.0, (0, 1): -0.25, (1, 1): 0.5},
    ]
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        lam = float(rng.uniform(0.5, 30.0))
        z = complex(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2.0)))
        if d == 1:
            u = SingleSitePotential.from_values(profiles_1d[i % len(profiles_1d)])
            n_sites = int(rng.integers(10, 41))
            geometry = explicit_geometry([(k,) for k in range(n_sites)])
            a = int(rng.integers(2, n_sites // 2))
            b = int(rng.integers(a + 2, n_sites - 1))
            inner = [(k,) for k in range(a, b)]
            inner2 = [(k,) for k in range(max(1, a - 2), min(n_sites - 1, b + 2))]
        else:
            u = SingleSitePotential.from_values(profiles_2d[i % len(profiles_2d)])
            R = int(rng.integers(3, 6))  # up to 11x11 = 121 <= 200 sites
            geometry = build_box(R, (0, 0))
            inner = build_box(1, (0, 0)).sites
            inner2 = build_box(R - 1, (0, 0)).sites
        model = ModelConfig(d, lam, u, uniform01())
        omega = sample_configuration(model, lambda_plus(geometry, u), seed=2000 + i)
        worst = max(worst, verify_schur_identity(model, omega, geometry, inner, z))
        worst = max(worst, verify_two_step_schur(model, omega, geometry, inner, inner2, z))
        f, s = verify_resolvent_identities(model, omega, geometry, inner, z)
        worst = max(worst, f, s)
    assert worst <= 1e-8
    report("C1 exact identities (Schur, two-step, resolvent)", t0, 30,
           f"max discrepancy {worst:.3e} over 100 instances")


def test_c02_leading_sum_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    done = 0
    while done < 50:
        d = 1 if done % 2 == 0 else 2
        box = build_box(3 if d == 1 else 1, (0,) * d)
        vals = {}
        for site in box.sites:
            v = float(rng.uniform(-2, 2))
            if abs(v) > 0.05 and rng.random() < 0.8:
                vals[site] = v
        if (0,) * d not in vals:
            continue
        u = SingleSitePotential.from_values(vals)
        try:
            lead = find_I0(u, degree_cap=10)
        except ValueError:
            continue
        if abs(lead.c_u) <= 1e-6:
            continue
        for _ in range(20):
            x = tuple(int(c) for c in rng.integers(-50, 51, size=d))
            assert abs(prop1_sum(u, lead.I0, x) - lead.c_u) <= 1e-9
            for deg in range(sum(lead.I0)):
                for I in multi_indices_of_degree(d, deg):
                    if all(a <= b for a, b in zip(I, lead.I0)):
                        assert abs(prop1_sum(u, I, x)) <= 1e-9
        done += 1
    report("C2 leading-sum exactness", t0, 5, "50 random profiles, 20 shifts each")


def test_c03_uniform_positivity_radius():
    t0 = time.perf_counter()
    for alpha in (0.5, 1.0, 2.0):
        trunc = 64 if alpha == 0.5 else 40
        u = SingleSitePotential.exponential(rate=alpha, truncation_radius=trunc)
        lead = find_I0(u)
        tail = u.tail_l1_error()
        for l in (2, 5, 8):
            _, R_int = compute_R_l(1.0, alpha, lead.c_u, lead.I0, l, 1)
            assert R_int + l <= trunc, "truncation must cover the probe window"
            val = prop2_min(u, l, R_int, lead)
            assert val >= 1.0 - 10.0 * tail - 1e-12, (alpha, l, val)
    report("C3 uniform positivity on boxes", t0, 5, "alpha in {0.5,1,2}, l in {2,5,8}")


def test_c04_averaging_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    un, rc = uniform01(), DisorderDensity("raised_cosine", (0, 1))
    tri = DisorderDensity("piecewise_linear", [(0, 0), (0.3, 1.5), (1, 0)])

    spot = graf_check(un, 0.5, 0.5)
    assert spot.integral_value == pytest.approx(2 * math.sqrt(2), abs=1e-8)
    assert spot.bound_value == pytest.approx(4.0, abs=1e-12)

    for i in range(200):
        s = float(rng.uniform(0.15, 0.85))
        dens = (un, rc, tri)[i % 3]
        beta = complex(float(rng.uniform(-1, 2)), float(rng.uniform(0, 1)) * (i % 2))
        assert graf_check(dens, s, beta).holds()

        n = int(rng.integers(1, 6))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V = rng.normal(size=(n, n))
        while abs(np.linalg.det(V)) < 1e-3:
            V = rng.normal(size=(n, n))
        assert det_average_check(A, V, dens, s).holds()
        assert resolvent_average_check(A, V, dens, s).holds()

    for i in range(200):
        s = float(rng.uniform(0.2, 0.8))
        n = int(rng.integers(1, 4))
        N = int(rng.integers(0, 3))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Vs = [rng.normal(size=(n, n)) for _ in range(N + 1)]
        alpha = np.zeros(N + 1)
        while abs(np.linalg.det(sum(a * V for a, V in zip(alpha, Vs)))) < 1e-3:
            alpha = rng.uniform(-1, 1, size=N + 1)
            alpha[0] = float(rng.uniform(0.3, 1.0))
        chk = detgen_check(A, Vs, alpha, un, s, trials=1500, seed=500 + i)
        assert chk.holds(), (i, chk)

    for i in range(200):
        s = float(rng.uniform(0.2, 0.8))
        n = int(rng.integers(1, 5))
        B = rng.normal(size=(n, n))
        A = (B + B.T) / 2 + 1j * np.eye(n) * float(rng.uniform(0, 0.5))
        W = np.diag(rng.uniform(0.2, 2.0, size=n))
        x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
        z = complex(float(rng.uniform(-1, 1)), -float(rng.uniform(0.05, 1.0)))
        dens = (rc, tri)[i % 2]
        chk = nonmonotone_average_check(A, W, dens, s, x, y, z)
        assert chk.holds(), (i, chk)
    report("C4 averaging bounds", t0, 120, "5 averaging checks x 200 randomized instances")


def test_c05_one_dimensional_decay():
    t0 = time.perf_counter()
    sanity = one_d_constants(SingleSitePotential.delta(1), uniform01(), 64.0, 0.5)
    assert sanity.C == pytest.approx(0.5, abs=1e-12)
    assert sanity.mu == pytest.approx(math.log(2.0), abs=1e-12)

    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    model = ModelConfig(1, 50.0, u, uniform01())
    consts = one_d_constants(u, uniform01(), 50.0, 0.5)
    assert 50.0 > consts.disorder_threshold  # ~22.63
    prof = decay_profile(model, 60, 0.5j, 0.5, trials=5000, seed=20260810)
    checked = 0
    for row in prof["rows"]:
        if row["distance"] >= 4:
            bound = consts.bound(row["distance"])
            assert row["mean"] + 3 * row["stderr"] <= bound, row
            checked += 1
    assert checked == 56
    report("C5 one-dimensional decay", t0, 180,
           f"56 separations vs C+ e^(-mu floor(d/2)), threshold {consts.disorder_threshold:.2f}")


def test_c06_nonlocal_apriori_bound():
    t0 = time.perf_counter()
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.25})
    rc = DisorderDensity("raised_cosine", (0, 1))
    assert rc.deriv_l1 == pytest.approx(4.0, abs=1e-12)
    s = 1.0 / 3.0
    info = nonlocal_apriori_bound(u, rc, 10.0, s)
    assert info["ubar"] == pytest.approx(0.75)
    model = ModelConfig(1, 10.0, u, rc)
    for n_sites in (10, 25, 40):
        geometry = explicit_geometry([(k,) for k in range(n_sites)])
        pairs = [((0,), (n_sites - 1,)), ((0,), (n_sites // 2,)),
                 ((n_sites // 2,), (n_sites // 2,))]
        for im in (0.1, 0.5, 1.0):
            for x, y in pairs:
                est = estimate_moment(model, geometry, complex(0.0, im), s, x, y,
                                      trials=400, seed=606)
                assert est.mean <= info["bound"] + 3 * est.stderr, (n_sites, im, x, y)
    report("C6 non-local a-priori bound", t0, 120,
           f"bound {info['bound']:.2f} dominates MC on boxes up to 40 sites")


def test_c07_eigenvalue_count_bound():
    t0 = time.perf_counter()
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=12)
    model = ModelConfig(1, 1.0, u, uniform01())
    rep = wegner_mc(model, 6, (-0.1, 0.1), trials=2000, seed=707)
    assert rep.bound_satisfied
    assert rep.mean_count + 3 * rep.stderr <= rep.abstract_bound

    r_wide = wegner_mc(model, 6, (-0.2, 0.2), trials=2000, seed=708)
    r_half = wegner_mc(model, 6, (-0.1, 0.1), trials=2000, seed=708)
    assert r_wide.mean_count > 20 * r_wide.stderr
    assert r_half.mean_count > 20 * r_half.stderr
    ratio = r_wide.mean_count / r_half.mean_count
    assert 1.5 <= ratio <= 2.5
    report("C7 eigenvalue-count bound", t0, 120,
           f"mean {rep.mean_count:.3f} vs bound {rep.abstract_bound:.1f}, |I|-ratio {ratio:.2f}")


def test_c08_gaussian_conditionals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0):
            for l in range(1, 7):
                for m in range(0, 7):
                    v_plus = rng.normal(size=l)
                    v_minus = rng.normal(size=m) if m else None
                    got = gaussian_conditional(a, sigma, l, m, v_minus, v_plus)
                    want = conditional_oracle(a, sigma, l, m, v_minus, v_plus)
                    worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst <= 1e-10
    det_worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for l in range(2, 9):
            res = a_l_determinants(a, l)
            det_worst = max(det_worst, abs(res["det"] - s_l(a, l)) / abs(res["det"]))
    assert det_worst <= 1e-10
    report("C8 Gaussian conditionals", t0, 5,
           f"formula-vs-oracle {worst:.2e}, det identity {det_worst:.2e}")


def test_c09_pinned_interval():
    t0 = time.perf_counter()
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    res = negexample_check(u, delta=0.05, delta_prime=0.05, attempts=100000, seed=909)
    assert not res["inconclusive"]
    assert res["accepted"] > 0
    assert res["violations"] == 0
    report("C9 pinned conditional interval", t0, 10,
           f"{res['accepted']} conditioned samples, 0 violations")


def test_c10_trivial_spectra():
    t0 = time.perf_counter()
    u = SingleSitePotential.delta(1)
    model = ModelConfig(1, 0.0, u, uniform01())
    for n in range(2, 51):
        geometry = explicit_geometry([(k,) for k in range(n)])
        omega = sample_configuration(model, lambda_plus(geometry, u), seed=1)
        ev = np.linalg.eigvalsh(assemble_hamiltonian(model, omega, geometry))
        want = np.sort([-2 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)])
        assert np.max(np.abs(ev - want)) <= 1e-10
    report("C10 free-chain spectra", t0, 1, "n = 2..50 vs -2 cos(pi k/(n+1))")


def test_c11_exponential_weight_positivity():
    t0 = time.perf_counter()
    for u_vals in ({(0,): 1.0, (1,): 1.0}, {(0,): 1.0, (1,): -0.25}):
        u = SingleSitePotential.from_values(u_vals)
        window = [(k,) for k in range(-6, 7)]
        for x, y in (((0,), (0,)), ((-3,), (4,)), ((2,), (2,))):
            rep = w_xy(u, x, y, window)
            assert rep["min_margin"] >= -1e-12
            assert rep["at_x"] >= rep["quarter_ubar"] - 1e-12
            assert rep["at_y"] >= rep["quarter_ubar"] - 1e-12
    report("C11 exponential-weight positivity", t0, 1,
           "margins >= 0 and endpoint values >= ubar/4 at 1e-12")
