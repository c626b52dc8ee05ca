"""Fractional-moment MC, explicit decay constants, screening sums, bounds."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from alloylab import moments
from alloylab.averaging import detgen_check
from alloylab.model import (
    BoxGeometry,
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    build_box,
    explicit_geometry,
    load_model_config,
)
from alloylab.moments import (
    DisorderSampler,
    decay_profile,
    estimate_moment,
    estimate_moments,
    exponential_weights,
    finite_volume_sum,
    gap_constants,
    largest_gap,
    nonlocal_apriori_bound,
    one_d_constants,
    run_trials,
    w_xy,
)
from alloylab.rng import trial_stream
from alloylab.spectra import pair_regularity_probability, wegner_mc
from oracles import gap_constants_reference


def uniform01():
    return DisorderDensity("uniform", (0, 1))


def chain(n):
    return explicit_geometry([(k,) for k in range(n)])


# ---------------------------------------------------------------------------
# estimate_moment


def test_moment_no_disorder_degenerate():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 0.0, u, uniform01())
    g = chain(6)
    est = estimate_moment(m, g, 0.5j, 0.5, (0,), (3,), trials=20, seed=1)
    assert est.stderr == 0.0
    H = np.zeros((6, 6))
    for i in range(5):
        H[i, i + 1] = H[i + 1, i] = -1.0
    G = np.linalg.inv(H - 0.5j * np.eye(6))
    assert est.mean == pytest.approx(abs(G[0, 3]) ** 0.5, abs=1e-12)


def test_moment_single_site_quadrature_oracle():
    # E|1/(omega - i)|^{1/2} = int_0^1 (w^2+1)^{-1/4} dw = 0.93748975...
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1.0, u, uniform01())
    g = explicit_geometry([(0,)])
    est = estimate_moment(m, g, 1j, 0.5, (0,), (0,), trials=4000, seed=3)
    oracle = 0.9374897507469362
    assert abs(est.mean - oracle) <= 3 * est.stderr
    val, _ = quad(lambda w: (w * w + 1.0) ** -0.25, 0, 1)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_moment_stderr_scaling():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 2.0, u, uniform01())
    g = chain(10)
    e1 = estimate_moment(m, g, 0.5j, 0.5, (0,), (5,), trials=2000, seed=5)
    e2 = estimate_moment(m, g, 0.5j, 0.5, (0,), (5,), trials=4000, seed=5)
    ratio = e1.stderr / e2.stderr
    assert abs(ratio - math.sqrt(2)) < 0.2 * math.sqrt(2)


def test_moment_rejects_bad_inputs():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1.0, u, uniform01())
    g = chain(4)
    with pytest.raises(ValueError):
        estimate_moment(m, g, 1.0, 0.5, (0,), (1,), 10, 0)  # real z
    with pytest.raises(ValueError):
        estimate_moment(m, g, 1j, 1.5, (0,), (1,), 10, 0)  # s outside (0,1)
    with pytest.raises(ValueError):
        estimate_moment(m, g, 1j, 0.5, (0,), (9,), 10, 0)  # y outside


def test_estimate_moments_needs_a_pair():
    m = ModelConfig(1, 1.0, SingleSitePotential.delta(1), uniform01())
    with pytest.raises(ValueError, match="at least one"):
        estimate_moments(m, chain(4), 1j, 0.5, [], 10, 0)


@pytest.mark.parametrize("z, s, bad", [
    (1j, 0.5, ((0,), (9,))),  # site outside the geometry
    (1.0, 0.5, ((0,), (1,))),  # real z
    (1j, 1.5, ((0,), (1,))),  # s outside (0, 1)
], ids=["site-outside", "real-z", "s-outside"])
def test_estimate_moments_checks_every_pair_before_any_stream(monkeypatch, z, s, bad):
    calls = []

    def counting(seed, trial):
        calls.append(trial)
        return trial_stream(seed, trial)

    monkeypatch.setattr(moments, "trial_stream", counting)
    m = ModelConfig(1, 1.0, SingleSitePotential.delta(1), uniform01())
    with pytest.raises(ValueError):
        estimate_moments(m, chain(4), z, s, [((0,), (3,)), bad], 10, 0)
    assert calls == []


def test_moment_site_order_invariance():
    # permuting the geometry's site order must not change the estimate
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 3.0, u, uniform01())
    sites = [(k,) for k in range(8)]
    g1 = BoxGeometry(tuple(sites))
    g2 = BoxGeometry(tuple(reversed(sites)))
    e1 = estimate_moment(m, g1, 0.4j, 0.5, (1,), (6,), trials=50, seed=9)
    e2 = estimate_moment(m, g2, 0.4j, 0.5, (1,), (6,), trials=50, seed=9)
    assert e1.mean == pytest.approx(e2.mean, rel=1e-12)


def test_moment_threads_bitwise_stable():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 3.0, u, uniform01())
    g = chain(8)
    e1 = estimate_moment(m, g, 0.4j, 0.5, (0,), (6,), trials=64, seed=2, threads=1)
    e2 = estimate_moment(m, g, 0.4j, 0.5, (0,), (6,), trials=64, seed=2, threads=4)
    assert e1.mean == e2.mean and e1.stderr == e2.stderr


def _bits(result):
    """A form of an estimator's result that compares equal only when every float agrees bit for bit."""
    if isinstance(result, dict):
        return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v) for k, v in result.items()}
    return repr(result)


_GAPPED = ModelConfig(1, 30.0, SingleSitePotential.from_values({(0,): 1.0, (2,): -0.3}),
                      DisorderDensity("raised_cosine", (0, 1)))
_PAIR = ModelConfig(1, 2.0, SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5}), uniform01())


@pytest.mark.parametrize("call", [
    lambda threads: estimate_moments(_GAPPED, chain(9), 0.3 + 0.4j, 0.5, [((0,), (4,)), ((2,), (8,))],
                                     40, 2, threads),
    lambda threads: decay_profile(_GAPPED, 12, 0.3 + 0.4j, 0.5, 40, 2, threads),
    lambda threads: finite_volume_sum(_PAIR, explicit_geometry([(k,) for k in range(-10, 11)]), (0,),
                                      0.5j, 0.3, L=3, trials=40, seed=1, threads=threads),
], ids=["estimate_moments", "decay_profile", "finite_volume_sum"])
def test_moment_estimators_solve_on_the_calling_thread(monkeypatch, call):
    # zgbsv holds the GIL, so a pool would only add contention: threads = 3 starts none, and changes no bit
    def refuse(*args, **kwargs):
        raise AssertionError("a moment estimator started a worker pool")

    monkeypatch.setattr(moments, "ThreadPoolExecutor", refuse)
    assert _bits(call(3)) == _bits(call(1))


@pytest.mark.parametrize("call", [
    lambda threads: estimate_moment(_PAIR, chain(6), 0.5j, 0.3, (0,), (3,), 10, seed=1, threads=threads),
    lambda threads: decay_profile(_PAIR, 6, 0.5j, 0.5, 10, seed=1, threads=threads),
    lambda threads: finite_volume_sum(_PAIR, chain(21), (10,), 0.5j, 0.3, L=3, trials=10, seed=1,
                                      threads=threads),
    # the gap search of a gapped u draws its own key before the moments
    lambda threads: decay_profile(_GAPPED, 12, 0.3 + 0.4j, 0.5, 10, seed=1, threads=threads),
    lambda threads: wegner_mc(_PAIR, 3, (-0.1, 0.1), 500, seed=1, threads=threads),
    lambda threads: pair_regularity_probability(_PAIR, 2, (0,), (6,), (-1, 1), 3, 0.1, 200, seed=1,
                                                threads=threads),
], ids=["estimate_moment", "decay_profile", "finite_volume_sum", "decay_profile-gapped", "wegner_mc",
        "pair_regularity_probability"])
def test_moment_estimators_check_threads_before_any_stream(monkeypatch, call):
    calls = []

    def counting(seed, trial):
        calls.append(trial)
        return trial_stream(seed, trial)

    monkeypatch.setattr(moments, "trial_stream", counting)
    with pytest.raises(ValueError, match="threads must be >= 1 and an integer"):
        call(0)
    assert calls == []


# ---------------------------------------------------------------------------
# explicit constants


def test_one_d_constants_delta_reference():
    c = one_d_constants(SingleSitePotential.delta(1), uniform01(), 64.0, 0.5)
    assert c.C_u == pytest.approx(1.0, abs=1e-12)
    assert c.C_rho == pytest.approx(4.0, abs=1e-12)
    assert c.C == pytest.approx(0.5, abs=1e-12)
    assert c.mu == pytest.approx(math.log(2.0), abs=1e-12)
    assert c.disorder_threshold == pytest.approx(16.0, abs=1e-10)


def test_one_d_constants_threshold_consistency():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    rho = uniform01()
    for s in (0.3, 0.5, 0.7):
        c = one_d_constants(u, rho, 30.0, s)
        above = one_d_constants(u, rho, c.disorder_threshold * 1.01, s)
        below = one_d_constants(u, rho, c.disorder_threshold * 0.99, s)
        assert above.C < 1.0 < below.C
        assert above.mu > 0.0 > below.mu


def test_one_d_constants_reference_model():
    # sign-changing pair at coupling 50: threshold ~22.63, contraction < 1
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    c = one_d_constants(u, uniform01(), 50.0, 0.5)
    assert c.disorder_threshold == pytest.approx(16.0 * 2.0 ** 0.5, abs=1e-9)
    assert c.C == pytest.approx(2.0 ** 0.25 * 4.0 / 50.0 ** 0.5, abs=1e-12)
    assert c.C_plus == pytest.approx(2.0 ** 0.25 * 4.0 * 50.0 ** -0.25, abs=1e-12)


@pytest.mark.parametrize("density", [DisorderDensity("uniform", (0, 0.5)), DisorderDensity("raised_cosine", (0, 1))],
                         ids=["uniform(0,0.5)", "raised_cosine(0,1)"])
def test_one_d_constants_plus_prefactors_reference(density):
    # ||rho||_inf = 2 > 1, so the maxima over the exponents s and s/n pick s
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    lam, s, n = 50.0, 0.5, 2
    c = one_d_constants(u, density, lam, s)
    C_s = 2 ** s * s ** -s / (1 - s)
    assert c.C_rho_plus == pytest.approx(2.0 ** s * C_s, rel=1e-12)
    # C_u_plus = max(1, 0.5^{-s/n}) and lambda^{-s/n} > lambda^{-s}
    assert c.C_plus == pytest.approx(0.5 ** (-s / n) * 2.0 ** s * C_s * lam ** (-s / n), rel=1e-12)


def test_one_d_constants_strong_coupling_limit():
    u = SingleSitePotential.delta(1)
    c1 = one_d_constants(u, uniform01(), 1e4, 0.5)
    c2 = one_d_constants(u, uniform01(), 1e8, 0.5)
    assert c2.C < c1.C < 1.0
    assert c2.mu > c1.mu > 0.0


def test_one_d_constants_rejects_gaps():
    u = SingleSitePotential.from_values({(0,): 1.0, (2,): -1.0})
    with pytest.raises(ValueError):
        one_d_constants(u, uniform01(), 10.0, 0.5)


def test_largest_gap():
    assert largest_gap(SingleSitePotential.from_values({(0,): 1, (1,): 1, (2,): 1})) == 0
    assert largest_gap(SingleSitePotential.from_values({(0,): 1, (2,): -1})) == 1
    assert largest_gap(SingleSitePotential.from_values({(0,): 1, (3,): -1})) == 2


def test_gap_constants_connected_reduces_to_plain():
    # with no gap the alpha_0 factors cancel exactly and D equals the
    # connected-contraction constant
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    rho = uniform01()
    plain = one_d_constants(u, rho, 50.0, 0.5)
    gap = gap_constants(u, rho, 50.0, 0.5)
    assert gap.r == 0
    assert gap.D == pytest.approx(plain.C, rel=1e-12)


def test_gap_constants_search_distance():
    u = SingleSitePotential.from_values({(0,): 1.0, (2,): -1.0})
    g = gap_constants(u, uniform01(), 40.0, 0.5)
    assert g.r == 1 and g.n == 3
    assert g.min_distance >= g.d0 / 2.0
    assert g.alpha[0] >= 1.0 / (2.0 * 3.0 * math.sqrt(2.0))
    # direct evaluation never exceeds the volume-argument closed form
    assert g.D <= g.D_volume * (1 + 1e-12)
    assert g.D_plus <= g.D_plus_volume * (1 + 1e-12)


def test_gap_constants_contraction_at_strong_coupling():
    u = SingleSitePotential.from_values({(0,): 1.0, (2,): -1.0})
    g = gap_constants(u, uniform01(), 1e4, 0.5)
    assert g.D < 1.0 and g.mu > 0.0


_GAP_D1, _ = load_model_config(Path(__file__).resolve().parent.parent / "tools" / "gap_d1.json")


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("model, decays", [
    (ModelConfig(1, 1000.0, SingleSitePotential.from_values({(0,): 1.0, (2,): -0.3}), uniform01()), True),
    (_GAP_D1, False),
], ids=["delta0-0.3delta2@1000", "gap_d1.json"])
def test_gap_constants_match_the_reference(model, decays, s):
    g = gap_constants(model.potential, model.density, model.coupling, s)
    want = gap_constants_reference(model.potential, model.density, model.coupling, s, g.alpha)
    for name, value in want.items():
        assert getattr(g, name) == pytest.approx(value, rel=1e-12), name
    assert g.mu == (-math.log(g.D) if g.D < 1 else 0.0)
    assert (g.mu > 0.0) == decays  # mu > 0: D sets the rate of the decay rows' bound


# ---------------------------------------------------------------------------
# decay profiles


def test_decay_profile_no_disorder_flat():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 0.0, u, uniform01())
    prof = decay_profile(m, 12, 0.5j, 0.5, trials=5, seed=0)
    H = np.zeros((12, 12))
    for i in range(11):
        H[i, i + 1] = H[i + 1, i] = -1.0
    G = np.linalg.inv(H - 0.5j * np.eye(12))
    for row in prof["rows"]:
        d = row["distance"]
        assert row["stderr"] == 0.0
        assert row["mean"] == pytest.approx(abs(G[0, d]) ** 0.5, abs=1e-12)
        assert row["bound"] == math.inf and row["pass"] is None  # no bound without disorder


def test_decay_profile_bound_and_fit():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 50.0, u, uniform01())
    prof = decay_profile(m, 30, 0.5j, 0.5, trials=1500, seed=4)
    assert prof["exponent"] == pytest.approx(0.25)
    for row in prof["rows"]:
        if row["distance"] >= prof["min_dist"]:
            assert row["pass"], row
        else:
            assert row["pass"] is None, row  # compared to no bound
    assert prof["fit"] < 0.0
    assert prof["constants"].mu > 0.0


def test_decay_profile_gapped_support():
    u = SingleSitePotential.from_values({(0,): 1.0, (2,): -1.0})
    m = ModelConfig(1, 200.0, u, uniform01())
    prof = decay_profile(m, 24, 0.5j, 0.5, trials=600, seed=6)
    assert prof["exponent"] == pytest.approx(0.5 / 4.0)  # s/(n+r) with n=3, r=1
    for row in prof["rows"]:
        if row["distance"] >= prof["min_dist"]:
            assert row["pass"], row


def test_decay_profile_rejects_real_energy():
    # lambda = 0 on a 3-site chain: z = 0 is an exact eigenvalue of -Delta
    m = ModelConfig(1, 0.0, SingleSitePotential.delta(1), uniform01())
    with pytest.raises(ValueError, match="imaginary part"):
        decay_profile(m, 3, 0.0, 0.5, trials=5, seed=0)


def test_decay_profile_needs_a_distance():
    # one chain site leaves no y != x to sweep
    m = ModelConfig(1, 1.0, SingleSitePotential.delta(1), uniform01())
    with pytest.raises(ValueError, match="at least two chain sites"):
        decay_profile(m, 1, 0.5j, 0.5, trials=5, seed=0)


def test_decay_profile_refuses_a_two_dimensional_model():
    m = ModelConfig(2, 1.0, SingleSitePotential.delta(2), uniform01())
    with pytest.raises(ValueError, match="decay profiles are one-dimensional"):
        decay_profile(m, 6, 0.5j, 0.5, trials=5, seed=0)


def test_singular_solve_raises():
    m = ModelConfig(1, 0.0, SingleSitePotential.delta(1), uniform01())
    # lambda = 0: H - z is 0 on one site, and -Delta on two sites has eigenvalue 1
    for n, z in ((1, 0j), (2, 1 + 0j)):
        sampler = DisorderSampler(m, chain(n))
        with pytest.raises(np.linalg.LinAlgError):
            sampler.green_column(sampler.diagonals(np.full(n, 0.5)), z, [0])


def test_illegal_gbsv_argument_raises(monkeypatch):
    m = ModelConfig(1, 1.0, SingleSitePotential.delta(1), uniform01())
    sampler = DisorderSampler(m, chain(3))
    monkeypatch.setattr(sampler, "_gbsv", lambda kl, ku, ab, b, **kw: (ab, None, b, -3))
    with pytest.raises(np.linalg.LinAlgError, match="argument 3"):
        sampler.green_column(sampler.diagonals(np.full(3, 0.5)), 1j, [0])


@pytest.mark.parametrize("geometry", [chain(9), build_box(3, (0, 0))], ids=["chain", "d2-box"])
def test_gbsv_gets_a_fortran_band_and_solves_as_on_the_c_ordered_band(monkeypatch, geometry):
    m = ModelConfig(geometry.dimension, 1.5, SingleSitePotential.delta(geometry.dimension), uniform01())
    sampler = DisorderSampler(m, geometry)
    diagonal = sampler.diagonals(np.random.default_rng(5).uniform(0.0, 1.0, len(sampler.potential.coupling_sites)))
    z, sources = 0.3 + 0.2j, [0, len(geometry) // 2]
    gbsv, layouts = sampler._gbsv, []

    def spy(kl, ku, ab, b, **kw):
        layouts.append(ab.flags.f_contiguous)
        return gbsv(kl, ku, ab, b, **kw)

    monkeypatch.setattr(sampler, "_gbsv", spy)
    got = sampler.green_column(diagonal, z, sources)
    assert layouts == [True]
    assert sampler._band.flags.f_contiguous

    # the C-ordered band that green_column passed before, solved by the same LAPACK call
    k = sampler.half_bandwidth
    ab = np.ascontiguousarray(sampler._band)
    ab[2 * k] = diagonal - z
    rhs = np.zeros((len(geometry), len(sources)), dtype=complex, order="F")
    rhs[sources, range(len(sources))] = 1.0
    _, _, want, info = gbsv(k, k, ab, rhs, overwrite_ab=True, overwrite_b=True)
    assert info == 0
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("geometry, k", [
    (chain(1), 0),
    (chain(7), 1),
    (explicit_geometry([(0,), (2,), (4,)]), 0),  # no hopping between the sites
    (build_box(2, (0, 0)), 5),  # lexicographic order: a neighbour is one box side away
    (build_box(1, (0, 0, 0)), 9),
    (BoxGeometry(((0,), (2,), (1,))), 2),  # unsorted sites widen the band
], ids=["one-site", "chain", "isolated-sites", "d2-box", "d3-box", "unsorted"])
def test_half_bandwidth_is_measured_from_the_geometry(geometry, k):
    m = ModelConfig(geometry.dimension, 1.0, SingleSitePotential.delta(geometry.dimension), uniform01())
    assert DisorderSampler(m, geometry).half_bandwidth == k


def _d2_model():
    return ModelConfig(2, 1.0, SingleSitePotential.from_values({(0, 0): 1.0, (1, 0): -0.5}), uniform01())


def test_a_sampler_that_only_draws_never_finds_the_bonds():
    geometry = build_box(2, (0, 0))
    sampler = DisorderSampler(_d2_model(), geometry)
    sampler.diagonals(sampler.omega(3, 4))
    assert "bonds" not in geometry.__dict__


def test_a_sampler_that_only_assembles_never_maps_the_couplings():
    geometry = build_box(2, (0, 0))
    sampler = DisorderSampler(_d2_model(), geometry)
    sampler.hamiltonian(np.zeros(len(geometry)))
    assert "potential" not in sampler.__dict__


# ---------------------------------------------------------------------------
# finite-volume screening sum


def test_finite_volume_geometry_1d():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 2.0, u, uniform01())
    region = explicit_geometry([(k,) for k in range(-10, 11)])
    res = finite_volume_sum(m, region, (0,), 0.5j, 0.3, L=2, trials=40, seed=1)
    # exterior boundary of W = {-3..-1, 1..3} is {-4, 0, 4}; only w = 0 (the
    # x block) carries a nonzero Green value, the far components vanish
    assert res["boundary_sites"] == [(-4,), (0,), (4,)]
    nonzero = [float(v) for v in res["means"] if v > 1e-14]
    assert len(nonzero) == 1
    assert res["raw_sum"] == pytest.approx(nonzero[0], abs=1e-14)


def test_finite_volume_xi_at_unit_coupling():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1.0, u, uniform01())
    region = explicit_geometry([(k,) for k in range(-8, 9)])
    res = finite_volume_sum(m, region, (0,), 0.5j, 0.3, L=2, trials=10, seed=1)
    assert res["xi"] == 1.0
    assert res["scaled"] == pytest.approx(res["raw_sum"], rel=1e-12)


@pytest.mark.parametrize("lam", [4.0, 0.25])
def test_finite_volume_xi_reference(lam):
    # |Theta| = 1, so the exponent is s/2; xi = max(lambda^{-s/2}, lambda^{-2s}) takes the first
    # branch above lambda = 1 and the second below it
    s = 0.3
    m = ModelConfig(1, lam, SingleSitePotential.delta(1), uniform01())
    res = finite_volume_sum(m, chain(17), (8,), 0.5j, s, L=2, trials=10, seed=1)
    xi = lam ** (-s / 2) if lam > 1 else lam ** (-2 * s)
    assert res["xi"] == pytest.approx(xi, rel=1e-12)
    assert res["scaled"] == pytest.approx(res["raw_sum"] * xi / lam ** s, rel=1e-12)


def test_finite_volume_scaled_reference_in_two_dimensions():
    # d = 2 and |Theta| = 2: scaled = raw L^{3(d-1)} xi / lambda^{2s/(2|Theta|)} = raw L^3 xi / lambda^{s/2},
    # with xi = max(lambda^{-s/4}, lambda^{-2s}) = lambda^{-s/4} at lambda = 4
    s, lam, L = 0.3, 4.0, 3
    u = SingleSitePotential.from_values({(0, 0): 1.0, (1, 0): 0.5})
    m = ModelConfig(2, lam, u, uniform01())
    res = finite_volume_sum(m, build_box(6, (0, 0)), (0, 0), 0.5j, s, L=L, trials=5, seed=1)
    assert res["raw_sum"] > 0.0
    assert res["scaled"] == pytest.approx(res["raw_sum"] * 27.0 * lam ** (-s / 4) / lam ** (s / 2), rel=1e-12)


def test_finite_volume_coupling_monotonicity():
    u = SingleSitePotential.delta(1)
    region = explicit_geometry([(k,) for k in range(-10, 11)])
    vals = []
    for lam in (4.0, 8.0, 16.0):
        m = ModelConfig(1, lam, u, uniform01())
        res = finite_volume_sum(m, region, (0,), 0.5j, 0.3, L=2, trials=400, seed=7)
        vals.append(res["scaled"])
    assert vals[0] > vals[1] > vals[2]


def test_finite_volume_2d_runs():
    u = SingleSitePotential.delta(2)
    m = ModelConfig(2, 5.0, u, uniform01())
    region = explicit_geometry([(a, b) for a in range(-7, 8) for b in range(-7, 8)])
    res = finite_volume_sum(m, region, (0, 0), 0.5j, 0.3, L=2, trials=25, seed=2)
    assert res["raw_sum"] > 0.0
    assert math.isfinite(res["scaled"])


@pytest.mark.parametrize("z, s, x, message", [
    (0.5, 0.3, (0,), "imaginary part"),
    (0.5j, 1.2, (0,), "exponent"),
    (0.5j, 0.3, (11,), "not in geometry"),
])
def test_finite_volume_enforces_the_average_contract(z, s, x, message):
    m = ModelConfig(1, 2.0, SingleSitePotential.delta(1), uniform01())
    region = explicit_geometry([(k,) for k in range(-10, 11)])
    with pytest.raises(ValueError, match=message):
        finite_volume_sum(m, region, x, z, s, L=2, trials=5, seed=1)


@pytest.mark.parametrize("call", [
    lambda m: finite_volume_sum(m, chain(21), (10,), 0.5j, 0.3, L=2, trials=5, seed=1),
    lambda m: wegner_mc(m, 4, (-0.1, 0.1), trials=5, seed=1),
    lambda m: nonlocal_apriori_bound(m.potential, DisorderDensity("raised_cosine", (0, 1)), m.coupling, 0.3),
    lambda m: gap_constants(m.potential, m.density, m.coupling, 0.5, search_samples=50),
], ids=["finite_volume_sum", "wegner_mc", "nonlocal_apriori_bound", "gap_constants"])
def test_bounds_need_a_positive_coupling(call):
    # lambda = 0 is a valid model, but every one of these bounds divides by a power of it
    u = SingleSitePotential.from_values({(0,): 1.0, (2,): -0.5})
    with pytest.raises(ValueError, match="coupling must be positive and finite"):
        call(ModelConfig(1, 0.0, u, uniform01()))


# ---------------------------------------------------------------------------
# the trial engine


def test_run_trials_stacks_scalars_and_rows_in_index_order():
    blocks = []

    def rows(block):
        blocks.append(block)
        return np.array([[t, 2.0 * t] for t in block])

    # 7 trials on 3 threads: a ragged last block, and the parts join in trial order
    out = run_trials(rows, 7, threads=3)
    assert out.shape == (7, 2)
    assert out.tolist() == [[t, 2.0 * t] for t in range(7)]
    assert sorted(blocks, key=lambda block: block.start) == [range(0, 2), range(2, 4), range(4, 7)]
    assert run_trials(lambda block: np.array(block, dtype=float), 4).tolist() == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("threads", [0, -2])
def test_run_trials_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be >= 1 and an integer"):
        run_trials(float, 4, threads)


@pytest.mark.parametrize("trials, threads, workers",
                         [(3, 10 ** 9, 3), (5, 2, 2), (7, 3, 3), (1, 10 ** 9, None), (4, 1, None)])
def test_run_trials_starts_at_most_one_worker_per_trial(monkeypatch, trials, threads, workers):
    started, blocks = [], []

    class Recorder:  # stands in for the pool, so no thread is started
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def scalars(block):
        blocks.append(block)
        return np.array(block, dtype=float)

    monkeypatch.setattr(moments, "ThreadPoolExecutor", Recorder)
    assert run_trials(scalars, trials, threads).tolist() == [float(t) for t in range(trials)]
    # no pool for one worker; otherwise one contiguous block per worker, in order, sizes within one
    assert started == ([] if workers is None else [workers])
    assert len(blocks) == (workers or 1)
    assert all(type(block) is range and block.step == 1 for block in blocks)
    assert [t for block in blocks for t in block] == list(range(trials))
    assert max(map(len, blocks)) - min(map(len, blocks)) <= 1


_DELTA = ModelConfig(1, 2.0, SingleSitePotential.delta(1), uniform01())


@pytest.mark.parametrize("call", [
    lambda n: run_trials(float, n),
    lambda n: estimate_moment(_DELTA, chain(6), 0.5j, 0.3, (0,), (3,), n, seed=1),
    lambda n: decay_profile(_DELTA, 6, 0.5j, 0.5, n, seed=1),
    lambda n: finite_volume_sum(_DELTA, chain(21), (10,), 0.5j, 0.3, L=2, trials=n, seed=1),
    lambda n: wegner_mc(_DELTA, 3, (-0.1, 0.1), n, seed=1),
    lambda n: pair_regularity_probability(_DELTA, 2, (0,), (6,), (-1, 1), 3, 0.1, n, seed=1),
    lambda n: detgen_check(np.eye(1), [np.eye(1)], [1.0], uniform01(), 0.5, trials=n),
], ids=["run_trials", "estimate_moment", "decay_profile", "finite_volume_sum", "wegner_mc",
        "pair_regularity_probability", "detgen_check"])
def test_estimators_reject_an_empty_trial_count(call):
    with pytest.raises(ValueError, match="trials must be >= 1 and an integer"):
        call(0)


# ---------------------------------------------------------------------------
# non-local a-priori bound and the exponential weights


def test_nonlocal_constants_positive_pair():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): 1.0})
    info = nonlocal_apriori_bound(u, DisorderDensity("raised_cosine", (0, 1)), 10.0, 0.5)
    assert info["ubar"] == pytest.approx(2.0)
    assert info["c"] == pytest.approx(math.log(1.5), abs=1e-12)
    assert info["C"] == pytest.approx(5.0, abs=1e-12)


def test_nonlocal_constants_sign_changing_pair():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.25})
    info = nonlocal_apriori_bound(u, DisorderDensity("raised_cosine", (0, 1)), 10.0, 1.0 / 3.0)
    assert info["ubar"] == pytest.approx(0.75)
    assert info["c"] == pytest.approx(math.log(1.3), abs=1e-12)
    assert info["C"] == pytest.approx(23.0 / 3.0, abs=1e-10)
    assert info["bound"] == pytest.approx(27.675157471997572, rel=1e-9)


def test_exponential_weights_in_two_dimensions():
    # the l1 diameter is 1 in both; C = ((e^c + 1)/(e^c - 1))^d squares the d = 1 value
    pair = SingleSitePotential.from_values({(0, 0): 1.0, (1, 0): 1.0})
    assert exponential_weights(pair)["C"] == pytest.approx(25.0, rel=1e-12)  # c = ln 1.5
    signed = SingleSitePotential.from_values({(0, 0): 1.0, (0, 1): -0.25})
    info = exponential_weights(signed)
    assert info["c"] == pytest.approx(math.log(1.3), abs=1e-12)
    assert info["C"] == pytest.approx(529.0 / 9.0, rel=1e-12)  # (2.3 / 0.3)^2


def test_nonlocal_bound_reference_in_two_dimensions():
    # 8 ubar^-s s^-s / (1-s) ||rho'||^s C^s lambda^-s at ubar = 3/4, s = 1/3, ||rho'|| = 4, C = 529/9,
    # lambda = 10: 12 (4/3 * 3 * 4 * 529/9 / 10)^(1/3) = 12 (4232/45)^(1/3)
    u = SingleSitePotential.from_values({(0, 0): 1.0, (0, 1): -0.25})
    info = nonlocal_apriori_bound(u, DisorderDensity("raised_cosine", (0, 1)), 10.0, 1.0 / 3.0)
    assert info["bound"] == pytest.approx(12.0 * (4232.0 / 45.0) ** (1.0 / 3.0), rel=1e-12)


def test_nonlocal_bound_vanishes_at_strong_coupling():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): 1.0})
    rho = DisorderDensity("raised_cosine", (0, 1))
    b1 = nonlocal_apriori_bound(u, rho, 1e2, 0.5)["bound"]
    b2 = nonlocal_apriori_bound(u, rho, 1e6, 0.5)["bound"]
    assert b2 < b1
    assert b2 == pytest.approx(b1 * (1e2 / 1e6) ** 0.5, rel=1e-12)  # lambda^{-s} scaling


def test_nonlocal_rejects_degenerate():
    rho = DisorderDensity("raised_cosine", (0, 1))
    with pytest.raises(ValueError):
        nonlocal_apriori_bound(SingleSitePotential.delta(1), rho, 1.0, 0.5)  # n = 0
    u0 = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    with pytest.raises(ValueError):
        nonlocal_apriori_bound(u0, rho, 1.0, 0.5)  # ubar = 0
    with pytest.raises(ValueError):
        nonlocal_apriori_bound(SingleSitePotential.from_values({(0,): 1.0, (1,): 1.0}),
                               uniform01(), 1.0, 0.5)  # density not W^{1,1}


def test_nonlocal_sign_flip():
    u = SingleSitePotential.from_values({(0,): -1.0, (1,): -1.0})
    info = exponential_weights(u)
    assert info["sign_flipped"] is True
    assert info["ubar"] == pytest.approx(2.0)


def test_w_xy_positive_pair():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): 1.0})
    window = [(k,) for k in range(-5, 6)]
    rep = w_xy(u, (0,), (0,), window)
    assert rep["min_margin"] >= -1e-12
    assert rep["at_x"] >= 0.5  # ubar / 4 = 0.5
    assert rep["quarter_ubar"] == pytest.approx(0.5)


def test_w_xy_sign_changing_pair():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.25})
    window = [(k,) for k in range(-6, 7)]
    rep = w_xy(u, (-2,), (3,), window)
    assert rep["min_margin"] >= -1e-12
    assert rep["at_x"] >= rep["quarter_ubar"] - 1e-12
    assert rep["at_y"] >= rep["quarter_ubar"] - 1e-12


def test_w_xy_swap_symmetry():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): 1.0})
    window = [(k,) for k in range(-8, 9)]
    r1 = w_xy(u, (-4,), (5,), window)
    r2 = w_xy(u, (5,), (-4,), window)
    for k in r1["values"]:
        assert r1["values"][k] == r2["values"][k]


def test_moment_2d_box_and_swap_symmetry():
    # the finite-volume operator is complex symmetric, so the moment is
    # invariant under swapping the probe sites, trial by trial
    u = SingleSitePotential.from_values({(0, 0): 1.0, (1, 0): -0.5})
    m = ModelConfig(2, 8.0, u, uniform01())
    g = explicit_geometry([(a, b) for a in range(-2, 3) for b in range(-2, 3)])
    e1 = estimate_moment(m, g, 0.5j, 0.5, (-2, -1), (2, 1), trials=60, seed=44)
    e2 = estimate_moment(m, g, 0.5j, 0.5, (2, 1), (-2, -1), trials=60, seed=44)
    assert math.isfinite(e1.mean) and e1.mean > 0
    assert e1.mean == pytest.approx(e2.mean, rel=1e-12)
