"""Eigenvalues, Wegner MC and box regularity."""

import math
import re

import numpy as np
import pytest
import scipy.linalg

from alloylab import model as model_module
from alloylab import moments, spectra
from alloylab.model import (
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    assemble_hamiltonian,
    build_box,
    explicit_geometry,
    interior_boundary,
    lambda_plus,
    sample_configuration,
)
from alloylab.moments import DisorderSampler, one_d_constants
from alloylab.rng import trial_stream
from alloylab.spectra import (
    eigenvalues,
    pair_regularity_probability,
    wegner_mc,
)


def uniform01():
    return DisorderDensity("uniform", (0, 1))


def ldl_count_below(H: np.ndarray, E: float) -> int:
    """Inertia oracle: negative pivots of the LDL factorization of H - E."""
    _, D, _ = scipy.linalg.ldl(H - E * np.eye(H.shape[0]))
    ev_blocks = np.linalg.eigvalsh(D) if D.ndim == 2 else D
    return int(np.sum(ev_blocks < 0))


def is_regular(eig, E: float, ix: int, idx, thresh: float) -> bool:
    """Dense oracle: |G(E; ix, w)| <= thresh at every index w in idx, from one eig = (vals, vecs).

    A gap |vals - E| <= 1e-12 max(1, ||vals||_inf) counts as E in the spectrum, which is never regular.
    """
    vals, vecs = eig
    scale = max(1.0, float(np.max(np.abs(vals))))
    if float(np.min(np.abs(vals - E))) <= 1e-12 * scale:
        return False
    row = (vecs[ix, :] / (vals - E)) @ vecs.T
    return bool(np.max(np.abs(row[idx])) <= thresh)


def box_regular(model, omega, L, E, m) -> bool:
    """is_regular on the box of radius L around the origin; spectra._regular must give the same flag."""
    box = build_box(L, (0,))
    vals, vecs = np.linalg.eigh(assemble_hamiltonian(model, omega, box))
    args = box.index_of((0,)), box.rows(interior_boundary(box)), math.exp(-m * L)
    flag = is_regular((vals, vecs), E, *args)
    assert spectra._regular(vals[None], vecs[None], np.array([E]), *args).tolist() == [[flag]]
    return flag


def test_eigenvalues_path_formula():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 0.0, u, uniform01())
    g = explicit_geometry([(k,) for k in range(8)])
    omega = sample_configuration(m, lambda_plus(g, u), seed=0)
    ev = eigenvalues(assemble_hamiltonian(m, omega, g))
    want = np.sort([-2 * math.cos(math.pi * k / 9) for k in range(1, 9)])
    assert np.max(np.abs(ev - want)) < 1e-10


def test_eigenvalues_1x1():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 3.0, u, uniform01())
    g = explicit_geometry([(0,)])
    H = assemble_hamiltonian(m, {(0,): 0.7}, g)
    assert eigenvalues(H) == pytest.approx([2.1])


def test_eigenvalues_reject_a_non_symmetric_matrix():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 5.0, u, uniform01())
    g = build_box(3, (0,))
    H = assemble_hamiltonian(m, sample_configuration(m, lambda_plus(g, u), seed=2), g)
    assert eigenvalues(H).shape == (len(g),)
    H[0, 1] += 0.5
    with pytest.raises(ValueError, match="Hamiltonian must be symmetric"):
        eigenvalues(H)


@pytest.mark.parametrize("change, symmetric", [(0.0, True), (1e-12, True), (1e-3, False), (math.nan, False)],
                         ids=["exact", "within-allclose", "beyond-allclose", "nan"])
def test_eigenvalues_judge_symmetry_as_allclose_does(change, symmetric):
    # the exact comparison comes first, but only allclose's verdict decides
    H = np.diag([1.0, 2.0, 3.0]) - np.eye(3, k=1) - np.eye(3, k=-1)
    H[0, 1] += change
    if symmetric:
        assert eigenvalues(H).shape == (3,)
    else:
        with pytest.raises(ValueError, match="Hamiltonian must be symmetric"):
            eigenvalues(H)


def test_eigenvalues_residual_and_inertia_oracle():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(20, 20))
    H = (A + A.T) / 2
    ev = np.linalg.eigvalsh(H)
    for E in np.linspace(ev[0] - 0.5, ev[-1] + 0.5, 5):
        direct = int(np.sum(ev < E))
        assert direct == ldl_count_below(H, E)


def test_eigenpair_residual_spot_check():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 5.0, u, uniform01())
    g = build_box(10, (0,))
    omega = sample_configuration(m, lambda_plus(g, u), seed=40)
    H = assemble_hamiltonian(m, omega, g)
    vals, vecs = np.linalg.eigh(H)
    scale = np.linalg.norm(H, 2)
    for k in (0, len(vals) // 2, len(vals) - 1):
        res = np.linalg.norm(H @ vecs[:, k] - vals[k] * vecs[:, k])
        assert res <= 1e-8 * scale


def test_wegner_point_interval_vanishes():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=10)
    m = ModelConfig(1, 1.0, u, uniform01())
    rep = wegner_mc(m, 4, (0.1, 0.1), trials=300, seed=1)
    assert rep.mean_count == 0.0


def test_wegner_bound_linear_in_interval():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=10)
    m = ModelConfig(1, 1.0, u, uniform01())
    r1 = wegner_mc(m, 4, (-0.1, 0.1), trials=10, seed=1)
    r2 = wegner_mc(m, 4, (-0.2, 0.2), trials=10, seed=1)
    assert r2.abstract_bound == pytest.approx(2 * r1.abstract_bound, rel=1e-12)


def test_wegner_bound_reference_for_a_single_site():
    # u = delta_0: I0 = (0,), c_u = 1 and t(k) = 2 on the R-box, with the envelope C = 1,
    # alpha = 1, so R_l = max(2l + 2 ln(2 * 3 / (1 - e^{-1/2})), 8); uniform(0, 1) has variation 2
    lam, l, (a, b) = 2.0, 4, (-0.1, 0.1)
    rep = wegner_mc(ModelConfig(1, lam, SingleSitePotential.delta(1), uniform01()), l, (a, b), trials=5, seed=1)
    R_int = math.ceil(max(2 * l + 2 * math.log(6.0 / (1.0 - math.exp(-0.5))), 8.0))
    t_l1_total = (2 * l + 1) * 2.0 * (2 * R_int + 1)
    assert rep.abstract_bound == pytest.approx((b - a) / (2 * lam) * 2.0 * t_l1_total, rel=1e-12)


def test_wegner_mc_bound_holds():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=12)
    m = ModelConfig(1, 1.0, u, uniform01())
    rep = wegner_mc(m, 6, (-0.1, 0.1), trials=800, seed=7)
    assert rep.bound_satisfied
    assert rep.mean_count + 3 * rep.stderr <= rep.abstract_bound


def test_wegner_empirical_linearity():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=12)
    m = ModelConfig(1, 1.0, u, uniform01())
    r1 = wegner_mc(m, 6, (-0.2, 0.2), trials=1500, seed=12)
    r2 = wegner_mc(m, 6, (-0.1, 0.1), trials=1500, seed=12)
    assert r1.mean_count > 20 * r1.stderr and r2.mean_count > 20 * r2.stderr
    assert 1.5 <= r1.mean_count / r2.mean_count <= 2.5


def test_wegner_stacked_counts_match_one_eigensolve_per_trial(monkeypatch):
    # 49 sites: sub-stacks of 2**19 // 49**2 = 218 matrices, so 500 trials cross two stack boundaries
    m = ModelConfig(2, 1.0, SingleSitePotential.from_values({(0, 0): 1.0, (1, 0): -0.5}), uniform01())
    a, b, trials, seed = -0.5, 0.5, 500, 4
    recorded, run_trials = [], spectra.run_trials

    def recording_run_trials(fn, trials, threads=1):
        recorded.append(run_trials(fn, trials, threads))
        return recorded[-1]

    monkeypatch.setattr(spectra, "run_trials", recording_run_trials)
    reports = [wegner_mc(m, 3, (a, b), trials, seed, threads=threads) for threads in (1, 2, 3)]
    monkeypatch.undo()
    assert reports[1:] == reports[:1] * 2
    assert all(r.tobytes() == recorded[0].tobytes() for r in recorded)

    sampler = DisorderSampler(m, build_box(3, (0, 0)))
    block = sampler.diagonals(sampler.omega(seed, trials))
    stack = sampler.hamiltonian(block)
    assert stack.shape == (trials, 49, 49)
    assert all(stack[t].tobytes() == sampler.hamiltonian(block[t]).tobytes() for t in range(trials))
    want = []
    for row in block:
        ev = np.linalg.eigvalsh(sampler.hamiltonian(row))
        want.append(float(np.sum((ev >= a) & (ev <= b))))
    assert recorded[0].tolist() == want
    assert 0 < min(want) < max(want)


def test_wegner_chain_sturm_counts_match_one_eigensolve_per_trial(monkeypatch):
    # 17 sites, a tail wide enough that the counts vary; d = 1 builds no H and calls no eigvalsh
    m = ModelConfig(1, 1.3, SingleSitePotential.exponential(rate=1.2, truncation_radius=12), uniform01())
    a, b, trials, seed = -0.3, 0.4, 500, 4
    recorded, run_trials = [], spectra.run_trials

    def recording_run_trials(fn, trials, threads=1):
        recorded.append(run_trials(fn, trials, threads))
        return recorded[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("the d = 1 count must not diagonalize")

    monkeypatch.setattr(spectra, "run_trials", recording_run_trials)
    monkeypatch.setattr(DisorderSampler, "hamiltonian", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    reports = [wegner_mc(m, 8, (a, b), trials, seed, threads=threads) for threads in (1, 2, 3)]
    monkeypatch.undo()
    assert reports[1:] == reports[:1] * 2
    assert all(r.tobytes() == recorded[0].tobytes() for r in recorded)

    sampler = DisorderSampler(m, build_box(8, (0,)))
    want = []
    for row in sampler.diagonals(sampler.omega(seed, trials)):
        ev = np.linalg.eigvalsh(sampler.hamiltonian(row))
        want.append(float(np.sum((ev >= a) & (ev <= b))))
    assert recorded[0].tolist() == want
    assert 0 < min(want) < max(want)


def test_apriori_wegner_pipeline():
    # diagonal-moment sweep fixes C, then the count bound dominates the MC mean
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 4.0, u, uniform01())
    L = 4
    g = build_box(L, (0,))
    s = 0.5
    width = 0.2
    from alloylab.moments import estimate_moment
    diag = []
    for E in np.linspace(-width / 2, width / 2, 3):
        for eps in (width, width / 2):
            for x in ((0,), (2,), (-3,)):
                est = estimate_moment(m, g, complex(E, eps), s, x, x, trials=300, seed=21)
                diag.append(est.mean + 3 * est.stderr)
    C = max(diag)
    bound = 4.0 * C / math.pi * width ** s * len(g)  # 4C/pi |I|^s |Lambda|
    counts = []
    for t in range(300):
        omega = sample_configuration(m, lambda_plus(g, u), seed=900 + t)
        ev = eigenvalues(assemble_hamiltonian(m, omega, g))
        counts.append(int(np.sum((ev >= -width / 2) & (ev <= width / 2))))  # the closed interval I
    mean = float(np.mean(counts))
    assert mean <= bound


def test_regularity_strong_disorder():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1e4, u, uniform01())
    g5 = build_box(5, (0,))
    omega = sample_configuration(m, lambda_plus(g5, u), seed=31)
    # energies far from the (huge) diagonal entries: box is regular
    assert box_regular(m, omega, 5, 0.0, m=0.3)


def test_regularity_at_eigenvalue_singular():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 2.0, u, uniform01())
    box = build_box(3, (0,))
    omega = sample_configuration(m, lambda_plus(box, u), seed=32)
    H = assemble_hamiltonian(m, omega, box)
    E = float(eigenvalues(H)[2])
    assert box_regular(m, omega, 3, E, m=0.0) is False


def test_regularity_below_spectrum():
    # far below the spectrum the resolvent norm is < 1, so m = 0 passes
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1.0, u, uniform01())
    box = build_box(4, (0,))
    omega = sample_configuration(m, lambda_plus(box, u), seed=33)
    ev = eigenvalues(assemble_hamiltonian(m, omega, box))
    E = float(ev[0]) - 5.0
    assert box_regular(m, omega, 4, E, m=0.0)


def test_regularity_monotone_in_m():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 50.0, u, uniform01())
    box = build_box(5, (0,))
    omega = sample_configuration(m, lambda_plus(box, u), seed=34)
    for E in np.linspace(-1, 1, 5):
        flags = [box_regular(m, omega, 5, float(E), m=mm) for mm in (0.8, 0.4, 0.1)]
        # regular at larger m implies regular at smaller m
        for stronger, weaker in zip(flags, flags[1:]):
            assert (not stronger) or weaker


def test_pair_regularity_large_disorder():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    m = ModelConfig(1, 1e4, u, uniform01())
    consts = one_d_constants(u, uniform01(), 1e4, 0.5)
    rep = pair_regularity_probability(m, 5, (0,), (20,), (-1.0, 1.0), 21,
                                      consts.mu / 8, trials=60, seed=41)
    assert rep.pair_frequency >= 0.9
    assert all(0 <= f <= 1 for f in rep.per_energy_frequency)


def test_pair_regularity_grid_refinement_monotone():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 300.0, u, uniform01())
    freqs = []
    for grid in (1, 5, 21):
        rep = pair_regularity_probability(m, 3, (0,), (10,), (-0.5, 0.5), grid,
                                          0.25, trials=80, seed=42)
        freqs.append(rep.pair_frequency)
    assert freqs[0] >= freqs[1] >= freqs[2]  # conjunction over more events


def regularity_oracle(model, L, x, y, energies, m, trials, seed) -> np.ndarray:
    """(trials, 2, energies) flags of the x and the y box on the scalar path: trial t's configuration is
    dict(zip(coupling_sites, omega[t])) of the union's sampler, then per box one assemble_hamiltonian,
    one eigh and one is_regular per energy."""
    box_x, box_y = build_box(L, x), build_box(L, y)
    sampler = DisorderSampler(model, explicit_geometry(box_x.sites + box_y.sites))
    u = model.potential
    assert set(sampler.potential.coupling_sites) == lambda_plus(box_x, u) | lambda_plus(box_y, u)
    omega = sampler.omega(seed, trials)
    flags = np.zeros((trials, 2, len(energies)), dtype=bool)
    for t in range(trials):
        configuration = dict(zip(sampler.potential.coupling_sites, omega[t]))
        for k, (box, centre) in enumerate([(box_x, x), (box_y, y)]):
            eig = np.linalg.eigh(assemble_hamiltonian(model, configuration, box))
            for e, E in enumerate(energies):
                flags[t, k, e] = is_regular(eig, E, box.index_of(centre), box.rows(interior_boundary(box)),
                                            math.exp(-m * L))
    return flags


_CHAIN = ModelConfig(1, 2.0, SingleSitePotential.delta(1), uniform01())
_PLANE = ModelConfig(2, 3.0, SingleSitePotential.from_values({(0, 0): 1.0, (1, 0): -0.5}), uniform01())


def _eigenvalue_of_trial(model, L, x, y, t, seed, k):
    """The k-th eigenvalue of trial t's x box on the scalar path: a grid energy that hits the spectrum exactly."""
    sampler = DisorderSampler(model, explicit_geometry(build_box(L, x).sites + build_box(L, y).sites))
    configuration = dict(zip(sampler.potential.coupling_sites, sampler.omega(seed, t + 1)[t]))
    return float(np.linalg.eigh(assemble_hamiltonian(model, configuration, build_box(L, x)))[0][k])


@pytest.mark.parametrize("case", ["one-bond-apart", "y-before-x", "exact-eigenvalue", "small-stacks"])
def test_pair_regularity_stacked_flags_match_the_dense_oracle(case, monkeypatch):
    # one-bond-apart: diam = 0 and |x - y| = 2L + 1, so sites 2 and 3 of the union are bonded; each box
    # must keep its own hopping.  y-before-x: y's box comes first in the union and interleaves with x's
    # in lexicographic order, so each box must take its diagonal by union.rows(box), not by position.
    model, L, x, y, interval, grid, m, trials, seed = {
        "one-bond-apart": (_CHAIN, 2, (0,), (5,), (-1.0, 1.0), 5, 0.3, 24, 5),
        "y-before-x": (_PLANE, 2, (0, 0), (-1, 6), (-1.0, 1.0), 5, 0.3, 24, 6),
        "exact-eigenvalue": (_CHAIN, 2, (0,), (5,), None, 3, 0.3, 24, 5),
        "small-stacks": (_PLANE, 2, (0, 0), (6, 0), (-1.0, 1.0), 5, 0.3, 40, 8),
    }[case]
    if case == "exact-eigenvalue":  # trial 3's x box has its middle eigenvalue on the grid
        E = _eigenvalue_of_trial(model, L, x, y, 3, seed, 2)
        interval = (E, E + 0.5)
    if case == "small-stacks":  # 25 sites and 5 energies: sub-stacks of 3 trials, cut across every worker block
        monkeypatch.setattr(spectra, "_EIGVALSH_STACK", 3 * 25 * 25 + 7)
    recorded, run_trials = [], spectra.run_trials

    def recording_run_trials(fn, trials, threads=1):
        recorded.append(run_trials(fn, trials, threads))
        return recorded[-1]

    monkeypatch.setattr(spectra, "run_trials", recording_run_trials)
    reports = [pair_regularity_probability(model, L, x, y, interval, grid, m, trials, seed, threads=threads)
               for threads in (1, 2, 3)]
    monkeypatch.undo()
    assert reports[1:] == reports[:1] * 2
    assert all(r.tobytes() == recorded[0].tobytes() for r in recorded)

    flags = regularity_oracle(model, L, x, y, reports[0].energies, m, trials, seed)
    pair = flags[:, 0] | flags[:, 1]
    assert recorded[0].tolist() == np.column_stack([pair, pair.all(axis=1)]).astype(float).tolist()
    # both boxes decide some energy either way, and the y box is needed
    assert 0 < flags[:, 0].mean() < 1 and 0 < flags[:, 1].mean() < 1 and not pair.all()
    if case == "exact-eigenvalue":
        assert reports[0].energies[0] == interval[0] and not flags[3, 0, 0]


def test_pair_regularity_trial_keys_do_not_collide_across_seeds(monkeypatch):
    # an additive key seed + 1000003 t would give seed 7's trial 1 the key of seed 1000010's trial 0; the
    # couplings come from trial streams only, with no per-site key
    keys = []

    def recording(seed, trial):
        stream = trial_stream(seed, trial)
        keys.append(tuple(stream.bit_generator.seed_seq.entropy))
        return stream

    def forbidden(*args):
        raise AssertionError("regularity must draw no site stream")

    monkeypatch.setattr(moments, "trial_stream", recording)
    monkeypatch.setattr(model_module, "site_stream", forbidden)
    m = ModelConfig(1, 10.0, SingleSitePotential.delta(1), uniform01())
    runs = []
    for seed in (7, 7 + 1000003):
        keys.clear()
        pair_regularity_probability(m, 2, (0,), (6,), (-1.0, 1.0), 3, 0.1, trials=3, seed=seed)
        runs.append(set(keys))
    assert len(runs[0]) == len(runs[1]) == 3
    assert runs[0].isdisjoint(runs[1])


@pytest.mark.parametrize("x, y", [((0, 0), (9,)), ((0,), (0, 9)), ((0, 0, 0), (9, 0, 0))])
def test_pair_regularity_rejects_sites_of_another_dimension(x, y):
    with pytest.raises(ValueError, match=re.escape(f"x = {x} and y = {y} must both have the model's dimension 2")):
        pair_regularity_probability(_PLANE, 2, x, y, (-1, 1), 3, 0.1, 5, 1)


def test_pair_regularity_separation_enforced():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 10.0, u, uniform01())
    with pytest.raises(ValueError):
        pair_regularity_probability(m, 5, (0,), (8,), (-1, 1), 3, 0.1, 5, 1)


def test_pair_regularity_needs_a_grid_energy():
    m = ModelConfig(1, 10.0, SingleSitePotential.delta(1), uniform01())
    with pytest.raises(ValueError, match="grid_points must be >= 1 and an integer, got 0"):
        pair_regularity_probability(m, 2, (0,), (6,), (-1, 1), 0, 0.1, 5, 1)
