"""Properties of Hamiltonian assembly, the exact identities and the MC reduction.

Models are drawn in d = 1 and d = 2 with a sign-changing finite profile u on
1-4 sites or a truncated exponential tail (up to 25 sites), on random site
sets of a small box, with random couplings omega.  Assembly is compared bit
for bit; the identities are checked against the pinned 1e-9 tolerance.  The
mean/stderr reduction is checked column by column, bit for bit, on random
per-trial sample arrays.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alloylab.averaging import _mean_stderr
from alloylab.green import verify_resolvent_identities, verify_schur_identity, verify_two_step_schur
from alloylab.model import (
    Configuration,
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    SitePotential,
    assemble_hamiltonian,
    build_box,
    explicit_geometry,
    exterior_boundary,
    interior_boundary,
    lambda_plus,
    potential_value,
)
from alloylab.moments import DisorderSampler

PROPERTY = settings(max_examples=60, deadline=None)

_u_value = st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3)


@st.composite
def models(draw):
    d = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        offsets = draw(st.sets(st.tuples(*[st.integers(-2, 2)] * d), max_size=3))
        sites = sorted({(0,) * d} | offsets)
        u = SingleSitePotential({k: draw(_u_value) for k in sites})
    else:
        u = SingleSitePotential.exponential(draw(st.floats(0.3, 2.0)),
                                            draw(st.integers(1, 6 if d == 1 else 3)), d,
                                            amplitude=draw(st.floats(0.5, 2.0)),
                                            sign=draw(st.sampled_from([1, -1])))
    return ModelConfig(d, draw(st.floats(0.0, 50.0)), u, DisorderDensity("uniform", (0, 1)))


def subsets(sites):
    """Non-empty subsets of the sites, as sorted lists."""
    return st.sets(st.sampled_from(sorted(sites)), min_size=1).map(sorted)


@st.composite
def setups(draw):
    """(model, geometry, omega on lambda_plus of the geometry)."""
    model = draw(models())
    box = build_box(5 if model.dimension == 1 else 2, (0,) * model.dimension).sites
    holes = st.sets(st.sampled_from(box), max_size=len(box) - 1)  # dense sets, with interiors
    geometry = explicit_geometry(draw(st.one_of(subsets(box), holes.map(lambda h: set(box) - h))))
    need = sorted(lambda_plus(geometry, model.potential))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    omega = Configuration(dict(zip(need, rng.uniform(-1.0, 1.0, len(need)).tolist())))
    return model, geometry, omega


energies = st.builds(complex, st.floats(-3.0, 3.0),
                     st.floats(0.1, 2.0).flatmap(lambda im: st.sampled_from([im, -im])))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@PROPERTY
@given(setups())
def test_assembled_diagonal_is_the_site_keyed_sum(setup):
    model, geometry, omega = setup
    potential = SitePotential(geometry, model.potential)
    assert potential.coupling_sites == tuple(sorted(lambda_plus(geometry, model.potential)))
    want = np.array([model.coupling * potential_value(model.potential, omega, x) for x in geometry.sites])
    assert same_bits(np.diag(assemble_hamiltonian(model, omega, geometry).entries).copy(), want)


@PROPERTY
@given(setups())
def test_trial_hamiltonian_matches_site_keyed_assembly(setup):
    model, geometry, omega = setup
    need = sorted(lambda_plus(geometry, model.potential))
    omega_vec = np.array([omega[k] for k in need])
    got = DisorderSampler(model, geometry).hamiltonian(omega_vec)
    want = assemble_hamiltonian(model, Configuration(dict(zip(need, omega_vec))), geometry).entries
    assert same_bits(got, want)


@PROPERTY
@given(setups(), st.data())
def test_sub_geometry_hamiltonian_is_a_principal_submatrix(setup, data):
    model, geometry, omega = setup
    sub = geometry.subset(data.draw(subsets(geometry.sites)))
    idx = [geometry.index_of(x) for x in sub.sites]
    host = assemble_hamiltonian(model, omega, geometry).entries
    assert same_bits(assemble_hamiltonian(model, omega, sub).entries, host[np.ix_(idx, idx)])


@PROPERTY
@given(setups(), energies, st.data())
def test_schur_and_resolvent_identities_on_random_inner_sets(setup, z, data):
    model, geometry, omega = setup
    inner = data.draw(subsets(geometry.sites))
    assert verify_schur_identity(model, omega, geometry, inner, z) <= 1e-9
    first, second = verify_resolvent_identities(model, omega, geometry, inner, z)
    assert first <= 1e-9
    assert second <= 1e-9

    # the two-step identity needs every lattice neighbour of inner1 inside outer
    core = set(geometry.sites) - interior_boundary(geometry)
    if core:
        inner1 = set(data.draw(subsets(core)))
        outer = inner1 | exterior_boundary(inner1) | set(data.draw(subsets(geometry.sites)))
        assert verify_two_step_schur(model, omega, geometry, inner1, outer, z) <= 1e-9


@st.composite
def trial_samples(draw):
    """(trials, k) samples, trials >= 1, with some columns held constant."""
    trials, k = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    samples = draw(arrays(np.float64, (trials, k), elements=st.floats(-1e3, 1e3)))
    constant = draw(arrays(np.bool_, k))
    samples[:, constant] = draw(st.floats(-1e3, 1e3))
    return samples


@PROPERTY
@given(trial_samples())
def test_mean_stderr_reduces_each_column_alone(samples):
    mean, stderr = _mean_stderr(samples)
    assert mean.shape == stderr.shape == (samples.shape[1],)
    for j in range(samples.shape[1]):
        column = samples[:, j].copy()
        m1, s1 = _mean_stderr(column)
        assert same_bits(mean[j], m1) and same_bits(stderr[j], s1)
        assert same_bits(m1, np.mean(column))
        if len(column) == 1 or np.ptp(column) == 0.0:  # every column held constant lands here
            assert s1 == 0.0  # where np.std can read a few ulps above 0
        else:
            assert same_bits(s1, np.std(column, ddof=1) / math.sqrt(len(column)))
