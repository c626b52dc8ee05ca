"""Properties of Hamiltonian assembly, the exact identities, the banded Green
column, the batched disorder draws, the vectorised searches and the MC
reduction.

Models are drawn in d = 1 and d = 2 with a sign-changing finite profile u on
1-4 sites or a truncated exponential tail (up to 25 sites), on random site
sets of a small box, with random couplings omega.  Assembly is compared bit
for bit; the identities are checked against the pinned 1e-9 tolerance.  The
banded Green column is checked against a dense solve on boxes, chains, holed,
annulus-depleted, one-site and unsorted geometries in d = 1, 2, 3; the bonds
and the band of a geometry are checked bit for bit against a per-site
neighbour loop on these and on shuffled or unshuffled site sets in
[-50, 50]^d: two joined boxes, scattered sites and single sites.  The
mean/stderr reduction is checked column by column, bit for bit, on random
per-trial sample arrays of up to 5,000 trials.  The per-estimator disorder block, the stacked
quantile, the gap-construction search, the stacked determinant average and
the keyed streams (against their np.uint64 SeedSequence construction and,
state and entropy included, against numpy's own SeedSequence generator over
their words, over the whole 64-bit key range; each hashed block of trial
states row by row against SeedSequence.generate_state) are each checked bit for bit against the one-trial-at-a-time
path they replace, and so are the potential over a coupling block, the multi-source
Green columns, the estimates that share one disorder block, the decay
profile and finite-volume sum (against the per-trial loops they ran before
they became estimate_moments calls) and the piecewise-linear cdf.  The
scalar density, the root-product determinant integrand and the averaging
checks are checked against the vectorised density and the slogdet/svd
integrands they replace, the closed-form smallest singular value (n <= 3)
against svd at the pencil's real roots, on exactly singular and on
double-singular-value matrices, and the pole average over a piecewise-linear
density against its closed form.  The direct QUADPACK calls of the averaging
checks match scipy.integrate.quad bit for bit, warnings included, on smooth,
kinked, singular and discontinuous integrands.  The value table of a
single-site potential in d = 1, 2, 3 is checked bit for bit against the per-call support and tail
formula it replaces, and the SitePotential coupling table on lexicographic
and shuffled geometries in d = 1, 2, 3 against the np.unique construction
it replaces.  Assembly from a geometry's cached hopping and coupling map
matches a fresh -adjacency_matrix and SitePotential bit for bit, -0.0 entries
included, on boxes, explicit site sets and subsets, with two potentials
interleaved on one geometry; equal potentials share one read-only map and
unequal ones never do; the mask complement of the Green checks matches
np.setdiff1d.  The density transform keeps the 64-step bisection it replaced
as its oracle: raised-cosine and uniform draws match it (or, for
the uniform, the old a + (b - a) u) bit for bit, and piecewise-linear draws
match it to 1e-12 where the density is not small, and at every knot mass,
where a zero-density plateau must not be skipped.  The chain's Sturm
eigenvalue counts match the eigvalsh counts on chains of 1-40 sites with
repeated and zero diagonal entries, exactly unless an eigenvalue lies within
rounding of an interval end, which is drawn at random, on an eigenvalue and
on either of its neighbouring doubles.
"""

import argparse
import itertools
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from alloylab import cli, moments, spectra
from alloylab.averaging import (
    _det_power,
    _mean_stderr,
    _pencil,
    _quad,
    _smallest_singular_value,
    det_average_check,
    detgen_check,
    graf_check,
    resolvent_average_check,
)
from alloylab.green import (
    _complement,
    _deplete,
    annulus,
    green,
    schur_B,
    verify_resolvent_identities,
    verify_schur_identity,
    verify_two_step_schur,
)
from alloylab.model import (
    BoxGeometry,
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    SitePotential,
    adjacency_matrix,
    assemble_hamiltonian,
    build_box,
    explicit_geometry,
    exterior_boundary,
    interior_boundary,
    lambda_plus,
    neighbors,
    sample_configuration,
)
from alloylab.moments import (
    DisorderSampler,
    decay_profile,
    estimate_moment,
    estimate_moments,
    finite_volume_sum,
    gap_constants,
)
from alloylab.rng import BLOCK, _state_block, site_stream, trial_stream, zigzag
from alloylab.spectra import _sturm_below

from oracles import potential_value

PROPERTY = settings(max_examples=60, deadline=None)

_u_value = st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3)


@st.composite
def models(draw, d=None):
    d = draw(st.sampled_from([1, 2])) if d is None else d
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
    omega = dict(zip(need, rng.uniform(-1.0, 1.0, len(need)).tolist()))
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
    assert same_bits(np.diag(assemble_hamiltonian(model, omega, geometry)).copy(), want)


@PROPERTY
@given(setups())
def test_trial_hamiltonian_matches_site_keyed_assembly(setup):
    model, geometry, omega = setup
    need = sorted(lambda_plus(geometry, model.potential))
    omega_vec = np.array([omega[k] for k in need])
    sampler = DisorderSampler(model, geometry)
    got = sampler.hamiltonian(sampler.diagonals(omega_vec))
    want = assemble_hamiltonian(model, dict(zip(need, omega_vec)), geometry)
    assert same_bits(got, want)


@st.composite
def geometries(draw, d):
    """A box, an explicit site set or a box's ``subset``, in dimension d."""
    box = build_box(draw(st.integers(0, 4 if d == 1 else 2)), (0,) * d)
    kind = draw(st.sampled_from(["box", "explicit", "subset"]))
    if kind == "box":
        return box
    sites = draw(subsets(box.sites))
    return explicit_geometry(sites) if kind == "explicit" else box.subset(sites)


def _fresh_hamiltonian(model, omega, geometry):
    """-adjacency_matrix plus lambda V from a SitePotential built here: what assembly made before geometries cached."""
    potential = SitePotential(geometry, model.potential)
    H = -adjacency_matrix(geometry)
    np.fill_diagonal(H, model.coupling * potential(np.array([omega[k] for k in potential.coupling_sites])))
    return H


def _twin(u, sign=1):
    """A new SingleSitePotential with u's fields, its stored sites in reverse order; ``sign`` -1 negates u's values."""
    tail_sign = u.tail_sign if u.tail_amplitude is None else sign * u.tail_sign  # a finite u keeps every other field
    return SingleSitePotential({k: sign * v for k, v in reversed(u.support_values.items())}, u.tail_amplitude,
                               u.tail_rate, u.truncation_radius, tail_sign)


@PROPERTY
@given(st.data())
def test_cached_assembly_is_the_fresh_one_with_two_potentials_interleaved(data):
    first = data.draw(models())
    # the second potential has first's sites with negated values, or is drawn on its own
    flipped = ModelConfig(first.dimension, data.draw(st.floats(0.0, 50.0)), _twin(first.potential, -1), first.density)
    second = data.draw(st.one_of(st.just(flipped), models(first.dimension)))
    geometry = data.draw(geometries(first.dimension))
    need = sorted(lambda_plus(geometry, first.potential) | lambda_plus(geometry, second.potential))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    omega = dict(zip(need, rng.uniform(-1.0, 1.0, len(need)).tolist()))
    for model in (first, second, first, second):
        want = _fresh_hamiltonian(model, omega, geometry)
        assert same_bits(assemble_hamiltonian(model, omega, geometry), want)
        sampler = DisorderSampler(model, geometry)
        omega_vec = np.array([omega[k] for k in sampler.potential.coupling_sites])
        assert same_bits(sampler.hamiltonian(sampler.diagonals(omega_vec)), want)
        assert sampler.potential is geometry.site_potential(model.potential)


@PROPERTY
@given(st.data())
def test_equal_potentials_share_one_read_only_map_and_others_do_not(data):
    model = data.draw(models())
    geometry = data.draw(geometries(model.dimension))
    u, other = model.potential, data.draw(models(model.dimension)).potential
    twin = _twin(u)
    assert twin == u and twin is not u
    cached = geometry.site_potential(u)
    assert geometry.site_potential(twin) is cached
    assert (geometry.site_potential(other) is cached) == (other == u)
    arrays = [v for v in vars(cached).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2  # positions and values
    for array in [geometry.hopping, *arrays]:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1)))))
def test_complement_is_setdiff1d(case):
    n, rows = case
    rows = np.array(rows, dtype=np.intp)
    assert same_bits(_complement(n, rows), np.setdiff1d(np.arange(n), rows))
    assert same_bits(_complement(n, np.unique(rows)), np.setdiff1d(np.arange(n), rows))


@PROPERTY
@given(setups(), st.data())
def test_sub_geometry_hamiltonian_is_a_principal_submatrix(setup, data):
    model, geometry, omega = setup
    sub = geometry.subset(data.draw(subsets(geometry.sites)))
    idx = [geometry.index_of(x) for x in sub.sites]
    host = assemble_hamiltonian(model, omega, geometry)
    assert same_bits(assemble_hamiltonian(model, omega, sub), host[np.ix_(idx, idx)])


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


def _inner_mask(geometry, inner):
    return np.array([s in inner for s in geometry.sites])


@PROPERTY
@given(setups(), energies, st.data())
def test_schur_B_is_the_exterior_assembly(setup, z, data):
    model, geometry, omega = setup
    inner = set(data.draw(subsets(geometry.sites)))
    rest = geometry.site_set() - inner
    want = np.zeros((len(inner), len(inner)), dtype=complex)
    if rest:  # the route before slicing: H_ext assembled on its own sub-geometry
        mask = _inner_mask(geometry, inner)
        C = adjacency_matrix(geometry)[np.ix_(mask, ~mask)]
        H_ext = assemble_hamiltonian(model, omega, geometry.subset(rest))
        want = C @ np.linalg.inv(H_ext - z * np.eye(len(rest), dtype=complex)) @ C.T
    assert same_bits(schur_B(model, omega, geometry, inner, z), want)


@PROPERTY
@given(setups(), st.data())
def test_depleted_blocks_are_the_masked_adjacency(setup, data):
    model, geometry, omega = setup
    inner = data.draw(st.sets(st.sampled_from(geometry.sites)))
    mask = _inner_mask(geometry, inner)
    T = adjacency_matrix(geometry) * np.logical_xor.outer(mask, mask)
    H = assemble_hamiltonian(model, omega, geometry)
    Hd, coupling = _deplete(H, geometry.rows(inner))
    assert same_bits(coupling, T)
    assert same_bits(Hd, H + T)


@PROPERTY
@given(setups(), energies, st.data())
def test_two_step_schur_is_the_four_assembly_route(setup, z, data):
    model, geometry, omega = setup
    core = set(geometry.sites) - interior_boundary(geometry)
    assume(core)
    s1 = set(data.draw(subsets(core)))
    s2 = s1 | exterior_boundary(s1) | set(data.draw(subsets(geometry.sites)))
    geo1, geo2, ring = geometry.subset(s1), geometry.subset(s2), geometry.subset(s2 - s1)
    H = assemble_hamiltonian(model, omega, geometry)
    idx1 = [geometry.index_of(s) for s in geo1.sites]
    lhs = np.linalg.inv(H - z * np.eye(len(geometry), dtype=complex))[np.ix_(idx1, idx1)]
    at = [geo2.index_of(s) for s in ring.sites]
    B_ring = schur_B(model, omega, geometry, s2, z)[np.ix_(at, at)]
    K = assemble_hamiltonian(model, omega, ring) - B_ring - z * np.eye(len(ring), dtype=complex)
    C = adjacency_matrix(geometry)[np.ix_(idx1, [geometry.index_of(s) for s in ring.sites])]
    S = (assemble_hamiltonian(model, omega, geo1) - z * np.eye(len(geo1), dtype=complex)
         - C @ np.linalg.solve(K, C.T.astype(complex)))
    want = float(np.max(np.abs(lhs - np.linalg.inv(S))))
    assert same_bits(np.float64(verify_two_step_schur(model, omega, geometry, s1, s2, z)), np.float64(want))


@st.composite
def solve_setups(draw):
    """(sampler, omega, z, x): a geometry that the banded solve must handle exactly."""
    d = draw(st.sampled_from([1, 2, 3]))
    origin = (0,) * d
    # supp u in {0, 1}^d keeps the annulus of finite_volume_sum small in d = 3
    offsets = draw(st.sets(st.tuples(*[st.integers(0, 1)] * d), max_size=2))
    u = SingleSitePotential({k: draw(_u_value) for k in {origin} | offsets})
    kind = draw(st.sampled_from(["box", "holes", "annulus", "one-site", "unsorted"]))
    if kind == "annulus":
        L = u.diameter_linf() + 2
        region = build_box(L + draw(st.integers(1, 1 if d == 3 else 3)), origin)
        geometry = region.subset(region.site_set() - annulus(region, origin, L, u).W_x)
    elif kind == "one-site":
        geometry = explicit_geometry([draw(st.tuples(*[st.integers(-3, 3)] * d))])
    else:
        geometry = build_box(draw(st.integers(1, {1: 15, 2: 4, 3: 2}[d])), origin)
        if kind == "holes":
            geometry = explicit_geometry(draw(subsets(geometry.sites)))
        elif kind == "unsorted":
            geometry = BoxGeometry(tuple(draw(st.permutations(geometry.sites))))
    sampler = DisorderSampler(ModelConfig(d, draw(st.floats(0.0, 10.0)), u, DisorderDensity("uniform", (0, 1))),
                              geometry)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    omega_vec = rng.uniform(-1.0, 1.0, len(sampler.potential.coupling_sites))
    return sampler, omega_vec, draw(energies), draw(st.sampled_from(geometry.sites))


def _loop_adjacency(geometry):
    """The hopping pattern from a per-site neighbour loop."""
    A = np.zeros((len(geometry), len(geometry)))
    for i, x in enumerate(geometry.sites):
        for y in neighbors(x):
            if y in geometry:
                A[i, geometry.index_of(y)] = 1.0
    return A


@st.composite
def far_geometries(draw):
    """Geometries in [-50, 50]^d, d = 1, 2, 3, shuffled or not: two boxes joined as pair_regularity_probability joins
    them (apart, overlapping or one bond apart), a cluster with scattered sites, or one site."""
    d = draw(st.sampled_from([1, 2, 3]))
    point = st.tuples(*[st.integers(-50, 50)] * d)
    kind = draw(st.sampled_from(["two boxes", "scattered", "one-site"]))
    if kind == "two boxes":
        L = draw(st.integers(0, {1: 6, 2: 3, 3: 1}[d]))
        x = draw(point)
        near = st.tuples(*[st.integers(c - 2 * L - 2, c + 2 * L + 2) for c in x])
        y = draw(st.one_of(point, near))
        geometry = explicit_geometry(build_box(L, x).sites + build_box(L, y).sites)
    elif kind == "scattered":
        cluster = draw(subsets(build_box(2 if d < 3 else 1, draw(point)).sites))
        geometry = explicit_geometry(cluster + draw(st.lists(point, max_size=20)))
    else:
        geometry = explicit_geometry([draw(point)])
    if draw(st.booleans()):
        geometry = BoxGeometry(tuple(draw(st.permutations(geometry.sites))))
    return geometry


def _delta_sampler(geometry):
    d = geometry.dimension
    return DisorderSampler(ModelConfig(d, 1.0, SingleSitePotential.delta(d), DisorderDensity("uniform", (0, 1))),
                           geometry)


@PROPERTY
@given(st.one_of(solve_setups().map(lambda setup: setup[0].geometry), far_geometries()))
@example(explicit_geometry([(-50,)]))
@example(explicit_geometry([(-50, 50, 0)]))
def test_bonds_are_the_neighbour_pairs(geometry):
    A = _loop_adjacency(geometry)
    want = np.argwhere(np.triu(A))  # (i, j), i < j, in lexicographic order, as an intp array: (0, 2) for one site
    assert same_bits(geometry.bonds, want)
    assert not geometry.bonds.flags.writeable
    assert same_bits(adjacency_matrix(geometry), A)


@PROPERTY
@given(st.one_of(solve_setups().map(lambda setup: setup[0]), far_geometries().map(_delta_sampler)))
def test_band_is_the_dense_nonzero_scan(sampler):
    hopping = -_loop_adjacency(sampler.geometry)
    rows, cols = np.nonzero(hopping)
    k = int(np.max(np.abs(rows - cols), initial=0))
    band = np.zeros((3 * k + 1, len(sampler.geometry)), dtype=complex)
    band[2 * k + rows - cols, cols] = hopping[rows, cols]
    assert sampler.half_bandwidth == k
    assert same_bits(sampler._band, band)
    assert same_bits(sampler.geometry.hopping, hopping)


@PROPERTY
@given(solve_setups(), st.data())
def test_rows_are_the_indices_in_geometry_order(setup, data):
    geometry = setup[0].geometry
    sites = data.draw(st.lists(st.sampled_from(geometry.sites), min_size=1))
    want = [i for i, x in enumerate(geometry.sites) if x in set(sites)]
    assert same_bits(geometry.rows(sites), np.array(want, dtype=np.intp))
    assert geometry.subset(sites).sites == tuple(geometry.sites[i] for i in want)
    top = max(geometry.sites)
    with pytest.raises(ValueError, match="not in geometry"):
        geometry.rows(sites + [(top[0] + 1, *top[1:])])


@PROPERTY
@given(solve_setups())
def test_banded_green_column_matches_the_dense_solve(setup):
    sampler, omega_vec, z, x = setup
    n = len(sampler.geometry)
    e_x = np.zeros(n, dtype=complex)
    e_x[sampler.geometry.index_of(x)] = 1.0
    diagonal = sampler.diagonals(omega_vec)
    want = np.linalg.solve(sampler.hamiltonian(diagonal) - z * np.eye(n), e_x)
    got = sampler.green_column(diagonal, z, [sampler.geometry.index_of(x)])[:, 0]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@PROPERTY
@given(solve_setups(), st.data())
def test_multi_source_green_columns_are_the_single_source_columns(setup, data):
    sampler, omega_vec, z, x = setup
    geometry = sampler.geometry
    sources = [x, *data.draw(st.lists(st.sampled_from(geometry.sites), max_size=3))]
    diagonal = sampler.diagonals(omega_vec)
    rows = [geometry.index_of(source) for source in sources]
    cols = sampler.green_column(diagonal, z, rows)
    assert cols.shape == (len(geometry), len(sources))
    H = sampler.hamiltonian(diagonal) - z * np.eye(len(geometry))
    for j, row in enumerate(rows):
        assert same_bits(cols[:, j].copy(), sampler.green_column(diagonal, z, [row])[:, 0].copy())
        e_x = np.zeros(len(geometry), dtype=complex)
        e_x[row] = 1.0
        want = np.linalg.solve(H, e_x)
        assert np.max(np.abs(cols[:, j] - want)) <= 1e-12 * np.max(np.abs(want))


def _chain_stack(block):
    """-Delta + diag(row) on a chain, as (rows, n, n)."""
    n = block.shape[1]
    H = np.broadcast_to(-(np.eye(n, k=1) + np.eye(n, k=-1)), block.shape + (n,)).copy()
    H[:, np.arange(n), np.arange(n)] = block
    return H


_chain_diagonal = st.one_of(st.just(0.0), st.sampled_from([-1.0, 0.5, 2.0]), st.floats(-5.0, 5.0))


@st.composite
def interval_ends(draw, ev):
    """Two interval ends: random, an eigenvalue from ev, or an eigenvalue's nextafter on either side."""
    ends = []
    for _ in range(2):
        kind = draw(st.sampled_from(["random", "eigenvalue", "below", "above"]))
        if kind == "random":
            ends.append(draw(st.floats(-8.0, 8.0)))
        else:
            e = float(draw(st.sampled_from(ev.tolist())))
            ends.append({"eigenvalue": e, "below": math.nextafter(e, -math.inf),
                         "above": math.nextafter(e, math.inf)}[kind])
    return sorted(ends)


@PROPERTY
@given(st.integers(1, 40).flatmap(lambda n: arrays(float, st.tuples(st.integers(1, 4), st.just(n)),
                                                  elements=_chain_diagonal)),
       st.data())
def test_sturm_counts_are_the_eigvalsh_counts(block, data):
    ev = np.linalg.eigvalsh(_chain_stack(block))
    a, b = data.draw(interval_ends(ev[0]))
    below = _sturm_below(block, (a, np.nextafter(b, np.inf)))
    assert below.shape == (2, len(block)) and below.dtype == np.int64
    got = below[1] - below[0]
    want = np.sum((ev >= a) & (ev <= b), axis=1)
    for row, vals in enumerate(ev):
        # an eigenvalue within rounding of an end may fall on either side of it
        near = np.sum(np.minimum(abs(vals - a), abs(vals - b)) <= 1e-12 * max(1.0, np.max(np.abs(vals))))
        assert abs(got[row] - want[row]) <= near
        if not near:
            assert below[0, row] == np.sum(vals < a) and below[1, row] == np.sum(vals <= b)


def test_sturm_zero_pivot_is_taken_as_minus_tiny():
    # -Delta on 4 sites has eigenvalues -2cos(k pi / 5): two below 0; d_1 = 0 and d_3 = -tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _sturm_below(np.zeros((1, 4)), [0.0]).tolist() == [[2]]
        assert _sturm_below(np.zeros((2, 1)), [0.0, 1e-300, -1e-300]).tolist() == [[1, 1], [1, 1], [0, 0]]


@PROPERTY
@given(setups(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_potential_block_rows_are_the_one_vector_calls(setup, trials, seed):
    model, geometry, _ = setup
    potential = SitePotential(geometry, model.potential)
    block = np.random.default_rng(seed).uniform(-1.0, 1.0, (trials, len(potential.coupling_sites)))
    V = potential(block)
    assert V.shape == (trials, len(geometry))
    for t in range(trials):
        assert same_bits(V[t], potential(block[t].copy()))


@st.composite
def trial_samples(draw):
    """(trials, k) samples, 1 <= trials <= 5000, with some columns held constant.

    The decay jobs reduce up to 5,000 trials, past numpy's 128-element pairwise
    blocks.  Up to 40 trials, hypothesis draws every sample; beyond, a drawn
    seed gives normal samples scaled by powers of ten from 1e-3 to 1e3.
    """
    trials, k = draw(st.one_of(st.integers(1, 40), st.integers(41, 5000))), draw(st.integers(1, 6))
    if trials <= 40:
        samples = draw(arrays(np.float64, (trials, k), elements=st.floats(-1e3, 1e3)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        samples = rng.standard_normal((trials, k)) * 10.0 ** rng.integers(-3, 4, (trials, k))
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


# ---------------------------------------------------------------------------
# batched disorder draws


@st.composite
def densities(draw, kinds=("uniform", "raised_cosine", "piecewise_linear")):
    """uniform, raised-cosine or piecewise-linear, on a random support."""
    kind = draw(st.sampled_from(kinds))
    a = draw(st.floats(-5.0, 5.0))
    width = draw(st.floats(0.1, 10.0))
    if kind != "piecewise_linear":
        return DisorderDensity(kind, (a, a + width))
    cuts = sorted(draw(st.sets(st.integers(1, 99), max_size=4)))  # knots at least width/100 apart
    ts = [a + width * c / 100 for c in [0, *cuts, 100]]
    ys = draw(st.lists(st.floats(0.0, 2.0), min_size=len(ts), max_size=len(ts)))
    assume(sum(ys) > 0.1)
    return DisorderDensity(kind, list(zip(ts, ys)))


@PROPERTY
@given(densities(), st.integers(1, 6), st.integers(1, 40), st.integers(-2 ** 31, 2 ** 31))
def test_omega_block_rows_are_the_single_trial_draws(density, trials, sites, seed):
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    sampler = DisorderSampler(ModelConfig(1, 1.0, u, density), explicit_geometry([(k,) for k in range(sites)]))
    m = len(sampler.potential.coupling_sites)
    block = sampler.omega(seed, trials)
    assert block.shape == (trials, m)
    for t in range(trials):
        assert same_bits(block[t], density.sample(trial_stream(seed, t).random(m)))


@PROPERTY
@given(models(), densities(), st.integers(0, 3), st.integers(-2 ** 62, 2 ** 62))
def test_cli_realisation_is_one_omega_row(base, density, radius, seed):
    # spectrum and green-identities: the couplings are row 0 of omega(seed, 1), and spectrum's H is the
    # sampler's assembly of that row
    model = ModelConfig(base.dimension, base.coupling, base.potential, density)
    geometry = build_box(radius, (0,) * model.dimension)
    sampler = DisorderSampler(model, geometry)
    row = sampler.omega(seed, 1)[0]
    omega = cli._couplings(model, geometry, seed)
    assert type(omega) is dict and tuple(omega) == sampler.potential.coupling_sites
    assert same_bits(np.array(list(omega.values())), row)
    assembled = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "eigenvalues", lambda H: assembled.append(H) or np.linalg.eigvalsh(H))
        cli.cmd_spectrum(argparse.Namespace(box=radius), model, seed, cli.Output(None))
    assert same_bits(assembled[0], sampler.hamiltonian(sampler.diagonals(row)))


@PROPERTY
@given(densities(), st.integers(1, 2), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_configuration_draws_are_the_per_site_scalar_draws(density, d, radius, seed):
    model = ModelConfig(d, 1.0, SingleSitePotential.delta(d), density)
    sites = build_box(radius, (0,) * d).sites
    omega = sample_configuration(model, sites, seed)
    assert type(omega) is dict and list(omega) == sorted(sites)  # a plain dict in sorted site order
    for site in sites:
        assert same_bits(np.float64(omega[site]), np.float64(density.sample(site_stream(seed, site).random())))


def _uint64_keyed(values) -> np.random.Generator:
    """The keyed-stream construction the entropy words replace: a SeedSequence over np.uint64 scalars."""
    return np.random.default_rng(np.random.SeedSequence([np.uint64(v) for v in values]))


_SIGNED_64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@PROPERTY
@given(_SIGNED_64, st.integers(0, 2 ** 64 - 1), st.lists(_SIGNED_64, min_size=1, max_size=3).map(tuple))
@example(0, 0, (0,))
@example(2 ** 32 - 1, 2 ** 32 - 1, (2 ** 32 - 1, 0))
@example(2 ** 32, 2 ** 32, (2 ** 32, -(2 ** 32)))
@example(2 ** 63 - 1, 2 ** 63 - 1, (2 ** 63 - 1, -(2 ** 63), 0))
def test_keyed_streams_match_the_uint64_construction(seed, trial, site):
    old_trial = _uint64_keyed([zigzag(seed), 1, trial])
    old_site = _uint64_keyed([zigzag(seed), 0, len(site), *map(zigzag, site)])
    assert same_bits(trial_stream(seed, trial).random(4), old_trial.random(4))
    assert same_bits(site_stream(seed, site).random(4), old_site.random(4))


def _words(values) -> np.ndarray:
    """SeedSequence's entropy words for non-negative ints: each one's base-2**32 digits, lowest first, at least one."""
    return np.array([v >> 32 * k & 0xFFFFFFFF for v in values for k in range(max(1, -(-v.bit_length() // 32)))],
                    dtype=np.uint32)


@PROPERTY
@given(_SIGNED_64, st.integers(0, 2 ** 64 - 1), st.lists(_SIGNED_64, min_size=1, max_size=3).map(tuple))
@example(0, 0, (0,))
@example(2 ** 31, 2 ** 32, (2 ** 31, -(2 ** 31)))  # zigzag(2**31) = 2**32: a value of two words
@example(-(2 ** 31), 2 ** 32 - 1, (2 ** 31 - 1,))  # 2**32 - 1: the largest value of one word
@example(-(2 ** 63), 2 ** 64 - 1, (2 ** 63 - 1, -(2 ** 63), 0))
# seeds A, B, A, then 2**32 in a row: the second A takes its words from the per-seed cache
@example(123456789, 7, (1,))
@example(-987654321, 2 ** 40, (-2,))
@example(123456789, 2 ** 33, (2 ** 32,))
@example(2 ** 32, 7, (3, 4))
def test_keyed_streams_are_numpys_seedsequence_generators(seed, trial, site):
    for stream, values in ((trial_stream(seed, trial), [zigzag(seed), 1, trial]),
                           (site_stream(seed, site), [zigzag(seed), 0, len(site), *map(zigzag, site)])):
        oracle = np.random.default_rng(np.random.SeedSequence(_words(values)))
        assert stream.bit_generator.state == oracle.bit_generator.state
        entropy, expected = stream.bit_generator.seed_seq.entropy, oracle.bit_generator.seed_seq.entropy
        assert entropy.dtype == expected.dtype and np.array_equal(entropy, expected)
        assert same_bits(stream.random(5), oracle.random(5))


@PROPERTY
@given(_SIGNED_64, st.integers(0, 2 ** 64 - 1), st.lists(_SIGNED_64, min_size=1, max_size=3).map(tuple))
def test_numpy_integer_and_bool_keys_keep_their_streams(seed, trial, site):
    def same(a, b):
        return a.bit_generator.state == b.bit_generator.state

    assert same(trial_stream(np.int64(seed), np.uint64(trial)), trial_stream(seed, trial))
    assert same(site_stream(np.int64(seed), tuple(map(np.int64, site))), site_stream(seed, site))
    assert same(trial_stream(True, False), trial_stream(1, 0))
    assert same(site_stream(False, (True, 0)), site_stream(0, (1, 0)))


def test_a_refused_seed_is_refused_again_with_the_whole_message():
    # the per-seed cache keeps no failure: the second call derives the words again and names the trial too;
    # trial 1 takes numpy's SeedSequence, trials 5 and 6 a state block, whose cache keeps no failure either
    for trial in (1, 5, 6):
        with pytest.raises(ValueError, match=rf"^stream key \(seed=9223372036854775808, trial={trial}\) is outside"):
            trial_stream(2 ** 63, trial)


@PROPERTY
@given(_SIGNED_64, st.integers(0, 2 ** 64 - 1))
@example(0, 1)
@example(0, 255)
@example(0, 256)
@example(0, 257)
@example(0, 2 ** 32 - 1)  # the last block of one-word trials
@example(0, 2 ** 32)  # the first block of two-word trials
@example(0, 2 ** 64 - 1)
@example(2 ** 31, 2 ** 32 - 1)  # zigzag(2**31) = 2**32: a seed of two words, the pool's fourth word the trial's
@example(-(2 ** 63), 2 ** 64 - 1)  # two seed words and two trial words: a fifth word mixed into the pool
def test_a_state_block_is_seedsequences_generate_state_row_by_row(seed, trial):
    block = _state_block(seed, trial // BLOCK)
    first = trial - trial % BLOCK
    expected = [np.random.SeedSequence(_words([zigzag(seed), 1, t])).generate_state(4, np.uint64)
                for t in range(first, first + BLOCK)]
    assert block.dtype == np.uint64 and not block.flags.writeable and np.array_equal(block, expected)


def test_a_trial_stream_pins_no_state_block():
    stream = trial_stream(11, 300)
    block = weakref.ref(_state_block(11, 1))
    _state_block.cache_clear()
    assert block() is None and _state_block.cache_info().maxsize == 4
    assert same_bits(stream.random(3), trial_stream(11, 300).random(3))


def test_trial_streams_do_not_spawn():
    with pytest.raises(TypeError, match="does not implement spawning"):
        trial_stream(3, 5).spawn(1)


def test_a_keyed_stream_pickles_and_resumes_where_it_stopped():
    stream = trial_stream(5, 2 ** 40)
    stream.random(3)
    copy = pickle.loads(pickle.dumps(stream))
    assert copy.bit_generator.state == stream.bit_generator.state
    assert same_bits(copy.random(4), stream.random(4))


@PROPERTY
@given(densities(), st.integers(1, 8), st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
def test_quantile_is_invariant_to_stacking(density, rows, cols, seed):
    q = np.random.default_rng(seed).random((rows, cols))
    stacked = density.quantile(q)
    for t in range(rows):
        assert same_bits(stacked[t], density.quantile(q[t].copy()))


@PROPERTY
@given(densities(), st.floats(0.0, 1.0))
def test_quantile_inverts_the_cdf_inside_the_support(density, frac):
    t = density.a + frac * (density.b - density.a)
    # where the density is small the cdf is flat and the inverse is ill-conditioned
    assume(float(density.pdf(t)) >= 0.05 * density.linf)
    assert abs(float(density.quantile(density.cdf(t))) - t) <= 1e-12 * max(1.0, abs(t))


def _bisection_oracle(density, q):
    """The 64-step np.where bisection of [a, b] that quantile ran for every kind before the closed forms."""
    q = np.asarray(q, dtype=float)
    lo = np.full(q.shape, density.a)
    hi = np.full(q.shape, density.b)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = density.cdf(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


_LAST_Q = 1.0 - 2.0 ** -53  # the largest uniform a generator's random() returns


@PROPERTY
@given(st.one_of(densities(kinds=("uniform", "raised_cosine")),
                 st.builds(lambda kind, h: DisorderDensity(kind, (-h, h)),  # a = -b: the first midpoint is 0.0
                           st.sampled_from(["uniform", "raised_cosine"]), st.floats(0.05, 5.0))),
       st.integers(1, 8), st.integers(2, 30), st.integers(0, 2 ** 32 - 1))
def test_uniform_and_raised_cosine_draws_keep_their_bits(density, rows, cols, seed):
    q = np.random.default_rng(seed).random((rows, cols))
    q[0, 0], q[-1, -1] = 0.0, _LAST_Q
    # the bisection for the raised cosine; for the uniform, the arithmetic sample did before it called quantile
    want = _bisection_oracle(density, q) if density.kind == "raised_cosine" else density.a + (density.b - density.a) * q
    assert same_bits(density.sample(q), want)
    for t in range(rows):
        assert same_bits(density.sample(q[t].copy()), want[t].copy())


@PROPERTY
@given(densities(kinds=("piecewise_linear",)), st.integers(0, 2 ** 32 - 1))
def test_piecewise_linear_draws_match_the_bisection(density, seed):
    q = np.concatenate([[0.0, _LAST_Q], np.random.default_rng(seed).random(200)])
    got, want = density.sample(q), _bisection_oracle(density, q)
    # next to a zero of the density the cdf is flat and the bisection itself is only ~sqrt(eps)-accurate
    steep = np.array([density.pdf(t) >= 0.05 * density.linf for t in want])
    assert np.all(np.abs(got - want)[steep] <= 1e-12 * np.maximum(1.0, np.abs(want[steep])))


@st.composite
def plateau_densities(draw):
    """Piecewise-linear densities on the knots of ``densities``, every knot value 0 or in [0.1, 2].

    Zeros open zero-density plateaus.  A nonzero value stays away from 0: a
    segment whose mass is a rounding error of 1 (knot values 200 and 2e-14)
    makes the inverse there as ill-conditioned as the oracle, and the two
    then differ by 1e-6 of the width with neither nearer the root.
    """
    ts = draw(densities(kinds=("piecewise_linear",))).knots_t
    ys = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=len(ts), max_size=len(ts)))
    assume(any(ys))
    return DisorderDensity("piecewise_linear", list(zip(ts, ys)))


@PROPERTY
@given(plateau_densities())
@example(DisorderDensity("piecewise_linear", [(0, 0.77), (0.06, 0), (0.46, 0), (0.57, 0)]))
def test_piecewise_linear_quantile_is_the_generalised_inverse(density):
    # inf{t : F(t) >= q}: a knot mass ends on the left end of a plateau that follows it, never past it
    # a knot mass may round to just above 1, which the oracle's clipped cdf never reaches
    q = np.minimum([0.0, *density._knot_mass, _LAST_Q, 1.0], 1.0)
    tol = 1e-6 * (density.b - density.a)  # the oracle's own error next to a zero of the density
    assert np.all(np.abs(density.quantile(q) - _bisection_oracle(density, q)) <= tol)
    assert density.quantile(0.0) == density.a


def _old_piecewise_linear_cdf(density, t):
    """The piecewise-linear cdf with np.clip and per-call segment slopes, which the precomputed rise/run form replaced."""
    ts, ys = density.knots_t, density.knots_y
    tc = np.clip(t, density.a, density.b)
    idx = np.clip(np.searchsorted(ts, tc, side="right") - 1, 0, len(ts) - 2)
    t0, t1 = ts[idx], ts[idx + 1]
    y0, y1 = ys[idx], ys[idx + 1]
    dt = tc - t0
    y_t = y0 + (y1 - y0) * dt / (t1 - t0)
    return np.clip(density._knot_mass[idx] + (y0 + y_t) / 2 * dt, 0.0, 1.0)


@PROPERTY
@given(densities(kinds=("piecewise_linear",)), st.integers(0, 2 ** 32 - 1))
def test_piecewise_linear_cdf_matches_the_old_expression(density, seed):
    a, b = density.a, density.b
    edges = [*density.knots_t, *np.nextafter(density.knots_t, -np.inf), *np.nextafter(density.knots_t, np.inf)]
    frac = np.random.default_rng(seed).uniform(-0.5, 1.5, 200)  # inside and outside the support
    t = np.array([*edges, a - 1.0, b + 1.0, *(a + frac * (b - a))])
    assert same_bits(density.cdf(t), _old_piecewise_linear_cdf(density, t))
    for ti in t[:len(edges)]:
        assert same_bits(density.cdf(ti), _old_piecewise_linear_cdf(density, ti))


@st.composite
def moment_setups(draw):
    """(model, geometry, pairs): pairs with a repeated source and an x == y pair, in d = 1 or 2."""
    model = draw(models())
    model = ModelConfig(model.dimension, model.coupling, model.potential, draw(densities()))
    box = build_box(3 if model.dimension == 1 else 1, (0,) * model.dimension).sites
    geometry = explicit_geometry(draw(subsets(box)))
    site = st.sampled_from(geometry.sites)
    pairs = draw(st.lists(st.tuples(site, site), min_size=1, max_size=4))
    return model, geometry, pairs + [(pairs[0][0], pairs[0][0])]


@PROPERTY
@given(moment_setups(), energies, st.floats(0.05, 0.95), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_shared_block_estimates_are_the_one_pair_estimates(setup, z, s, trials, seed):
    model, geometry, pairs = setup
    got = estimate_moments(model, geometry, z, s, pairs, trials, seed)
    want = [estimate_moment(model, geometry, z, s, x, y, trials, seed) for x, y in pairs]
    assert [(e.x, e.y) for e in got] == pairs
    assert same_bits(np.array([(e.mean, e.stderr) for e in got]), np.array([(e.mean, e.stderr) for e in want]))
    # oracle: one source per solve, trial by trial, and |G|^s as np.abs(array) ** s over the trials' G values
    sampler = DisorderSampler(model, geometry)
    diagonals = sampler.diagonals(sampler.omega(seed, trials))
    for (x, y), est in zip(pairs, got):
        ix, iy = geometry.index_of(x), geometry.index_of(y)
        samples = np.abs(np.array([sampler.green_column(diagonals[t], z, [ix])[iy, 0] for t in range(trials)])) ** s
        assert same_bits(np.array([est.mean, est.stderr]), np.array(_mean_stderr(np.array(samples))))


_PAIR_MODELS = {d: ModelConfig(d, 3.0, SingleSitePotential.from_values({(0,) * d: 1.0, (1,) + (0,) * (d - 1): -0.5}),
                                 DisorderDensity("uniform", (0, 1))) for d in (1, 2)}


@st.composite
def multi_source_pairs(draw):
    """(d, geometry, pairs): 2-3 sources, interleaved, repeated and unsorted, on a chain of 9 or a 5 x 5 box."""
    d = draw(st.sampled_from([1, 2]))
    geometry = build_box(4 if d == 1 else 2, (0,) * d)
    site = st.sampled_from(geometry.sites)
    sources = draw(st.lists(site, min_size=2, max_size=3, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(sources), site), min_size=2, max_size=8))
    assume(len({x for x, _ in pairs}) >= 2)
    return d, geometry, pairs


@PROPERTY
@given(multi_source_pairs(), energies)
def test_each_trials_pair_values_are_the_dense_green_entries(setup, z):
    # with one source the (n, 1) column block reads the same in either order, so only 2-3 sources tell the
    # Fortran-order index of a pair from its transpose
    d, geometry, pairs = setup
    model, trials, seed = _PAIR_MODELS[d], 3, 11
    blocks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "run_trials", lambda fn, trials: blocks.append(fn(range(trials))) or blocks[-1])
        estimate_moments(model, geometry, z, 0.5, pairs, trials, seed)
    sampler = DisorderSampler(model, geometry)
    for values, diagonal in zip(blocks[0], sampler.diagonals(sampler.omega(seed, trials)), strict=True):
        G = green(sampler.hamiltonian(diagonal), z)
        want = [G[geometry.index_of(y), geometry.index_of(x)] for x, y in pairs]
        assert np.allclose(values, want, rtol=0.0, atol=1e-10)


def _per_trial_moment_loop(model, geometry, z, exponent, x, rows, trials, seed):
    """Mean and stderr of |G(z; x, .)|^exponent at the given rows, from one source column per trial.

    This is the trial loop that decay_profile and finite_volume_sum ran on their own before
    they became estimate_moments calls."""
    sampler = DisorderSampler(model, geometry)
    diagonals = sampler.diagonals(sampler.omega(seed, trials))
    ix = geometry.index_of(x)
    samples = [np.abs(sampler.green_column(diagonals[t], z, [ix])[rows, 0]) ** exponent for t in range(trials)]
    return _mean_stderr(np.array(samples))


@st.composite
def chain_models(draw):
    """d = 1 models with 0 in supp u, connected or gapped, a positive coupling and a random density."""
    far = draw(st.sets(st.integers(1, 3), max_size=2))
    u = SingleSitePotential({(k,): draw(_u_value) for k in {0} | far})
    return ModelConfig(1, draw(st.floats(0.5, 50.0)), u, draw(densities()))


@PROPERTY
@given(chain_models(), st.integers(2, 12), energies, st.floats(0.05, 0.95), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_decay_rows_are_the_per_trial_loop(model, box_sites, z, s, trials, seed):
    prof = decay_profile(model, box_sites, z, s, trials, seed)
    geometry = explicit_geometry([(k,) for k in range(box_sites)])
    mean, stderr = _per_trial_moment_loop(model, geometry, z, prof["exponent"], (0,), slice(None), trials, seed)
    assert [row["distance"] for row in prof["rows"]] == list(range(1, box_sites))
    got = np.array([(row["mean"], row["stderr"]) for row in prof["rows"]])
    assert same_bits(got, np.stack([mean[1:], stderr[1:]], axis=1))


@PROPERTY
@given(models(), st.integers(0, 1), st.integers(1, 3), energies, st.floats(0.05, 0.95), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_finite_volume_means_are_the_per_trial_loop(model, extra_L, margin, z, s, trials, seed, data):
    model = ModelConfig(model.dimension, data.draw(st.floats(0.1, 50.0)), model.potential, data.draw(densities()))
    diam = model.potential.diameter_linf()
    L = diam + 2 + extra_L
    d = model.dimension
    region = build_box(L + diam + margin, (0,) * d)
    res = finite_volume_sum(model, region, (0,) * d, z, s, L, trials, seed)
    sub = region.subset(region.site_set() - res["annulus"].W_x)
    rows = [sub.index_of(w) for w in res["boundary_sites"]]
    mean, stderr = _per_trial_moment_loop(model, sub, z, res["exponent"], (0,) * d, rows, trials, seed)
    assert same_bits(res["means"], mean) and same_bits(res["stderrs"], stderr)
    assert same_bits(np.float64(res["raw_sum"]), mean.sum())


# ---------------------------------------------------------------------------
# vectorised searches against their one-at-a-time loops


def _hyperplane_search_loop(u, search_samples, seed):
    """The gap-construction search one candidate at a time: (alpha, distance)."""
    supp = sorted(k[0] for k in u.support())
    n, r = supp[-1] + 1, max(b - a - 1 for a, b in zip(supp, supp[1:]))
    rows = [np.array([u.value((i - k,)) for k in range(r + 1)]) for i in range(n + r)]
    norms = np.array([np.linalg.norm(row) for row in rows])
    rng = trial_stream(seed, 0)
    best_alpha, best_dist = None, -1.0
    for _ in range(search_samples):
        cand = rng.random(r + 1)
        dist = min(abs(float(row @ cand)) / nv for row, nv in zip(rows, norms))
        if dist > best_dist:
            best_dist, best_alpha = dist, cand
    return best_alpha, best_dist


@st.composite
def potentials(draw, d=None):
    """Finite or truncated-tail u in d = 1..3, with stored cores inside and outside the tail's l1 ball.

    Every core stores the origin, so a tail's core fixes d even when all its other stored values are 0.0;
    u(0) is nonzero, as a stored 0.0 is not replaced by the tail and 0 must lie in supp u.
    """
    d = draw(st.integers(1, 3)) if d is None else d
    sites = {(0,) * d} | draw(st.sets(st.tuples(*[st.integers(-3, 3)] * d), max_size=4))
    if draw(st.booleans()):
        return SingleSitePotential({k: draw(_u_value) for k in sites})
    rate, amplitude = draw(st.floats(0.3, 2.0)), draw(st.floats(0.5, 2.0))
    weight = {k: st.floats(-1.0, 1.0) for k in sites} | {(0,) * d: st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3)}
    core = {k: draw(weight[k]) * amplitude * math.exp(-rate * sum(map(abs, k))) for k in sites}
    return SingleSitePotential(core, tail_amplitude=amplitude, tail_rate=rate,
                               truncation_radius=draw(st.integers(1, 4 if d == 1 else 2)),
                               tail_sign=draw(st.sampled_from([1, -1])))


def _effective_support_oracle(u) -> set:
    """The nonzero stored core plus the tail's l1 ball off the stored sites, as u.support() built it per call."""
    supp = {k for k, v in u.support_values.items() if v != 0.0}
    if u.tail_amplitude is not None:
        rad = u.truncation_radius
        for k in itertools.product(range(-rad, rad + 1), repeat=u.dimension):
            if sum(map(abs, k)) <= rad and k not in u.support_values:
                supp.add(k)
    return supp


def _value_oracle(u, k) -> float:
    """u(k) evaluated per call: the stored core first (-0.0 reads 0.0), then the tail formula inside the l1 ball."""
    if k in u.support_values:
        return u.support_values[k] or 0.0
    l1 = sum(map(abs, k))
    if u.tail_amplitude is not None and l1 <= u.truncation_radius:
        return u.tail_sign * u.tail_amplitude * math.exp(-u.tail_rate * l1)
    return 0.0


@PROPERTY
@given(potentials())
def test_value_table_matches_the_per_call_support_and_tail_formula(u):
    assert u.support() == tuple(sorted(_effective_support_oracle(u)))
    for k in itertools.product(range(-5, 6), repeat=u.dimension):
        assert u.value(k).hex() == _value_oracle(u, k).hex(), k


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_a_potential_has_the_dimension_of_its_stored_sites(d, data):
    u = data.draw(potentials(d))
    assert u.dimension == d
    assert all(len(k) == d for k in u.support())


def _site_potential_oracle(geometry, u):
    """coupling_sites and positions from np.unique over the shifted site rows, as SitePotential built them."""
    supp = u.support()
    shifts = np.array(geometry.sites)[None, :, :] - np.array(supp)[:, None, :]
    keys, inverse = np.unique(shifts.reshape(-1, geometry.dimension), axis=0, return_inverse=True)
    return tuple(map(tuple, keys.tolist())), inverse.reshape(len(supp), len(geometry))


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_site_potential_table_matches_the_unique_rows_construction(d, data):
    # negative coordinates, lexicographic or shuffled site order, and sites at +-2**62,
    # whose differences a mixed-radix key in int64 could not hold
    sites = data.draw(st.sets(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=30))
    if data.draw(st.booleans()):
        far = data.draw(st.tuples(*[st.integers(-4, 4)] * d))
        axis = data.draw(st.integers(0, d - 1))
        sites |= {far[:axis] + (sign * 2 ** 62,) + far[axis + 1:] for sign in (1, -1)}
    order = data.draw(st.one_of(st.just(sorted(sites)), st.permutations(sorted(sites))))
    geometry = BoxGeometry(tuple(order))
    u = data.draw(potentials(d))
    potential = SitePotential(geometry, u)
    coupling_sites, positions = _site_potential_oracle(geometry, u)
    assert potential.coupling_sites == coupling_sites
    assert same_bits(potential.positions, positions)


@st.composite
def gapped_potentials(draw):
    """1-D u with 0 in its support and at least one gap."""
    n = draw(st.integers(3, 9))
    inner = draw(st.sets(st.integers(1, n - 2), max_size=n - 3))
    return SingleSitePotential({(k,): draw(_u_value) for k in {0, n - 1} | inner})


@PROPERTY
@given(gapped_potentials(), st.integers(1, 200), st.integers(0, 2 ** 31))
# one candidate: numpy's block product (BLAS gemv) lands 18 eps from the loop's dot here
@example(SingleSitePotential({(0,): 0.484375, (2,): -0.4375, (8,): 1.0}), 1, 0)
def test_gap_search_matches_the_candidate_loop(u, search_samples, seed):
    alpha, dist = _hyperplane_search_loop(u, search_samples, seed)
    try:
        got = gap_constants(u, DisorderDensity("uniform", (0, 1)), 10.0, 0.5, search_samples, seed)
    except RuntimeError:  # the loop's best must then fall short of d0 / 2 as well
        supp = sorted(k[0] for k in u.support())
        n, r = supp[-1] + 1, max(b - a - 1 for a, b in zip(supp, supp[1:]))
        assert dist < 0.5 / ((n + r) * (r + 1) ** (r / 2.0))
        return
    assert got.alpha == tuple(float(a) for a in alpha)
    assert same_bits(np.float64(got.min_distance), np.float64(dist))


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 60), st.floats(0.05, 0.95),
       st.integers(0, 2 ** 32 - 1))
def test_stacked_detgen_matches_the_per_trial_determinants(n, count, trials, t, seed):
    gen = np.random.default_rng(seed)
    A = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    Vs = [gen.normal(size=(n, n)) for _ in range(count)]
    alpha = np.ones(count)
    assume(abs(np.linalg.det(sum(Vs))) > 1e-6)
    density = DisorderDensity("uniform", (-1, 1))
    got = detgen_check(A, Vs, alpha, density, t, trials=trials, seed=seed)
    draws = density.sample(trial_stream(seed, 0).random((trials, count)))
    vals = []
    for row in draws:
        M = A.astype(complex)
        for r, V in zip(row, Vs):
            M += r * V
        vals.append(math.exp(-t / n * np.linalg.slogdet(M)[1]))
    mean, stderr = _mean_stderr(np.array(vals))
    assert same_bits(np.float64(got.integral_value), mean)
    assert same_bits(np.float64(got.error), 3.0 * stderr)


# ---------------------------------------------------------------------------
# averaging quadrature against the integrands it replaced


def _numpy_pdf(density, t) -> float:
    """The vectorised density that the scalar ``pdf`` replaced, at one abscissa."""
    t = np.asarray(t, dtype=float)
    a, b = density.a, density.b
    if density.kind == "uniform":
        return float(np.where((t >= a) & (t <= b), 1.0 / (b - a), 0.0))
    if density.kind == "raised_cosine":
        x = (t - a) / (b - a)
        inside = (x >= 0) & (x <= 1)
        return float(np.where(inside, (1.0 - np.cos(2 * np.pi * np.clip(x, 0, 1))) / (b - a), 0.0))
    vals = np.interp(t, density.knots_t, density.knots_y, left=0.0, right=0.0)
    return float(np.where((t >= a) & (t <= b), vals, 0.0))


@PROPERTY
@given(densities(), st.floats(-0.5, 1.5))
def test_scalar_pdf_matches_the_numpy_expression(density, frac):
    a, b = density.a, density.b
    outside = (math.nextafter(a, -math.inf), math.nextafter(b, math.inf))
    for t in (a + frac * (b - a), a, b, *density.breakpoints, *outside):
        got, want = density.pdf(t), _numpy_pdf(density, t)
        if a <= t <= b:
            assert abs(got - want) <= 1e-15 * abs(want)
        else:
            assert got == want == 0.0


@st.composite
def pencils(draw):
    """(A, V, roots, log|det V|): complex A and real V, n <= 3, with |det V| >= 1e-3 as ``cmd_averaging`` draws them."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    V = rng.normal(size=(n, n))
    assume(abs(np.linalg.det(V)) >= 1e-3)
    return A, V, _pencil(A, V, 0.5)[3], float(np.linalg.slogdet(V)[1])


@PROPERTY
@given(pencils(), st.floats(0.05, 0.95), st.floats(-3.0, 3.0))
def test_root_product_integrand_matches_slogdet(pencil, s, r):
    A, V, roots, logdetV = pencil
    assume(np.min(np.abs(r - roots)) >= 1e-3)
    p = s / A.shape[0]
    want = math.exp(-p * float(np.linalg.slogdet(A + r * V)[1]))
    assert abs(_det_power(r, logdetV, roots.tolist(), p) - want) <= 1e-12 * want


def _oracle_quad(f, density, singular) -> tuple[float, float]:
    """quad of f * rho with the vectorised density, split at the singular points and the knots."""
    pts = sorted({float(p) for p in (*singular, *density.breakpoints) if density.a < p < density.b})
    return quad(lambda t: f(t) * _numpy_pdf(density, t), density.a, density.b, points=pts or None, limit=400)


@PROPERTY
@given(densities(), pencils(), st.floats(0.2, 0.8), st.integers(0, 2 ** 32 - 1))
def test_averaging_checks_match_the_slogdet_svd_oracle(density, pencil, s, seed):
    A, V, roots, _ = pencil
    p = s / A.shape[0]
    rng = np.random.default_rng(seed)
    beta = complex(rng.uniform(-1, 2), rng.uniform(-0.5, 0.5))  # as cmd_averaging draws the pole
    pole = graf_check(density, s, beta)
    want, want_err = _oracle_quad(lambda t: abs(t - beta) ** (-s), density, [])
    assert abs(pole.integral_value - want) <= pole.error + want_err + 1e-12
    oracles = {
        det_average_check: lambda r: math.exp(-p * float(np.linalg.slogdet(A + r * V)[1])),
        resolvent_average_check: lambda r: float(np.linalg.svd(A + r * V, compute_uv=False)[-1]) ** (-p),
    }
    for check, f in oracles.items():
        got = check(A, V, density, s)
        want, want_err = _oracle_quad(f, density, roots.real)
        assert abs(got.integral_value - want) <= got.error + want_err + 1e-12


@PROPERTY
@given(pencils(), st.sampled_from(["root", "generic", "zero row", "zero column", "double"]), st.integers(0, 2 ** 32 - 1))
def test_smallest_singular_value_matches_svd(pencil, kind, seed):
    A, V, roots, _ = pencil
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    M = A + float(roots.real[rng.integers(n)]) * V  # as near singular as a real r gets
    if kind == "generic":  # where the tolerance is tight relative to sigma_min
        M = A + rng.uniform(-3.0, 3.0) * V
    elif kind == "zero row":
        M[rng.integers(n)] = 0.0
    elif kind == "zero column":
        M[:, rng.integers(n)] = 0.0
    elif kind == "double":  # the two smallest singular values equal: the n = 2 discriminant is 0, the n = 3 cubic's root double
        u, sv, vh = np.linalg.svd(M)
        sv[-1] = sv[-2 if n > 1 else -1]
        M = (u * sv) @ vh
    M = M / 2.0 ** math.frexp(float(np.abs(M).max()))[1]  # entries of modulus <= 1, as the check scales them
    sv = np.linalg.svd(M, compute_uv=False)
    got = _smallest_singular_value(M.ravel().tolist())
    if kind.startswith("zero"):
        assert got == 0.0
    # the n = 3 determinant is a cofactor expansion, good to eps * sigma_1^3, which D / sqrt(y_1) divides by sigma_1 sigma_2
    tol = 1e-13 * float(sv[0]) * (float(sv[0]) / float(sv[1]) if n == 3 else 1.0)
    assert abs(got - float(sv[-1])) <= tol


_QUAD_INTEGRANDS = {  # smooth, kinked, singular and discontinuous at c
    "cos": lambda c, p: lambda t: math.cos(c * t),
    "kink": lambda c, p: lambda t: abs(t - c) ** p,
    "pole": lambda c, p: lambda t: math.inf if t == c else abs(t - c) ** -p,
    "step": lambda c, p: lambda t: 1.0 if t < c else -p,
}


def _quad_outcome(call) -> tuple:
    """The bits of (value, error) of one quadrature and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, err = call()
    return float(val).hex(), float(err).hex(), [(w.category, str(w.message)) for w in caught]


@PROPERTY
@given(st.sampled_from(sorted(_QUAD_INTEGRANDS)), st.floats(-3.0, 3.0), st.floats(0.1, 0.95),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sampled_from([50, 400]), st.data())
def test_quad_is_scipy_quad_bit_for_bit(kind, c, p, a, b, limit, data):
    # QAGS, QAGP with points duplicated, on an end, outside and at c, and QAWS, each on (a, b) and (b, a)
    f = _QUAD_INTEGRANDS[kind](c, p)
    want = _quad_outcome(lambda: quad(f, a, b, limit=limit))
    assert _quad_outcome(lambda: _quad(f, a, b, limit=limit)) == want
    points = data.draw(st.lists(st.one_of(st.floats(-5.0, 5.0), st.sampled_from([a, b, c])), min_size=1, max_size=6))
    points += points[:data.draw(st.integers(0, len(points)))]
    want = _quad_outcome(lambda: quad(f, a, b, points=points, limit=limit))
    assert _quad_outcome(lambda: _quad(f, a, b, points=points, limit=limit)) == want
    alg = data.draw(st.tuples(st.floats(-0.95, 1.0), st.floats(-0.95, 1.0)))
    want = _quad_outcome(lambda: quad(f, a, b, weight="alg", wvar=alg, limit=limit))
    assert _quad_outcome(lambda: _quad(f, a, b, alg=alg, limit=limit)) == want


def _pole_average_closed_form(density, s, beta) -> float:
    """integral of |t - beta|^{-s} rho(t) dt for piecewise-linear rho and real beta, piece by piece.

    On a piece, rho = c + m u with u = t - beta, and (c + m u)|u|^{-s} has the
    antiderivative c sgn(u) |u|^{1-s} / (1-s) + m |u|^{2-s} / (2-s).
    """
    def antiderivative(c, m, u):
        return c * math.copysign(abs(u) ** (1.0 - s), u) / (1.0 - s) + m * abs(u) ** (2.0 - s) / (2.0 - s)

    total = 0.0
    ts, ys = density.knots_t.tolist(), density.knots_y.tolist()
    for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:]):
        m = (y1 - y0) / (t1 - t0)
        c = y0 + m * (beta - t0)
        total += antiderivative(c, m, t1 - beta) - antiderivative(c, m, t0 - beta)
    return total


@PROPERTY
@given(densities().filter(lambda d: d.kind == "piecewise_linear"), st.floats(0.2, 0.8), st.integers(-20, 120))
# quad without the knot as a breakpoint missed this by 1.2e-6 relative and reported an error of 1.7e-9
@example(DisorderDensity("piecewise_linear", [(0.0, 1.0), (0.1, 1.5), (1.0, 1.0)]), 0.3, 5)
# QAGP beside a pole at a panel end: IntegrationWarnings, at hypothesis seeds 105 and 122
@example(DisorderDensity("piecewise_linear", [(4.0, 1.0), (4.00375, 0.0), (4.125, 0.0)]), 0.75, 1)
@example(DisorderDensity("piecewise_linear", [(4.0, 0.0), (4.087, 1.0), (4.1, 0.0)]), 0.78125, 70)
def test_pole_average_on_piecewise_linear_matches_the_closed_form(density, s, k):
    beta = density.a + (density.b - density.a) * k / 100  # on the grid of the knots, on them, between and outside
    chk = graf_check(density, s, beta)
    # quad's error is an estimate, seen up to 2x low, hence the factor 2; 1e-10 covers the closed form's rounding
    assert abs(chk.integral_value - _pole_average_closed_form(density, s, beta)) <= 2 * chk.error + 1e-10


@pytest.mark.parametrize("beta", [math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0), 0.5 + 1e-13, 0.5 - 1e-12])
@pytest.mark.parametrize("s", [0.25, 0.75])
def test_pole_next_to_a_knot(beta, s):
    # splitting at both the knot and the pole would leave a panel of a few ulps, whose nodes land on the pole
    density = DisorderDensity("piecewise_linear", [(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)])
    chk = graf_check(density, s, beta)
    assert abs(chk.integral_value - _pole_average_closed_form(density, s, beta)) <= 2 * chk.error + 1e-10
