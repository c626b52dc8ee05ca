"""Green functions, depleted operators, Schur identities, annulus geometry."""

import importlib

import numpy as np
import pytest

from alloylab.green import (
    annulus,
    depleted,
    green,
    schur_B,
    separates,
    verify_resolvent_identities,
    verify_schur_identity,
    verify_two_step_schur,
)
from alloylab.model import (
    Configuration,
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    assemble_hamiltonian,
    build_box,
    connected_components,
    explicit_geometry,
    interior_boundary,
    lambda_plus,
    sample_configuration,
)


def make_model(d=1, lam=1.0, u_vals=None):
    if u_vals is None:
        u = SingleSitePotential.delta(d)
    else:
        u = SingleSitePotential.from_values(u_vals)
    return ModelConfig(d, lam, u, DisorderDensity("uniform", (0, 1)))


def chain(n):
    return explicit_geometry([(k,) for k in range(n)])


def test_green_1x1():
    m = make_model(lam=0.0)
    g = explicit_geometry([(0,)])
    H = assemble_hamiltonian(m, Configuration({(0,): 0.0}), g)
    G = green(H, 1j)
    assert G.entries[0, 0] == pytest.approx(1j, abs=1e-15)  # 1/(0 - i) = i


def test_green_2x2_oracle():
    # lambda=0 two-site chain at z=2i: invert [[-2i,-1],[-1,-2i]] by hand
    m = make_model(lam=0.0)
    g = chain(2)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=0)
    H = assemble_hamiltonian(m, omega, g)
    G = green(H, 2j)
    det = (-2j) * (-2j) - 1.0
    want = np.array([[-2j, 1.0], [1.0, -2j]]) / det
    assert np.max(np.abs(G.entries - want)) < 1e-14
    assert G.residual(H) < 1e-12


def test_green_norm_resolvent_bound():
    m = make_model(d=2, lam=3.0)
    g = build_box(2, (0, 0))
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=7)
    H = assemble_hamiltonian(m, omega, g)
    for z in (10j, 0.3 + 0.25j):
        G = green(H, z)
        assert np.linalg.norm(G.entries, 2) <= 1.0 / abs(z.imag) + 1e-12
    assert np.max(np.abs(G.entries - G.entries.T)) < 1e-12  # complex symmetric


def test_green_singular_real_energy():
    m = make_model(lam=0.0)
    g = chain(2)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=0)
    H = assemble_hamiltonian(m, omega, g)
    with pytest.raises(np.linalg.LinAlgError):
        green(H, 1.0)  # 1 is an eigenvalue of the two-site chain


def test_depleted_full_and_empty():
    m = make_model()
    g = chain(6)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=1)
    H = assemble_hamiltonian(m, omega, g)
    dep_full = depleted(m, omega, g, g.sites)
    assert np.array_equal(dep_full.coupling, np.zeros((6, 6)))
    assert np.array_equal(dep_full.depleted, H.entries)
    dep_empty = depleted(m, omega, g, [])
    assert np.array_equal(dep_empty.coupling, np.zeros((6, 6)))


def test_depleted_bond_structure():
    m = make_model()
    g = chain(6)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=1)
    dep = depleted(m, omega, g, [(0,), (1,), (2,)])
    T = dep.coupling
    assert np.count_nonzero(T) == 2
    assert T[g.index_of((2,)), g.index_of((3,))] == 1.0
    assert T[g.index_of((3,)), g.index_of((2,))] == 1.0
    # H = H^L - T entrywise
    H = assemble_hamiltonian(m, omega, g)
    assert np.array_equal(H.entries, dep.depleted - T)


def test_depleted_green_blocks():
    # depleted Green function vanishes across the cut and restricts inside
    m = make_model(d=1, lam=2.0, u_vals={(0,): 1.0, (1,): -0.5})
    g = chain(9)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=3)
    inner = [(k,) for k in range(4)]
    dep = depleted(m, omega, g, inner)
    z = 0.7j
    Gd = np.linalg.inv(dep.depleted - z * np.eye(9))
    for x in range(4):
        for y in range(4, 9):
            assert abs(Gd[x, y]) < 1e-14
    sub = g.subset(inner)
    H_in = assemble_hamiltonian(m, omega, sub)
    G_in = np.linalg.inv(H_in.entries - z * np.eye(4))
    assert np.max(np.abs(Gd[:4, :4] - G_in)) < 1e-9


def test_schur_B_whole_region_is_zero():
    m = make_model()
    g = chain(4)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=2)
    B = schur_B(m, omega, g, g.sites, 1j)
    assert np.array_equal(B, np.zeros((4, 4), dtype=complex))


def test_schur_B_single_site_exterior_blocks():
    # region {0..4}, inner {1..3}: exterior splits into {0} and {4}
    lam = 2.0
    m = make_model(lam=lam)
    g = chain(5)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=5)
    z = 0.4 + 0.9j
    B = schur_B(m, omega, g, [(1,), (2,), (3,)], z)
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = 1.0 / (lam * omega[(0,)] - z)
    want[2, 2] = 1.0 / (lam * omega[(4,)] - z)
    assert np.max(np.abs(B - want)) < 1e-14


def test_schur_B_supported_on_interior_boundary():
    m = make_model(d=2)
    g = build_box(3, (0, 0))
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=8)
    inner = build_box(1, (0, 0))
    B = schur_B(m, omega, g, inner, 0.5j)
    inner_list = [s for s in g.sites if s in set(inner.sites)]
    bdry = interior_boundary(inner)
    for i, x in enumerate(inner_list):
        for j, y in enumerate(inner_list):
            if x not in bdry or y not in bdry:
                assert B[i, j] == 0.0


def test_schur_B_independent_of_interior_couplings():
    # changing omega at a coupling that only feeds the inner region leaves B fixed
    m = make_model(d=1, lam=1.5)
    g = chain(9)
    inner = [(k,) for k in range(3, 6)]
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=4)
    z = 0.2 + 0.6j
    B1 = schur_B(m, omega, g, inner, z)
    bumped = dict(omega.values)
    bumped[(4,)] += 17.0  # delta potential: omega_4 only enters V(4), inside the inner region
    B2 = schur_B(m, Configuration(bumped), g, inner, z)
    assert np.max(np.abs(B1 - B2)) == 0.0


def test_schur_identity_random_1d():
    m = make_model(d=1, lam=3.0, u_vals={(0,): 1.0, (1,): -0.5})
    g = chain(12)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=6)
    disc = verify_schur_identity(m, omega, g, [(k,) for k in range(4, 8)], 0.1 + 0.8j)
    assert disc < 1e-9


def test_schur_identity_2d_nested_boxes():
    m = make_model(d=2, lam=2.0)
    g = build_box(3, (0, 0))
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=9)
    disc = verify_schur_identity(m, omega, g, build_box(2, (0, 0)), 0.3 + 0.5j)
    assert disc < 1e-9


def test_schur_identity_whole_region_trivial():
    m = make_model()
    g = chain(5)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=6)
    assert verify_schur_identity(m, omega, g, g.sites, 0.9j) < 1e-12


def test_two_step_schur_1d():
    m = make_model(d=1, lam=2.0, u_vals={(0,): 1.0, (1,): -0.5})
    g = chain(12)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=10)
    disc = verify_two_step_schur(m, omega, g, [(5,), (6,)], [(k,) for k in range(3, 10)], 0.25 + 0.7j)
    assert disc < 1e-9


def test_two_step_schur_2d():
    m = make_model(d=2)
    g = build_box(3, (0, 0))
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=11)
    disc = verify_two_step_schur(m, omega, g, build_box(1, (0, 0)), build_box(2, (0, 0)), 0.6j)
    assert disc < 1e-9


def test_two_step_schur_outer_equals_region():
    # with the outer region equal to the whole geometry the feedback vanishes
    # and the identity collapses to the one-step case
    m = make_model()
    g = chain(9)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=12)
    disc = verify_two_step_schur(m, omega, g, [(4,)], g.sites, 0.5j)
    assert disc < 1e-10


def test_two_step_schur_rejects_touching_boundary():
    m = make_model()
    g = chain(9)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=12)
    with pytest.raises(ValueError):
        verify_two_step_schur(m, omega, g, [(3,)], [(k,) for k in range(3, 7)], 0.5j)


@pytest.mark.parametrize("as_given", [lambda k: k, lambda k: [k], lambda k: (k,)],
                         ids=["int", "list", "tuple"])
def test_inner_sites_given_as_ints_lists_or_tuples(as_given):
    m = make_model(d=1, lam=3.0, u_vals={(0,): 1.0, (1,): -0.5})
    g = chain(12)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=6)
    z = 0.1 + 0.8j

    def residuals(site):
        inner1, inner2 = [site(k) for k in range(5, 7)], [site(k) for k in range(3, 9)]
        return (verify_schur_identity(m, omega, g, inner1, z),
                verify_two_step_schur(m, omega, g, inner1, inner2, z),
                *verify_resolvent_identities(m, omega, g, inner1, z),
                schur_B(m, omega, g, inner1, z).tobytes())

    got = residuals(as_given)
    assert got == residuals(lambda k: (k,))
    assert max(got[:4]) < 1e-9


def test_resolvent_identities_trivial_and_random():
    m = make_model(d=1, lam=1.0, u_vals={(0,): 1.0, (1,): -1.0})
    g = chain(10)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=13)
    f0, s0 = verify_resolvent_identities(m, omega, g, g.sites, 0.5j)
    assert f0 < 1e-13 and s0 < 1e-13
    f1, s1 = verify_resolvent_identities(m, omega, g, [(k,) for k in range(4)], 0.2 + 0.4j)
    assert f1 < 1e-9 and s1 < 1e-9


def test_geometric_factorization_identity():
    # with the depletion cut at x+n, G(x,y) factorizes exactly through the cut:
    # G_region(x, y) = G_region(x, x+n-1) * G_right(x+n, y)
    n = 2
    m = make_model(d=1, lam=5.0, u_vals={(0,): 1.0, (1,): -0.5})
    g = chain(14)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=14)
    z = 0.1 + 0.6j
    H = assemble_hamiltonian(m, omega, g)
    G = green(H, z)
    x, y = (0,), (9,)
    right = g.subset([(k,) for k in range(n, 14)])
    H_right = assemble_hamiltonian(m, omega, right)
    G_right = green(H_right, z)
    lhs = G.at(x, y)
    rhs = G.at(x, (n - 1,)) * G_right.at((n,), y)
    assert abs(lhs - rhs) < 1e-12


def test_annulus_1d_enumeration():
    u = SingleSitePotential.delta(1)
    g = explicit_geometry([(k,) for k in range(-10, 11)])
    ann = annulus(g, (0,), 2, u)
    assert ann.B_x == frozenset({(-2,), (2,)})
    assert ann.hat_W_x == frozenset({(-2,), (2,)})
    assert ann.W_x == frozenset({(-3,), (-2,), (-1,), (1,), (2,), (3,)})
    assert (0,) not in ann.W_x


def test_annulus_2d_shell():
    u = SingleSitePotential.delta(2)
    g = build_box(8, (0, 0))
    ann = annulus(g, (0, 0), 2, u)
    assert len(ann.hat_W_x) == 16  # the perimeter of the 5x5 box
    assert len(ann.B_x) == 16


def test_annulus_requires_large_L():
    u = SingleSitePotential.from_values({(0,): 1.0, (3,): 1.0})
    g = explicit_geometry([(k,) for k in range(-9, 10)])
    with pytest.raises(ValueError):
        annulus(g, (0,), 4, u)  # diam 3 needs L >= 5


def test_annulus_separation_flood_fill():
    u = SingleSitePotential.delta(2)
    g = build_box(8, (0, 0))
    ann = annulus(g, (0, 0), 3, u)
    assert separates(g, ann, (8, 8))
    comps = connected_components(g.site_set() - ann.W_x)
    assert len(comps) >= 2


def test_annulus_disconnected_support_separates():
    # two-component profile: a block around 0 plus a far block, as in the
    # half-plane picture; the annulus still cuts x off from far sites
    theta = {(0, 0): 1.0}
    for a in range(4, 7):
        for b in range(4, 7):
            theta[(a, b)] = 1.0
    u = SingleSitePotential.from_values(theta)
    diam = u.diameter_linf()
    L = diam + 2
    half = [(a, b) for a in range(0, 26) for b in range(-12, 13)]
    g = explicit_geometry(half)
    ann = annulus(g, (0, 0), L, u)
    assert (0, 0) not in ann.W_x
    assert separates(g, ann, (25, 0))


def test_geometric_factorization_right_edge():
    # with the region starting at x and the cut at y-n, the crossing bond is
    # unique and G_region(x, y) = G_left(x, y-n) * G_region(y-n+1, y) exactly
    n = 2
    m = make_model(d=1, lam=4.0, u_vals={(0,): 1.0, (1,): -0.5})
    g = chain(15)  # the region {0..14} starts at x = 0
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=15)
    z = -0.2 + 0.7j
    H = assemble_hamiltonian(m, omega, g)
    G = green(H, z)
    x, y = (0,), (9,)
    left = g.subset([(k,) for k in range(0, y[0] - n + 1)])
    H_left = assemble_hamiltonian(m, omega, left)
    G_left = green(H_left, z)
    lhs = G.at(x, y)
    rhs = G_left.at(x, (y[0] - n,)) * G.at((y[0] - n + 1,), y)
    assert abs(lhs - rhs) < 1e-12


def test_identity_checks_slice_one_hamiltonian(monkeypatch):
    # the package re-exports the function green, which shadows the module name
    green_module = importlib.import_module("alloylab.green")
    assemble = green_module.assemble_hamiltonian
    calls = []
    monkeypatch.setattr(green_module, "assemble_hamiltonian", lambda *args: calls.append(1) or assemble(*args))
    m = make_model(d=1, lam=2.0, u_vals={(0,): 1.0, (1,): -0.5})
    g = chain(12)
    omega = sample_configuration(m, lambda_plus(g, m.potential), seed=10)
    inner1, inner2, z = [(5,), (6,)], [(k,) for k in range(3, 10)], 0.25 + 0.7j

    def assemblies(check, *args):
        calls.clear()
        check(m, omega, g, *args, z)
        return len(calls)

    assert assemblies(verify_two_step_schur, inner1, inner2) == 1
    assert assemblies(verify_resolvent_identities, inner1) == 1
    # full H, H on the inner region and the H that schur_B slices
    assert assemblies(verify_schur_identity, inner1) == 3
