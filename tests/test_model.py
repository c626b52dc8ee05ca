"""Geometry, potentials, densities, configurations and assembly."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from alloylab.model import (
    BoxGeometry,
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    assemble_hamiltonian,
    _chain_values,
    build_box,
    explicit_geometry,
    exterior_boundary,
    interior_boundary,
    lambda_plus,
    load_model_config,
    sample_configuration,
)

from oracles import potential_value


def uniform01():
    return DisorderDensity("uniform", (0, 1))


def test_build_box_single_point():
    g = build_box(0, (0,))
    assert g.sites == ((0,),)


def test_build_box_1d():
    g = build_box(1, (0,))
    assert g.sites == ((-1,), (0,), (1,))
    assert g == explicit_geometry(g.sites)  # a box is equal to the geometry on its sites


def test_build_box_2d_cardinality():
    g = build_box(2, (1, 1))
    assert len(g) == 25
    assert all(max(abs(a - 1), abs(b - 1)) <= 2 for a, b in g.sites)


def test_box_index_roundtrip():
    g = build_box(2, (0, 0))
    for i, s in enumerate(g.sites):
        assert g.index_of(s) == i


def test_geometry_rejects_duplicates():
    for sites in [((0,), (0,)), ((0, 0), (1, 0), (0, 1), (1, 0))]:
        with pytest.raises(ValueError, match="^duplicate sites in geometry$"):
            BoxGeometry(sites)


@pytest.mark.parametrize("build, message", [
    (lambda: BoxGeometry(()), "geometry must contain at least one site"),
    (lambda: BoxGeometry(((0,), (0, 1))), "all sites must share one dimension"),
    (lambda: build_box(-1), "L must be >= 0"),
    (lambda: exterior_boundary([]), "empty site set"),
    (lambda: SingleSitePotential({(0,): 1.0}, tail_amplitude=1.0, truncation_radius=2),
     "tail_rate must be positive and finite"),
    (lambda: ModelConfig(2, 1.0, SingleSitePotential.delta(1), uniform01()),
     "potential dimension does not match the model"),
    (lambda: SingleSitePotential({(0,): 1.0, (0, 0): 1.0}), "all stored sites must share one dimension"),
    (lambda: ModelConfig(1, math.nan, SingleSitePotential.delta(1), uniform01()), "coupling must be finite and real"),
], ids=["geometry-empty", "geometry-mixed-dimension", "box-negative-radius", "exterior-boundary-empty",
        "tail-without-rate", "model-dimension-mismatch", "potential-mixed-dimension", "model-nan-coupling"])
def test_constructor_contracts_no_config_reaches(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_interior_boundary_1d():
    assert interior_boundary([(-1,), (0,), (1,)]) == {(-1,), (1,)}
    assert exterior_boundary([(-1,), (0,), (1,)]) == {(-2,), (2,)}


def test_interior_boundary_singleton():
    # a single site has zero in-set neighbors, fewer than 2d
    assert interior_boundary([(0,)]) == {(0,)}


def test_boundaries_2d_box():
    g = build_box(1, (0, 0))
    inner = interior_boundary(g)
    outer = exterior_boundary(g)
    assert len(inner) == 8 and (0, 0) not in inner
    assert len(outer) == 12
    assert not (outer & set(g.sites))
    # every exterior-boundary site touches the box
    for s in outer:
        assert any(sum(abs(a - b) for a, b in zip(s, t)) == 1 for t in g.sites)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        interior_boundary([])


def test_lambda_plus_delta():
    u = SingleSitePotential.delta(1)
    g = build_box(3, (0,))
    assert lambda_plus(g, u) == set(g.sites)


def test_lambda_plus_two_site():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    g = explicit_geometry([(k,) for k in range(6)])
    assert lambda_plus(g, u) == {(k,) for k in range(-1, 6)}


def test_lambda_plus_truncated_tail():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=3)
    assert lambda_plus(explicit_geometry([(0,)]), u) == {(k,) for k in range(-3, 4)}


def test_potential_value_zero_config():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    omega = {(-1,): 0.0, (0,): 0.0}
    assert potential_value(u, omega, (0,)) == 0.0


def test_potential_value_delta():
    u = SingleSitePotential.delta(1)
    omega = {(4,): 2.5}
    assert potential_value(u, omega, (4,)) == 2.5


def test_potential_value_hand_sum():
    # V(0) = omega_0 u(0) + omega_{-1} u(1) = 3*1 + 2*(-1) = 1
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    omega = {(-1,): 2.0, (0,): 3.0}
    assert potential_value(u, omega, (0,)) == pytest.approx(1.0, abs=1e-15)


def test_potential_value_missing_site():
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -1.0})
    omega = {(0,): 3.0}
    with pytest.raises(KeyError, match=r"\(-1,\)"):
        potential_value(u, omega, (0,))
    with pytest.raises(KeyError, match=r"\(-1,\)"):  # the assembly names the missing site too
        assemble_hamiltonian(ModelConfig(1, 1.0, u, uniform01()), omega, explicit_geometry([(0,)]))


def test_potential_linearity_random():
    rng = np.random.default_rng(5)
    u_vals = {(k,): float(v) for k, v in zip(range(-1, 2), rng.normal(size=3)) if v != 0}
    u = SingleSitePotential.from_values(u_vals)
    sites = [(k,) for k in range(-4, 5)]
    w1 = {s: float(v) for s, v in zip(sites, rng.normal(size=9))}
    w2 = {s: float(v) for s, v in zip(sites, rng.normal(size=9))}
    combo = {s: 2.0 * w1[s] + 3.0 * w2[s] for s in sites}
    got = potential_value(u, combo, (0,))
    want = 2.0 * potential_value(u, w1, (0,)) + 3.0 * potential_value(u, w2, (0,))
    assert got == pytest.approx(want, abs=1e-12)
    # linearity in the profile as well
    v_vals = {(0,): 0.4, (2,): -1.1}
    v = SingleSitePotential.from_values(v_vals)
    sum_vals = dict(v_vals)
    for k, val in u_vals.items():
        sum_vals[k] = sum_vals.get(k, 0.0) + val
    uv = SingleSitePotential.from_values(sum_vals)
    cfg = w1
    assert potential_value(uv, cfg, (0,)) == pytest.approx(
        potential_value(u, cfg, (0,)) + potential_value(v, cfg, (0,)), abs=1e-12)


def test_assemble_path_lambda_zero():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 0.0, u, uniform01())
    g = explicit_geometry([(0,), (1,)])
    omega = sample_configuration(m, lambda_plus(g, u), seed=0)
    H = assemble_hamiltonian(m, omega, g)
    assert np.allclose(H, [[0, -1], [-1, 0]])
    ev = np.linalg.eigvalsh(H)
    assert np.allclose(ev, [-1.0, 1.0], atol=1e-12)


def test_assemble_single_site():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 2.0, u, uniform01())
    g = explicit_geometry([(0,)])
    H = assemble_hamiltonian(m, {(0,): 1.5}, g)
    assert H.shape == (1, 1) and H[0, 0] == 3.0


def test_assemble_tridiagonal_display():
    # five-site chain with rank-one u: diagonal lambda*omega, off-diagonals -1
    u = SingleSitePotential.delta(1)
    lam = 1.7
    m = ModelConfig(1, lam, u, uniform01())
    g = explicit_geometry([(k,) for k in range(-2, 3)])
    omega = sample_configuration(m, lambda_plus(g, u), seed=11)
    H = assemble_hamiltonian(m, omega, g)
    for i, s in enumerate(g.sites):
        assert H[i, i] == pytest.approx(lam * omega[s], abs=1e-15)
    off = H - np.diag(np.diag(H))
    want = np.zeros_like(off)
    for i in range(4):
        want[i, i + 1] = want[i + 1, i] = -1.0
    assert np.array_equal(off, want)


def test_assemble_symmetry_and_bond_count_2d():
    u = SingleSitePotential.delta(2)
    m = ModelConfig(2, 1.0, u, uniform01())
    g = build_box(2, (0, 0))
    omega = sample_configuration(m, lambda_plus(g, u), seed=2)
    H = assemble_hamiltonian(m, omega, g)
    assert np.array_equal(H, H.T)
    pairs = sum(1 for a in g.sites for b in g.sites
                if sum(abs(x - y) for x, y in zip(a, b)) == 1)
    assert int(np.sum(H == -1.0)) == pairs  # pairs counts both orientations


def test_path_spectrum_formula():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 0.0, u, uniform01())
    for n in (2, 3, 7, 20):
        g = explicit_geometry([(k,) for k in range(n)])
        omega = sample_configuration(m, lambda_plus(g, u), seed=1)
        ev = np.linalg.eigvalsh(assemble_hamiltonian(m, omega, g))
        want = np.sort([-2 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)])
        assert np.max(np.abs(ev - want)) < 1e-10


def test_sampling_deterministic():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1.0, u, uniform01())
    sites = [(k,) for k in range(5)]
    c1 = sample_configuration(m, sites, seed=42)
    c2 = sample_configuration(m, sites, seed=42)
    assert c1 == c2


def test_sampling_pure_per_site():
    # value at a shared site is identical no matter which set it was drawn in
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1.0, u, uniform01())
    c1 = sample_configuration(m, [(0,), (1,)], seed=9)
    c2 = sample_configuration(m, [(1,), (2,), (7,)], seed=9)
    assert c1[(1,)] == c2[(1,)]
    assert c1[(0,)] != c2[(2,)]


def test_sampling_law_of_large_numbers():
    u = SingleSitePotential.delta(1)
    m = ModelConfig(1, 1.0, u, uniform01())
    sites = [(k,) for k in range(100000)]
    cfg = sample_configuration(m, sites, seed=123)
    mean = np.mean(list(cfg.values()))
    assert abs(mean - 0.5) < 0.01


def test_density_mass_and_norms():
    for dens in (uniform01(), DisorderDensity("raised_cosine", (0, 1)),
                  DisorderDensity("piecewise_linear", [(0, 0), (0.5, 2), (1, 0)])):
        mass, _ = quad(dens.pdf, dens.a, dens.b, points=dens.breakpoints or None, limit=200)
        assert abs(mass - 1.0) < 1e-10
        assert dens.support_radius == 1.0


def test_raised_cosine_derivative_norm():
    d = DisorderDensity("raised_cosine", (0, 1))
    assert d.deriv_l1 == pytest.approx(4.0, abs=1e-10)
    assert d.linf == pytest.approx(2.0, abs=1e-12)
    d2 = DisorderDensity("raised_cosine", (-1, 1))
    assert d2.deriv_l1 == pytest.approx(2.0, abs=1e-10)


def test_raised_cosine_deriv_matches_quadrature():
    # |rho'| integral by quadrature against the closed form
    from scipy.integrate import quad
    val, _ = quad(lambda t: abs(2 * math.pi * math.sin(2 * math.pi * t)), 0, 1, limit=200)
    assert val == pytest.approx(4.0, abs=1e-9)


def test_discrete_density_rejected():
    with pytest.raises(ValueError):
        DisorderDensity("discrete", [(0, 0.5), (1, 0.5)])


def test_density_sampler_matches_cdf():
    d = DisorderDensity("raised_cosine", (0, 1))
    rng = np.random.default_rng(0)
    draws = d.sample(rng.random(20000))
    # Kolmogorov-style spot check at a few quantiles
    for q in (0.25, 0.5, 0.75):
        want = d.quantile(q)
        got = np.quantile(draws, q)
        assert abs(float(want) - got) < 0.02


def test_piecewise_linear_norms():
    # the triangle (0,0)-(0.5,2)-(1,0) already has unit mass, so no rescale
    d = DisorderDensity("piecewise_linear", [(0, 0), (0.5, 2), (1, 0)])
    assert d.linf == pytest.approx(2.0, abs=1e-12)
    assert d.deriv_l1 == pytest.approx(4.0, abs=1e-12)
    assert d.total_variation == pytest.approx(4.0, abs=1e-12)
    # an unnormalized copy rescales to the same density
    d2 = DisorderDensity("piecewise_linear", [(0, 0), (0.5, 4), (1, 0)])
    assert d2.linf == pytest.approx(2.0, abs=1e-12)


def test_tail_potential_envelope_enforced():
    with pytest.raises(ValueError):
        SingleSitePotential({(0,): 5.0}, tail_amplitude=1.0, tail_rate=1.0, truncation_radius=3)


@pytest.mark.parametrize("u, message", [
    (SingleSitePotential.delta(2), "one-dimensional potentials only"),
    (SingleSitePotential.from_values({(-1,): 1.0, (0,): 1.0}), "min supp = 0"),
], ids=["d=2", "min-supp=-1"])
def test_chain_values_contract(u, message):
    with pytest.raises(ValueError, match=message):
        _chain_values(u)


@pytest.mark.parametrize("sign", [2, 0, -3])
def test_tail_sign_must_be_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match=f"tail sign must be 1 or -1, got {sign}"):
        SingleSitePotential.exponential(rate=1.0, truncation_radius=3, sign=sign)


def test_tail_dimension_comes_from_the_stored_sites_even_when_their_values_are_zero():
    u = SingleSitePotential({(1, 1): 0.0, (2, 2): 0.0}, tail_amplitude=1.0, tail_rate=1.0, truncation_radius=1)
    assert u.dimension == 2
    assert u.support() == ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
    assert u != SingleSitePotential({(2,): 0.0}, tail_amplitude=1.0, tail_rate=1.0, truncation_radius=1)
    with pytest.raises(ValueError, match="a tail needs at least one stored site to fix the dimension"):
        SingleSitePotential({}, tail_amplitude=1.0, tail_rate=1.0, truncation_radius=1)


def test_a_stored_zero_reads_zero_next_to_a_tail():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.0}, tail_amplitude=1, tail_rate=1, truncation_radius=2)
    assert u.value((1,)) == 0.0
    assert u.value((-1,)) == math.exp(-1)  # a site with no stored entry takes the tail
    assert u.support() == ((-2,), (-1,), (0,), (2,))
    with pytest.raises(ValueError, match="u must satisfy 0 in supp u"):
        SingleSitePotential({(0,): 0.0}, tail_amplitude=1.0, tail_rate=1.0, truncation_radius=1)


def test_value_table_is_not_a_field():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=2, sign=-1)
    assert u == SingleSitePotential.exponential(rate=1.0, truncation_radius=2, sign=-1)
    assert "_table" not in repr(u)


def test_tail_l1_error_bound():
    u = SingleSitePotential.exponential(rate=1.0, truncation_radius=10)
    # d=1 exact tail mass: 2 sum_{m>10} e^{-m}
    exact = 2 * sum(math.exp(-m) for m in range(11, 200))
    assert u.tail_l1_error() == pytest.approx(exact, rel=1e-10)


def test_config_loader_roundtrip(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(
        '{"dimension": 1, "lambda": 2.5,'
        ' "potential": {"support": [[[0], 1.0], [[1], -0.5]]},'
        ' "density": {"kind": "uniform", "params": [0, 1]}, "seed": 4}'
    )
    model, seed = load_model_config(cfg)
    assert model.coupling == 2.5 and seed == 4
    assert model.potential.value((1,)) == -0.5


def _bench_configs():
    """Every config the benchmark reads: the files in bench/configs and the ones bench/workloads.py writes."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    cfgs = {p.name: json.loads(p.read_text()) for p in sorted((bench / "configs").glob("*.json"))}
    for workload in workloads.WORKLOADS:
        for seed in (1, 3):
            cfgs.update({f"{workload}/{seed}/{name}": cfg for name, cfg in workloads.configs(workload, seed).items()})
    return cfgs


@pytest.mark.parametrize("name, cfg", _bench_configs().items())
def test_config_loader_reads_every_bench_config_as_written(tmp_path, name, cfg):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    model, seed = load_model_config(path)
    assert (model.dimension, model.coupling, seed) == (cfg["dimension"], cfg["lambda"], cfg.get("seed"))
    assert type(model.coupling) is float
    u, tail = model.potential, cfg["potential"].get("tail")
    stored = {tuple(site): float(v) for site, v in cfg["potential"]["support"]}
    assert u.support_values == (stored or {(0,) * model.dimension: tail["C"]})
    if tail is not None:
        assert (u.tail_amplitude, u.tail_rate, u.truncation_radius, u.tail_sign) == (
            tail["C"], tail["alpha"], tail["radius"], tail.get("sign", 1))
    dens = cfg["density"]
    want = DisorderDensity(dens["kind"], dens["params"])
    assert (model.density.kind, model.density.a, model.density.b) == (want.kind, want.a, want.b)
    assert model.density.breakpoints == want.breakpoints


def test_config_loader_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text('{"dimension": 1, "lambda": 1, "potential": {"support": [[[0], 1]]},'
                   ' "density": {"kind": "uniform", "params": [0, 1]}, "bogus": 1}')
    with pytest.raises(ValueError, match="unknown config keys"):
        load_model_config(cfg)


@pytest.mark.parametrize("section, message", [
    ({"potential": {"tail": {"C": 1.0, "alpha": 1.0, "radius": 0}}},
     "potential: truncation_radius must be >= 1 and an integer, got 0"),
    ({"density": {"kind": "uniform", "params": [1, 0]}},
     "density: params must be a finite interval a <= b, got (1.0, 0.0)"),
], ids=["potential", "density"])
def test_config_loader_names_the_section_of_a_range_error(tmp_path, section, message):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"dimension": 1, "lambda": 1, "potential": {"support": [[[0], 1]]},
                               "density": {"kind": "uniform", "params": [0, 1]}, **section}))
    with pytest.raises(ValueError) as err:
        load_model_config(cfg)
    assert str(err.value) == message


def test_config_loader_reports_line(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text('{"dimension": 1,\n "lambda": oops}')
    with pytest.raises(ValueError, match="line 2"):
        load_model_config(cfg)


def test_piecewise_sampler_matches_cdf():
    d = DisorderDensity("piecewise_linear", [(0, 0), (0.2, 1.0), (0.7, 2.0), (1, 0)])
    rng = np.random.default_rng(14)
    draws = d.sample(rng.random(20000))
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert abs(float(d.quantile(q)) - np.quantile(draws, q)) < 0.02
    # quantile really inverts the cdf
    for q in (0.05, 0.35, 0.65, 0.95):
        assert float(d.cdf(d.quantile(q))) == pytest.approx(q, abs=1e-10)


def test_importing_the_model_loads_only_what_it_uses():
    # callers import the modules, so the package loads none of the checks; a fresh interpreter, since pytest has them
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    child = "import sys, alloylab.model; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'alloylab'))"
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["alloylab", "alloylab.green", "alloylab.model", "alloylab.rng"]
