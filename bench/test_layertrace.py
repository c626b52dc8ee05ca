"""Self-tests of the benchmark's tracer: known span counts, parents and restoration."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import alloylab.cli  # noqa: F401  (loads every alloylab module)
from alloylab.model import (
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    build_box,
    explicit_geometry,
    lambda_plus,
    sample_configuration,
)

import layer_metrics
from layertrace import Tracer, count_descendants, span_table, union_length

# name -> namespaces that import it by name; each binding must be traced
BOUND_BY_NAME = {
    "trial_stream": ("moments", "averaging", "gaussian", "cli"),
    "site_stream": ("model",),
    "assemble_hamiltonian": ("green", "spectra"),
    "sample_configuration": ("spectra", "cli"),
    "run_trials": ("spectra",),
}


# traced functions are called through their module: a name imported into this
# test module is not an alloylab namespace, so the tracer leaves it alone
def _mod(short):
    return sys.modules["alloylab." + short]


def _chain_model(density="uniform"):
    u = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
    return ModelConfig(1, 5.0, u, DisorderDensity(density, (0, 1)))


def _by_name(spans, name):
    return [s for s in spans if s[3] == name]


def test_estimate_moment_spans_one_stream_and_solve_per_trial():
    trials = 7
    model = _chain_model("raised_cosine")
    geometry = explicit_geometry([(k,) for k in range(8)])
    with Tracer() as tracer:
        with tracer.job(0, "moments"):
            _mod("moments").estimate_moment(model, geometry, 0.5j, 0.3, (0,), (5,), trials, seed=3, threads=2)
    spans = tracer.spans
    assert len(_by_name(spans, "rng.trial_stream")) == trials
    solves = _by_name(spans, "moments.DisorderSampler.green_column")
    assert len(solves) == trials
    # pool-thread spans hang under the run_trials span that submitted them
    (pool,) = _by_name(spans, "moments.run_trials")
    assert {s[1] for s in solves} == {pool[0]}
    assert {s[2] for s in spans} == {0}
    assert tracer.counts["moments.run_trials.trials"] == trials
    assert tracer.counts["model.DisorderDensity.cdf.evals"] == 64 * tracer.counts["model.DisorderDensity.sample.draws"]


def test_schur_identity_assembles_three_hamiltonians():
    model = _chain_model()
    geometry = explicit_geometry([(k,) for k in range(12)])
    omega = sample_configuration(model, lambda_plus(geometry, model.potential), seed=1)
    inner = [(k,) for k in range(4, 8)]
    with Tracer() as tracer:
        _mod("green").verify_schur_identity(model, omega, geometry, inner, 0.3 + 0.5j)
    assert len(_by_name(tracer.spans, "model.assemble_hamiltonian")) == 3
    assert count_descendants(tracer.spans, "model.assemble_hamiltonian", "green.verify_") == 3


def test_sample_configuration_draws_one_site_stream_per_site():
    model = _chain_model()
    sites = build_box(4, (0,)).sites
    with Tracer() as tracer:
        _mod("model").sample_configuration(model, sites, seed=2)
    assert len(_by_name(tracer.spans, "rng.site_stream")) == len(sites)
    assert len(_by_name(tracer.spans, "model.sample_configuration")) == 1


def test_every_binding_is_patched_and_restored():
    originals = {(ns, name): getattr(_mod(ns), name)
                 for name, namespaces in BOUND_BY_NAME.items() for ns in namespaces}
    green_fn = sys.modules["alloylab"].green
    sample = _mod("model").DisorderDensity.sample
    with Tracer():
        for (ns, name), orig in originals.items():
            assert getattr(_mod(ns), name).__wrapped__ is orig, (ns, name)
        # the package re-exports the function green, which shadows the module
        assert sys.modules["alloylab"].green.__wrapped__ is green_fn
        assert _mod("model").DisorderDensity.sample.__wrapped__ is sample
        assert issubclass(_mod("moments").ThreadPoolExecutor, ThreadPoolExecutor)
        assert _mod("moments").ThreadPoolExecutor is not ThreadPoolExecutor
    for (ns, name), orig in originals.items():
        assert getattr(_mod(ns), name) is orig, (ns, name)
    assert sys.modules["alloylab"].green is green_fn
    assert _mod("model").DisorderDensity.sample is sample
    assert _mod("moments").ThreadPoolExecutor is ThreadPoolExecutor


def test_self_time_subtracts_the_union_of_concurrent_children():
    assert union_length([(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    spans = [(1, None, 0, "parent", 0.0, 10.0),
             (2, 1, 0, "child", 1.0, 4.0),
             (3, 1, 0, "child", 2.0, 6.0)]
    table = span_table(spans)
    assert table["parent"]["self_s"] == 5.0
    assert table["child"] == {"calls": 2, "total_s": 7.0, "self_s": 7.0}


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(n, layer_metrics.unit(n), layer_metrics.better(n))
                      for n in layer_metrics.LAYER_METRICS]
