"""Per-layer metrics of a traced run, named ``module.function.kind``.

``calls``, ``self_s`` and ``total_s`` come from the spans; the other kinds are
counters recorded at the same boundaries (see ``layertrace.COUNTERS``).
Counts repeat exactly for a given workload and seed; flops are computed from
matrix sizes, not measured.  BENCHMARK.json lists the same names.
"""

from __future__ import annotations

from layertrace import count_descendants, span_table

LAYER_METRICS = [
    # density transform (sampling)
    "model.DisorderDensity.sample.calls",
    "model.DisorderDensity.sample.draws",
    "model.DisorderDensity.sample.self_s",
    "model.DisorderDensity.quantile.self_s",
    "model.DisorderDensity.quantile.total_s",
    "model.DisorderDensity.cdf.self_s",
    "model.DisorderDensity.cdf.evals",
    "model.DisorderDensity.cdf.evals_per_draw",
    # trial engine: assembly, linear algebra, reduction
    "moments.DisorderSampler.green_column.calls",
    "moments.DisorderSampler.green_column.self_s",
    "moments.DisorderSampler.green_column.flops",
    "moments.DisorderSampler.hamiltonian.self_s",
    "moments.DisorderSampler.omega.self_s",
    "moments.run_trials.trials",
    "moments.run_trials.self_s",
    "moments.run_trials.total_s",
    "moments.estimate_moment.total_s",
    "moments.decay_profile.total_s",
    "moments.finite_volume_sum.total_s",
    # stream derivation
    "rng.trial_stream.calls",
    "rng.trial_stream.self_s",
    # sampler set-up and closed-form constants
    "moments.DisorderSampler.__init__.calls",
    "moments.DisorderSampler.__init__.self_s",
    "moments.gap_constants.self_s",
    "moments.one_d_constants.self_s",
    "moments.nonlocal_apriori_bound.self_s",
    "spectra.wegner_mc.total_s",
    "spectra.wegner_mc.self_s",
    # site-keyed disorder and assembly
    "rng.site_stream.calls",
    "rng.site_stream.self_s",
    "model.sample_configuration.calls",
    "model.sample_configuration.self_s",
    "model.assemble_hamiltonian.calls",
    "model.assemble_hamiltonian.self_s",
    "model.potential_value.calls",
    "model.adjacency_matrix.calls",
    "model.adjacency_matrix.self_s",
    # exact identities
    "green.verify_schur_identity.total_s",
    "green.verify_two_step_schur.total_s",
    "green.verify_resolvent_identities.total_s",
    "green.schur_B.self_s",
    "green.green.self_s",
    "green.depleted.self_s",
    "green.assemblies_per_instance",
    "spectra.pair_regularity_probability.total_s",
    "spectra.pair_regularity_probability.self_s",
    "spectra.eigenvalues.self_s",
    # quadrature
    "averaging.graf_check.calls",
    "averaging.graf_check.self_s",
    "averaging.det_average_check.calls",
    "averaging.det_average_check.self_s",
    "averaging.resolvent_average_check.calls",
    "averaging.resolvent_average_check.self_s",
    "averaging.detgen_check.calls",
    "averaging.detgen_check.self_s",
    "model.DisorderDensity.pdf.calls",
    "model.DisorderDensity.pdf.self_s",
    # closed-form and rejection-sampled checks
    "poscomb.find_I0.self_s",
    "poscomb.wegner_coefficients.self_s",
    "poscomb.prop2_min.self_s",
    "gaussian.negexample_check.self_s",
    "gaussian.negexample_check.accept_ratio",
    # runner I/O
    "cli.Output.write.self_s",
    "cli.Output.write.bytes",
    "model.load_model_config.self_s",
    # the tracing itself
    "trace.untraced_s",
    "trace.overhead_s",
    "trace.spans",
]

UNITS = {
    "calls": "count", "draws": "count", "evals": "count", "trials": "count", "spans": "count",
    "bytes": "bytes", "flops": "flop_computed",
    "self_s": "s", "total_s": "s", "untraced_s": "s", "overhead_s": "s",
    "evals_per_draw": "ratio", "assemblies_per_instance": "ratio", "accept_ratio": "ratio",
}


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def better(name: str) -> str:
    return "higher" if name.endswith("accept_ratio") else "lower"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tracer, untraced_s: float, traced_s: float) -> dict:
    """Every metric of LAYER_METRICS as {"value", "unit"}."""
    table = span_table(tracer.spans)
    counts = tracer.counts
    derived = {
        "model.DisorderDensity.cdf.evals_per_draw":
            _ratio(counts.get("model.DisorderDensity.cdf.evals", 0),
                   counts.get("model.DisorderDensity.sample.draws", 0)),
        # the verify_* functions assemble H per call; one instance runs all three
        "green.assemblies_per_instance":
            _ratio(count_descendants(tracer.spans, "model.assemble_hamiltonian", "green.verify_"),
                   table.get("green.verify_schur_identity", {}).get("calls", 0)),
        "gaussian.negexample_check.accept_ratio":
            _ratio(counts.get("gaussian.negexample_check.accepted", 0),
                   counts.get("gaussian.negexample_check.proposals", 0)),
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
    }
    out = {}
    for name in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        else:
            span, kind = name.rsplit(".", 1)
            if kind in ("calls", "self_s", "total_s"):
                value = table.get(span, {}).get(kind, 0)
            else:
                value = counts.get(name, 0)
        whole = unit(name) in ("count", "bytes")
        out[name] = {"value": int(value) if whole else float(value), "unit": unit(name)}
    return out
