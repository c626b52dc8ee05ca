"""The argument contract of the public entry points: every bad argument raises ValueError before any work.

Each row of the matrix names a public function, one of its arguments, and the bad values it is
called with: NaN, +-inf, the value on the boundary of the argument's domain, or a value of the
wrong shape.  Every call must raise a ValueError that names the argument.  While a row runs, trial
streams, quadratures and banded solves refuse to start, so a check that comes after any of them
fails the row.  The rows are written out here, not read from ``model._DOMAINS``: a domain missing
from the table, or a check deleted from a function, must show as a failing row.
"""

import importlib
import inspect
import math
import re

import numpy as np
import pytest

from alloylab import averaging, cli, gaussian, moments
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
from alloylab.green import schur_B, verify_resolvent_identities, verify_schur_identity, verify_two_step_schur
from alloylab.model import DisorderDensity, ModelConfig, SingleSitePotential, build_box, explicit_geometry
from alloylab.moments import (
    DisorderSampler,
    decay_profile,
    estimate_moment,
    estimate_moments,
    finite_volume_sum,
    gap_constants,
    nonlocal_apriori_bound,
    one_d_constants,
    run_trials,
)
from alloylab.poscomb import compute_R_l, wegner_coefficients
from alloylab.rng import site_stream, trial_stream
from alloylab.spectra import pair_regularity_probability, wegner_mc

green = importlib.import_module("alloylab.green")  # the package attribute ``green`` is the function

NAN, INF = math.nan, math.inf
U01 = DisorderDensity("uniform", (0, 1))
RC01 = DisorderDensity("raised_cosine", (0, 1))
PAIR_U = SingleSitePotential.from_values({(0,): 1.0, (1,): -0.5})
GAPPED_U = SingleSitePotential.from_values({(0,): 1.0, (2,): -0.3})
PAIR = ModelConfig(1, 2.0, PAIR_U, U01)
GAPPED = ModelConfig(1, 30.0, GAPPED_U, RC01)  # decay_profile draws a gap-search key before its moments
FLAT = ModelConfig(1, 0.0, PAIR_U, U01)  # decay_profile takes no constants, which would check s, at lambda = 0
CHAIN = explicit_geometry([(k,) for k in range(6)])
OMEGA = {(k,): 0.5 for k in range(-1, 6)}  # lambda_plus of CHAIN for PAIR_U
INNER = [(2,), (3,)]
TWO = np.array([0.3, 0.4])  # one scalar argument given as two

# the bad values of each domain: non-finite, on the boundary, of the wrong shape
EXPONENT = [NAN, INF, -INF, 0.0, 1.0, TWO]
COUNT = [NAN, INF, 0, -1, 2.5, np.array([3, 4])]
OFF_AXIS = [complex(NAN, 1.0), complex(INF, 1.0), complex(0.5, -INF), 0.5, 0.5 + 0j, np.array([1j, 2j])]
FINITE = [NAN, INF, -INF]
COMPLEX = [complex(NAN, 1.0), complex(INF, 1.0), complex(0.5, -INF), complex(NAN, NAN)]
POSITIVE = [NAN, INF, 0.0, -1.0, TWO]
INTERVAL = [(NAN, 0.1), (-INF, 0.1), (-0.1, INF), (0.1, -0.1), (-1e308, 1e308), (0.1,), (-0.1, 0.0, 0.1)]
KEY = [NAN, INF, -INF, 3.5, -0.5, np.float64(3.9), "3", None]  # int() would take the finite floats and "3"
SITE = [(NAN,), (2.7,), (0.5,), (np.float64(1.0),), ("3",), (None,), 2.5, None]  # int() would truncate 2.7 to 2

# (function, argument, call of one bad value, bad values)
ROWS = [
    # averaging
    ("graf_check", "s", lambda v: graf_check(U01, v, 0.5 + 0.1j), EXPONENT),
    ("graf_check", "beta", lambda v: graf_check(U01, 0.5, v), COMPLEX),
    ("det_average_check", "s", lambda v: det_average_check(np.array([[-0.5]]), np.eye(1), U01, v), EXPONENT),
    ("det_average_check", "A", lambda v: det_average_check(np.array([[v]]), np.eye(1), U01, 0.5), FINITE),
    ("resolvent_average_check", "s",
     lambda v: resolvent_average_check(np.array([[-0.5]]), np.eye(1), U01, v), EXPONENT),
    ("resolvent_average_check", "V",
     lambda v: resolvent_average_check(np.array([[-0.5]]), np.array([[v]]), U01, 0.5), FINITE),
    ("detgen_check", "t", lambda v: detgen_check(np.eye(1), [np.eye(1)], [1.0], U01, v, trials=10), EXPONENT),
    ("detgen_check", "trials",
     lambda v: detgen_check(np.eye(1), [np.eye(1)], [1.0], U01, 0.5, trials=v), COUNT),
    ("detgen_check", "A",
     lambda v: detgen_check(np.array([[v]]), [np.eye(1)], [1.0], U01, 0.5, trials=10), FINITE),
    ("nonmonotone_average_check", "s",
     lambda v: nonmonotone_average_check(1j * np.eye(1), np.eye(1), RC01, v, 0, 0, -0.5j), EXPONENT),
    ("nonmonotone_average_check", "z",
     lambda v: nonmonotone_average_check(1j * np.eye(1), np.eye(1), RC01, 0.5, 0, 0, v),
     [complex(0.0, NAN), complex(NAN, -1.0), complex(INF, -1.0), complex(0.0, -INF), 0.0, 0.5j]),
    ("nonmonotone_average_check", "W",
     lambda v: nonmonotone_average_check(1j * np.eye(1), np.array([[v]]), RC01, 0.5, 0, 0, -0.5j), FINITE),
    # moments
    ("run_trials", "trials", lambda v: run_trials(float, v), COUNT),
    ("run_trials", "threads", lambda v: run_trials(float, 4, v), COUNT),
    ("run_trials", "stack", lambda v: run_trials(float, 4, 1, v), COUNT),
    ("DisorderSampler.omega", "trials", lambda v: DisorderSampler(PAIR, CHAIN).omega(1, v), COUNT),
    ("estimate_moments", "z",
     lambda v: estimate_moments(PAIR, CHAIN, v, 0.3, [((0,), (3,))], 10, 1), OFF_AXIS),
    ("estimate_moments", "s_exp",
     lambda v: estimate_moments(PAIR, CHAIN, 0.5j, v, [((0,), (3,))], 10, 1), EXPONENT),
    ("estimate_moments", "trials",
     lambda v: estimate_moments(PAIR, CHAIN, 0.5j, 0.3, [((0,), (3,))], v, 1), COUNT),
    ("estimate_moments(x)", "pairs",
     lambda v: estimate_moments(PAIR, CHAIN, 0.5j, 0.3, [(v, (3,))], 10, 1), SITE),
    ("estimate_moments(y)", "pairs",
     lambda v: estimate_moments(PAIR, CHAIN, 0.5j, 0.3, [((0,), v)], 10, 1), SITE),
    ("estimate_moment", "z", lambda v: estimate_moment(PAIR, CHAIN, v, 0.3, (0,), (3,), 10, 1), OFF_AXIS),
    ("estimate_moment", "s_exp", lambda v: estimate_moment(PAIR, CHAIN, 0.5j, v, (0,), (3,), 10, 1), EXPONENT),
    ("estimate_moment", "trials", lambda v: estimate_moment(PAIR, CHAIN, 0.5j, 0.3, (0,), (3,), v, 1), COUNT),
    ("estimate_moment", "threads",
     lambda v: estimate_moment(PAIR, CHAIN, 0.5j, 0.3, (0,), (3,), 10, 1, v), COUNT),
    ("decay_profile", "z", lambda v: decay_profile(GAPPED, 12, v, 0.5, 10, 1), OFF_AXIS),
    ("decay_profile", "s", lambda v: decay_profile(FLAT, 6, 0.5j, v, 10, 1), EXPONENT),
    ("decay_profile", "trials", lambda v: decay_profile(GAPPED, 12, 0.5j, 0.5, v, 1), COUNT),
    ("decay_profile", "box_sites", lambda v: decay_profile(PAIR, v, 0.5j, 0.5, 10, 1), COUNT),
    ("finite_volume_sum", "z",
     lambda v: finite_volume_sum(PAIR, build_box(10), (0,), v, 0.3, 3, 10, 1), OFF_AXIS),
    ("finite_volume_sum", "s",
     lambda v: finite_volume_sum(PAIR, build_box(10), (0,), 0.5j, v, 3, 10, 1), EXPONENT),
    ("finite_volume_sum", "trials",
     lambda v: finite_volume_sum(PAIR, build_box(10), (0,), 0.5j, 0.3, 3, v, 1), COUNT),
    ("finite_volume_sum", "L",
     lambda v: finite_volume_sum(PAIR, build_box(10), (0,), 0.5j, 0.3, v, 10, 1), [NAN, INF, 3.5]),
    ("finite_volume_sum", "x",
     lambda v: finite_volume_sum(PAIR, build_box(10), v, 0.5j, 0.3, 3, 10, 1), SITE),
    ("finite_volume_sum", "coupling",
     lambda v: finite_volume_sum(ModelConfig(1, v, PAIR_U, U01), build_box(10), (0,), 0.5j, 0.3, 3, 10, 1), [0.0]),
    ("one_d_constants", "s", lambda v: one_d_constants(PAIR_U, U01, 30.0, v), EXPONENT),
    ("one_d_constants", "coupling", lambda v: one_d_constants(PAIR_U, U01, v, 0.5), POSITIVE),
    ("gap_constants", "s", lambda v: gap_constants(GAPPED_U, U01, 30.0, v, search_samples=50), EXPONENT),
    ("gap_constants", "coupling", lambda v: gap_constants(GAPPED_U, U01, v, 0.5, search_samples=50), POSITIVE),
    ("gap_constants", "search_samples", lambda v: gap_constants(GAPPED_U, U01, 30.0, 0.5, search_samples=v), COUNT),
    ("nonlocal_apriori_bound", "s", lambda v: nonlocal_apriori_bound(PAIR_U, RC01, 10.0, v), EXPONENT),
    ("nonlocal_apriori_bound", "coupling", lambda v: nonlocal_apriori_bound(PAIR_U, RC01, v, 0.5), POSITIVE),
    # spectra
    ("wegner_mc", "interval", lambda v: wegner_mc(PAIR, 3, v, 10, 1), INTERVAL),
    ("wegner_mc", "trials", lambda v: wegner_mc(PAIR, 3, (-0.1, 0.1), v, 1), COUNT),
    ("wegner_mc", "threads", lambda v: wegner_mc(PAIR, 3, (-0.1, 0.1), 500, 1, v), COUNT),
    ("wegner_mc", "coupling", lambda v: wegner_mc(ModelConfig(1, v, PAIR_U, U01), 3, (-0.1, 0.1), 10, 1), [0.0]),
    ("wegner_mc", "l", lambda v: wegner_mc(PAIR, v, (-0.1, 0.1), 10, 1), [NAN, INF, -1, 2.5]),
    ("pair_regularity_probability", "interval",
     lambda v: pair_regularity_probability(PAIR, 2, (0,), (6,), v, 3, 0.1, 10, 1), INTERVAL),
    ("pair_regularity_probability", "trials",
     lambda v: pair_regularity_probability(PAIR, 2, (0,), (6,), (-1, 1), 3, 0.1, v, 1), COUNT),
    ("pair_regularity_probability", "threads",
     lambda v: pair_regularity_probability(PAIR, 2, (0,), (6,), (-1, 1), 3, 0.1, 200, 1, v), COUNT),
    ("pair_regularity_probability", "grid_points",
     lambda v: pair_regularity_probability(PAIR, 2, (0,), (6,), (-1, 1), v, 0.1, 10, 1), COUNT),
    ("pair_regularity_probability", "m",
     lambda v: pair_regularity_probability(PAIR, 2, (0,), (6,), (-1, 1), 3, v, 10, 1), FINITE),
    ("pair_regularity_probability", "x",
     lambda v: pair_regularity_probability(PAIR, 2, v, (6,), (-1, 1), 3, 0.1, 10, 1), SITE),
    ("pair_regularity_probability", "y",
     lambda v: pair_regularity_probability(PAIR, 2, (0,), v, (-1, 1), 3, 0.1, 10, 1), SITE),
    ("pair_regularity_probability", "L",
     lambda v: pair_regularity_probability(PAIR, v, (0,), (60,), (-1, 1), 3, 0.1, 10, 1), [NAN, 2.5]),
    # green
    ("green", "z", lambda v: green.green(np.eye(3), v), COMPLEX),
    ("schur_B", "z", lambda v: schur_B(PAIR, OMEGA, CHAIN, INNER, v), COMPLEX),
    ("verify_schur_identity", "z", lambda v: verify_schur_identity(PAIR, OMEGA, CHAIN, INNER, v), COMPLEX),
    ("verify_two_step_schur", "z",
     lambda v: verify_two_step_schur(PAIR, OMEGA, CHAIN, [(2,)], [(1,), (2,), (3,)], v), COMPLEX),
    ("verify_resolvent_identities", "z",
     lambda v: verify_resolvent_identities(PAIR, OMEGA, CHAIN, INNER, v), COMPLEX),
    # gaussian
    ("negexample_check", "delta", lambda v: negexample_check(PAIR_U, v, 0.05, 100), FINITE),
    ("negexample_check", "delta_prime", lambda v: negexample_check(PAIR_U, 0.05, v, 100), FINITE),
    ("negexample_check", "attempts", lambda v: negexample_check(PAIR_U, 0.05, 0.05, v), COUNT + [1]),
    ("gaussian_conditional", "sigma", lambda v: gaussian_conditional(0.5, v, 2, 1), FINITE),
    ("gaussian_conditional", "a", lambda v: gaussian_conditional(np.array([0.5, v]), 1.0, 2, 1), FINITE),
    ("gaussian_conditional", "l", lambda v: gaussian_conditional(0.5, 1.0, v, 1), COUNT),
    ("gaussian_conditional", "m", lambda v: gaussian_conditional(0.5, 1.0, 2, v), [NAN, INF, -1, 1.5]),
    ("conditional_oracle", "sigma", lambda v: conditional_oracle(0.5, np.array([1.0, v]), 2, 1), FINITE),
    ("s_l", "l", lambda v: s_l(0.5, v), [NAN, INF, -1, 1.5]),
    ("a_l_determinants", "l", lambda v: a_l_determinants(0.5, v), COUNT),
    # poscomb
    ("compute_R_l", "l", lambda v: compute_R_l(1.0, 1.0, 1.0, (0,), v, 1), [NAN, INF, -1, 1.5]),
    ("compute_R_l", "C", lambda v: compute_R_l(v, 1.0, 1.0, (0,), 1, 1), POSITIVE),
    ("compute_R_l", "alpha", lambda v: compute_R_l(1.0, v, 1.0, (0,), 1, 1), POSITIVE),
    ("wegner_coefficients", "l", lambda v: wegner_coefficients(PAIR_U, v), [NAN, -1, 1.5]),
    # rng: every key goes through operator.index
    ("trial_stream", "seed", lambda v: trial_stream(v, 0), KEY),
    ("trial_stream(trial=1)", "seed", lambda v: trial_stream(v, 1), KEY + [2 ** 63]),
    ("trial_stream(trial=2)", "seed", lambda v: trial_stream(v, 2), KEY + [2 ** 63]),  # trials 2 and up: a state block
    ("trial_stream", "trial", lambda v: trial_stream(3, v), KEY + [1.5, 2 ** 64, -1]),
    ("site_stream", "seed", lambda v: site_stream(v, (0,)), KEY),
    ("site_stream", "site", lambda v: site_stream(3, (0, v)), KEY),
    # model constructors
    ("build_box", "L", lambda v: build_box(v), [NAN, INF, -1, 1.5]),
    ("build_box", "center", lambda v: build_box(2, v), SITE),
    ("explicit_geometry", "sites", lambda v: explicit_geometry([(0,), v]), SITE),
    ("BoxGeometry.rows", "sites", lambda v: CHAIN.rows([(0,), v]), SITE),
    ("SingleSitePotential", "support_values", lambda v: SingleSitePotential({(0,): 1.0, v: 0.5}), SITE),
    ("SingleSitePotential", "support_values", lambda v: SingleSitePotential({(0,): 1.0, (1,): v}), FINITE),
    ("SingleSitePotential", "tail_amplitude",
     lambda v: SingleSitePotential({(0,): 1.0}, tail_amplitude=v, tail_rate=1.0, truncation_radius=3), POSITIVE),
    ("SingleSitePotential", "tail_rate",
     lambda v: SingleSitePotential.exponential(rate=v, truncation_radius=3), POSITIVE + [None]),
    ("SingleSitePotential", "truncation_radius",
     lambda v: SingleSitePotential.exponential(rate=1.0, truncation_radius=v), COUNT),
    ("DisorderDensity(uniform)", "params", lambda v: DisorderDensity("uniform", v),
     [(0.0, INF), (NAN, 1.0), (1.0, 0.0), (-1e308, 1e308)]),
    ("DisorderDensity(raised_cosine)", "params", lambda v: DisorderDensity("raised_cosine", v),
     [(-INF, 1.0), (0.0, NAN)]),
    ("DisorderDensity(piecewise_linear, value)", "knots",
     lambda v: DisorderDensity("piecewise_linear", [(0, 0), (0.5, v), (1, 0)]), FINITE),
    ("DisorderDensity(piecewise_linear, abscissa)", "knots",
     lambda v: DisorderDensity("piecewise_linear", [(0, 0), (v, 1), (1, 0)]), FINITE),
    ("DisorderDensity(piecewise_linear, span)", "knots",
     lambda v: DisorderDensity("piecewise_linear", [(v[0], 1.0), (v[1], 1.0)]), [(-1e308, 1e308)]),
    ("DisorderDensity(piecewise_linear, mass)", "knots",
     lambda v: DisorderDensity("piecewise_linear", [(0.0, v), (10.0, v)]), [0.0, 1e308]),
    ("ModelConfig", "coupling", lambda v: ModelConfig(1, v, PAIR_U, U01), FINITE),
    ("ModelConfig", "dimension", lambda v: ModelConfig(v, 1.0, PAIR_U, U01), [0, NAN, 1.0]),
]


def _label(value) -> str:
    if isinstance(value, np.ndarray):
        return f"array{list(value.shape)}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_label, value)) + ")"
    return repr(value)


CASES = [pytest.param(call, argument, value, id=f"{function}-{argument}-{_label(value)}")
         for function, argument, call, values in ROWS for value in values]


@pytest.fixture()
def no_work(monkeypatch):
    """Trial streams, quadratures and banded solves that raise AssertionError, not ValueError, if started."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for module in (moments, averaging, gaussian, cli):
        monkeypatch.setattr(module, "trial_stream", refuse)
    monkeypatch.setattr(averaging, "_quad", refuse)
    monkeypatch.setattr(DisorderSampler, "_gbsv", property(refuse))


@pytest.mark.parametrize("call, argument, value", CASES)
def test_a_bad_argument_raises_before_any_work(no_work, call, argument, value):
    with pytest.raises(ValueError, match=rf"(?<![\w.]){re.escape(argument)}(?![\w(])"):
        call(value)


_OUTSIDE = ("is outside the 64-bit range: seeds and site coordinates must lie in [-2**63, 2**63), "
            "trial indices in [0, 2**64)")


@pytest.mark.parametrize("seed, trial, why", [
    (2 ** 63, 1, _OUTSIDE), (2 ** 63, 2, _OUTSIDE), (None, 2, "must consist of integers"),
    (3, 2 ** 64, _OUTSIDE), (3, -1, _OUTSIDE), (3, 1.5, "must consist of integers"),
    (3, None, "must consist of integers")])
def test_a_refused_trial_key_gets_the_whole_message(seed, trial, why):
    with pytest.raises(ValueError) as refused:
        trial_stream(seed, trial)
    assert str(refused.value) == f"stream key (seed={seed!r}, trial={trial!r}) {why}"


# arguments with a generic domain: each one of a public function needs a row
_CONTRACT_ARGUMENTS = {"s", "z", "trials", "threads", "coupling", "interval", "sigma", "delta"}
_MODULES = ("averaging", "moments", "spectra", "green", "gaussian", "poscomb")


def test_every_contract_argument_of_a_public_function_has_a_row():
    covered = {(function, argument) for function, argument, _, _ in ROWS}
    missing = []
    for short in _MODULES:
        module = importlib.import_module("alloylab." + short)
        for name in module.__all__:
            function = getattr(module, name)
            if inspect.isfunction(function):
                missing += [(name, argument) for argument in inspect.signature(function).parameters
                            if argument in _CONTRACT_ARGUMENTS and (name, argument) not in covered]
    assert missing == []


def test_the_table_helper_is_private_everywhere():
    for short in _MODULES + ("model",):
        assert "_require" not in importlib.import_module("alloylab." + short).__all__
