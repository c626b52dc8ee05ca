"""End-to-end runs of the command-line experiment runner."""

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloylab import cli, moments
from alloylab import model as model_module
from alloylab.cli import run
from alloylab.model import _SCHEMA, DisorderDensity, build_box, explicit_geometry, load_model_config
from alloylab.rng import trial_stream


@pytest.fixture()
def model_cfg(tmp_path):
    cfg = {
        "dimension": 1,
        "lambda": 50.0,
        "potential": {"support": [[[0], 1.0], [[1], -0.5]]},
        "density": {"kind": "uniform", "params": [0, 1]},
        "seed": 7,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def exp_cfg(tmp_path):
    cfg = {
        "dimension": 1,
        "lambda": 1.0,
        "potential": {"support": [], "tail": {"C": 1.0, "alpha": 1.0, "radius": 12}},
        "density": {"kind": "uniform", "params": [0, 1]},
        "seed": 3,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


def test_spectrum_subcommand(model_cfg, tmp_path, capsys):
    out = tmp_path / "eig"
    code = run(["spectrum", "--config", str(model_cfg), "--box", "6", "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "eig.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 1 + 13
    summary = (tmp_path / "eig_summary.csv").read_text().splitlines()
    assert summary[0] == "check,value,bound,margin,pass"


def test_green_identities_subcommand(model_cfg, tmp_path):
    out = tmp_path / "gi"
    code = run(["green-identities", "--config", str(model_cfg), "--instances", "5",
                "--out", str(out)])
    assert code == 0
    rows = (tmp_path / "gi_summary.csv").read_text().splitlines()
    assert rows[-1].endswith("true")


def test_green_identity_instance_keys_do_not_collide_across_seeds(model_cfg, tmp_path, monkeypatch):
    # an additive key seed + i would give seed 7's instance 1 the key of seed 8's instance 0
    keys = []
    omega = moments.DisorderSampler.omega

    def recording(sampler, seed, trials):
        keys.append(seed)
        return omega(sampler, seed, trials)

    monkeypatch.setattr(moments.DisorderSampler, "omega", recording)
    runs = []
    for seed in (7, 8):
        keys.clear()
        assert run(["green-identities", "--config", str(model_cfg), "--instances", "3",
                    "--seed", str(seed), "--out", str(tmp_path / f"gi{seed}")]) == 0
        runs.append(set(keys))
    assert len(runs[0]) == len(runs[1]) == 3
    assert runs[0].isdisjoint(runs[1])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("command, flags, realisations", [("spectrum", ["--box", "3"], 1),
                                                           ("green-identities", ["--instances", "3"], 3)])
def test_one_trial_key_per_realisation_and_no_site_key(d, command, flags, realisations, tmp_path, monkeypatch):
    # each realisation's couplings are row 0 of one omega block: one trial_stream(key, 0), no per-site key
    cfg = {"dimension": d, "lambda": 5.0, "potential": {"support": [[[0] * d, 1.0], [[1] + [0] * (d - 1), -0.5]]},
           "density": {"kind": "raised_cosine", "params": [0, 1]}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    trials = []

    def recording(seed, trial):
        trials.append(trial)
        return trial_stream(seed, trial)

    def forbidden(*args):
        raise AssertionError(f"{command} must draw no site stream")

    monkeypatch.setattr(moments, "trial_stream", recording)
    monkeypatch.setattr(model_module, "site_stream", forbidden)
    assert run([command, "--config", str(path), "--seed", "5", "--out", str(tmp_path / "o"), *flags]) == 0
    assert trials == [0] * realisations


def test_decay_subcommand_and_determinism(model_cfg, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = ["decay", "--config", str(model_cfg), "--s", "0.5",
            "--trials", "300", "--box", "16", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    b1 = (tmp_path / "d1.csv").read_bytes()
    b2 = (tmp_path / "d2.csv").read_bytes()
    assert b1 == b2  # byte-identical rerun
    header = b1.decode().splitlines()[0]
    assert header == "distance,mean,stderr,bound,pass"


def test_decay_seed_changes_output(model_cfg, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    base = ["decay", "--config", str(model_cfg), "--trials", "50", "--box", "10"]
    assert run(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert run(base + ["--seed", "2", "--out", str(out2)]) == 0
    assert (tmp_path / "s1.csv").read_bytes() != (tmp_path / "s2.csv").read_bytes()


def test_poscomb_subcommand(exp_cfg, tmp_path, capsys):
    code = run(["poscomb", "--config", str(exp_cfg), "--l", "5", "--out", str(tmp_path / "pc")])
    assert code == 0
    text = capsys.readouterr().out
    assert "I0=" in text and "c_u=" in text and "prop2_min=" in text
    lines = (tmp_path / "pc.csv").read_text().splitlines()
    assert lines[0].startswith("l,I0,c_u,R,R_int")


def test_wegner_subcommand(exp_cfg, tmp_path):
    code = run(["wegner", "--config", str(exp_cfg), "--l", "5", "--trials", "300",
                "--out", str(tmp_path / "w")])
    assert code == 0
    summary = (tmp_path / "w_summary.csv").read_text()
    assert "eigenvalue-count-bound" in summary and "true" in summary


def test_averaging_subcommand(model_cfg, tmp_path):
    code = run(["averaging", "--config", str(model_cfg), "--instances", "8",
                "--out", str(tmp_path / "avg")])
    assert code == 0
    lines = (tmp_path / "avg.csv").read_text().splitlines()
    assert lines[0] == "instance,check,integral,bound,margin,error"
    assert len(lines) == 1 + 8 * 3


def test_conditional_subcommand(tmp_path):
    cfg = {
        "dimension": 1,
        "lambda": 1.0,
        "potential": {"support": [[[0], 1.0], [[1], -1.0]]},
        "density": {"kind": "uniform", "params": [0, 1]},
        "seed": 5,
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(cfg))
    code = run(["conditional", "--config", str(path), "--delta", "0.2",
                "--delta-prime", "0.2", "--attempts", "40000", "--out", str(tmp_path / "c")])
    assert code == 0
    summary = (tmp_path / "c_summary.csv").read_text()
    assert "conditional-variance-agreement" in summary
    assert "pinned-interval-violations" in summary


def test_apriori_subcommand(tmp_path):
    cfg = {
        "dimension": 1,
        "lambda": 10.0,
        "potential": {"support": [[[0], 1.0], [[1], -0.25]]},
        "density": {"kind": "raised_cosine", "params": [0, 1]},
        "seed": 2,
    }
    path = tmp_path / "ap.json"
    path.write_text(json.dumps(cfg))
    code = run(["apriori", "--config", str(path), "--box", "12", "--trials", "200",
                "--out", str(tmp_path / "ap")])
    assert code == 0
    assert "nonlocal-apriori-bound" in (tmp_path / "ap_summary.csv").read_text()


def test_apriori_in_d2_probes_the_box_of_radius_box(tmp_path):
    cfg = {
        "dimension": 2,
        "lambda": 10.0,
        "potential": {"support": [[[0, 0], 1.0], [[1, 0], -0.25]]},
        "density": {"kind": "raised_cosine", "params": [0, 1]},
        "seed": 2,
    }
    path = tmp_path / "ap2.json"
    path.write_text(json.dumps(cfg))
    model, _ = load_model_config(str(path))
    # first and last site, the middle site twice, first and middle site of the 3 x 3 box, not of a chain
    pairs = [((-1, -1), (1, 1)), ((0, 0), (0, 0)), ((-1, -1), (0, 0))]
    want = moments.estimate_moments(model, build_box(1, (0, 0)), 0.5j, 1.0 / 3.0, pairs, 30, 2)
    assert run(["apriori", "--config", str(path), "--box", "1", "--trials", "30", "--out", str(tmp_path / "ap")]) == 0
    with open(tmp_path / "ap.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[:4] for row in rows] == [[str(x), str(y), repr(est.mean), repr(est.stderr)]
                                         for (x, y), est in zip(pairs, want)]


def test_apriori_draws_one_block_and_solves_once_per_trial(tmp_path, monkeypatch):
    cfg = {
        "dimension": 1,
        "lambda": 10.0,
        "potential": {"support": [[[0], 1.0], [[1], -0.25]]},
        "density": {"kind": "raised_cosine", "params": [0, 1]},
        "seed": 2,
    }
    path = tmp_path / "ap.json"
    path.write_text(json.dumps(cfg))
    trials, box = 40, 9
    # the three pairs apriori probes, as separate one-pair estimates
    model, _ = load_model_config(str(path))
    geometry = explicit_geometry([(k,) for k in range(box)])
    pairs = [((0,), (box - 1,)), ((box // 2,), (box // 2,)), ((0,), (box // 2,))]
    want = [moments.estimate_moment(model, geometry, 0.5j, 0.5, x, y, trials, 2) for x, y in pairs]

    counts = {"sample": 0, "trial_stream": 0, "green_column": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DisorderDensity, "sample", counting("sample", DisorderDensity.sample))
    monkeypatch.setattr(moments, "trial_stream", counting("trial_stream", moments.trial_stream))
    monkeypatch.setattr(moments.DisorderSampler, "green_column",
                        counting("green_column", moments.DisorderSampler.green_column))
    code = run(["apriori", "--config", str(path), "--box", str(box), "--trials", str(trials),
                "--s", "0.5", "--imag", "0.5", "--out", str(tmp_path / "ap")])
    assert code == 0
    assert counts == {"sample": 1, "trial_stream": trials, "green_column": trials}
    with open(tmp_path / "ap.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[:4] for row in rows] == [[str(x), str(y), repr(est.mean), repr(est.stderr)]
                                         for (x, y), est in zip(pairs, want)]


def test_finite_volume_subcommand(tmp_path):
    cfg = {
        "dimension": 1,
        "lambda": 4.0,
        "potential": {"support": [[[0], 1.0]]},
        "density": {"kind": "uniform", "params": [0, 1]},
        "seed": 9,
    }
    path = tmp_path / "fv.json"
    path.write_text(json.dumps(cfg))
    code = run(["finite-volume", "--config", str(path), "--region", "8", "--L", "2",
                "--trials", "60", "--out", str(tmp_path / "fv")])
    assert code == 0
    lines = (tmp_path / "fv.csv").read_text().splitlines()
    assert lines[0] == "boundary_site,mean,stderr"


def test_regularity_subcommand(tmp_path):
    cfg = {
        "dimension": 1,
        "lambda": 5000.0,
        "potential": {"support": [[[0], 1.0]]},
        "density": {"kind": "uniform", "params": [0, 1]},
        "seed": 13,
    }
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(cfg))
    code = run(["regularity", "--config", str(path), "--L", "3", "--separation", "12",
                "--grid", "5", "--m", "0.2", "--trials", "20", "--out", str(tmp_path / "r")])
    assert code == 0
    assert (tmp_path / "r.csv").read_text().splitlines()[0] == "energy,frequency"


def test_moments_subcommand(model_cfg, tmp_path):
    code = run(["moments", "--config", str(model_cfg), "--box", "8", "--dist", "3",
                "--trials", "100", "--out", str(tmp_path / "m")])
    assert code == 0


def test_usage_error_exit_code(model_cfg):
    assert run(["decay", "--config", str(model_cfg), "--definitely-not-a-flag"]) == 1
    assert run(["not-a-command"]) == 1


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope }")
    assert run(["spectrum", "--config", str(bad)]) == 1


def _tail(**kw):
    """A config edit: u is a bare exponential tail with C = alpha = 1 and radius 4 unless kw says otherwise."""
    return lambda cfg: {**cfg, "potential": {"tail": {"C": 1.0, "alpha": 1.0, "radius": 4, **kw}}}


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: [cfg], "config must be a JSON object"),
    (lambda cfg: {**cfg, "potential": [1.0]}, "potential must be a JSON object"),
    (lambda cfg: {**cfg, "potential": {"support": 5}}, "potential.support must be a JSON list"),
    (lambda cfg: {**cfg, "potential": {**cfg["potential"], "tail": 3}}, "potential.tail must be a JSON object"),
    (lambda cfg: {**cfg, "density": {"kind": "uniform", "params": None}}, "density.params must be a JSON list"),
    (lambda cfg: {**cfg, "dimension": [1]}, "dimension must be an integer"),
    (lambda cfg: {**cfg, "potential": {"support": [], "tail": {"alpha": 1.0, "radius": 4}}},
     "missing required key 'potential.tail.C'"),
    (lambda cfg: {**cfg, "potential": {"support": [[[0]]]}}, "potential.support[0] must have 2 entries"),
    (lambda cfg: {**cfg, "density": {"kind": "uniform", "params": [0]}}, "density.params must have 2 entries"),
    (lambda cfg: {**cfg, "lambda": "5"}, "lambda must be a number"),
    (lambda cfg: {**cfg, "seed": 7.5}, "seed must be an integer"),
    (lambda cfg: {**cfg, "seed": True}, "seed must be an integer"),
    (_tail(sign=3), "tail sign must be 1 or -1, got 3"),
    (_tail(sign=0), "tail sign must be 1 or -1, got 0"),
    (_tail(sign=-2), "tail sign must be 1 or -1, got -2"),
    (lambda cfg: {**cfg, "potential": {"support": []}}, "potential must not be identically zero"),
    (lambda cfg: {**cfg, "potential": {"tail": {"C": 0, "alpha": 1.0, "radius": 4}}},
     "tail_amplitude must be positive and finite"),
    (lambda cfg: {**cfg, "potential": {"tail": {"C": 1.0, "alpha": -1.0, "radius": 4}}},
     "tail_rate must be positive and finite"),
    (lambda cfg: {**cfg, "potential": {"tail": {"C": 1.0, "alpha": 1.0, "radius": 0}}},
     "truncation_radius must be >= 1 and an integer"),
    (lambda cfg: {**cfg, "potential": {"support": [[[1], 1.0]]}}, "u must satisfy 0 in supp u"),
    (lambda cfg: {**cfg, "density": {"kind": "uniform", "params": [1, 0]}},
     "params must be a finite interval a <= b"),
    (lambda cfg: {**cfg, "density": {"kind": "raised_cosine", "params": [1, 1]}}, "raised_cosine(a,b) needs b > a"),
    (lambda cfg: {**cfg, "density": {"kind": "piecewise_linear", "params": [[0, 1]]}},
     "piecewise_linear needs at least two knots"),
    (lambda cfg: {**cfg, "density": {"kind": "piecewise_linear", "params": [[1, 1], [0, 1]]}},
     "knot abscissae must be strictly increasing"),
    (lambda cfg: {**cfg, "density": {"kind": "piecewise_linear", "params": [[0, 1], [0, 1]]}},
     "knot abscissae must be strictly increasing"),
    (lambda cfg: {**cfg, "density": {"kind": "piecewise_linear", "params": [[0, -1], [1, 2]]}},
     "density values must be nonnegative"),
    (lambda cfg: {**cfg, "density": {"kind": "piecewise_linear", "params": [[0, 0], [1, 0]]}},
     "density must have positive mass"),
    (lambda cfg: {**cfg, "density": {"kind": "discrete", "params": [[0, 0.5], [1, 0.5]]}},
     "atomic disorder measures are not supported"),
    (lambda cfg: {**cfg, "density": {"kind": "gaussian", "params": [0, 1]}}, "unknown density kind 'gaussian'"),
    (lambda cfg: {**cfg, "dimension": 0, "potential": {"support": [[[], 1.0]]}}, "dimension must be >= 1"),
    (lambda cfg: {**cfg, "lambda": -1.0}, "coupling lambda must be >= 0"),
    # json reads NaN and Infinity, which json.dumps writes for these floats
    (lambda cfg: {**cfg, "lambda": math.nan}, "error: lambda must be finite"),
    (lambda cfg: {**cfg, "lambda": math.inf}, "error: lambda must be finite"),
    (lambda cfg: {**cfg, "lambda": 10 ** 400}, "error: lambda must be finite"),
    (lambda cfg: {**cfg, "density": {"kind": "uniform", "params": [0, math.inf]}},
     "error: density.params[1] must be finite"),
    (lambda cfg: {**cfg, "density": {"kind": "uniform", "params": [-math.inf, 1]}},
     "error: density.params[0] must be finite"),
    (lambda cfg: {**cfg, "density": {"kind": "piecewise_linear", "params": [[0, 0], [0.5, math.nan], [1, 0]]}},
     "error: density.params[1][1] must be finite"),
    (lambda cfg: {**cfg, "potential": {"support": [[[0], math.nan]]}}, "error: potential.support[0][1] must be finite"),
    (_tail(C=math.inf), "error: potential.tail.C must be finite"),
    (_tail(alpha=math.nan), "error: potential.tail.alpha must be finite"),
], ids=["top-level-list", "potential-list", "support-number", "tail-number", "params-null", "dimension-list",
        "tail-without-C", "support-entry-of-one", "params-of-one", "lambda-string", "seed-float", "seed-bool",
        "tail-sign-3", "tail-sign-0", "tail-sign-minus-2", "potential-zero", "tail-C-zero", "tail-alpha-negative",
        "tail-radius-zero", "origin-outside-support", "uniform-reversed", "raised-cosine-empty", "one-knot",
        "knots-decreasing", "knots-repeated", "knot-negative", "knots-no-mass", "discrete-density", "unknown-density",
        "dimension-zero", "lambda-negative", "lambda-nan", "lambda-inf", "lambda-integer-past-every-float",
        "uniform-b-inf", "uniform-a-minus-inf", "knot-value-nan", "support-value-nan", "tail-C-inf", "tail-alpha-nan"])
def test_malformed_config_section_exit_1(model_cfg, tmp_path, capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads(model_cfg.read_text()))))
    assert run(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


# valid configs that between them use every key the loader reads (checked against the schema below)
_VALID_CONFIGS = [
    {"dimension": 1, "lambda": 2.0,
     "potential": {"support": [[[0], 1.0]], "tail": {"C": 1.0, "alpha": 1.0, "radius": 3, "sign": -1}},
     "density": {"kind": "piecewise_linear", "params": [[0, 0], [0.5, 2], [1, 0]]}, "seed": 3},
    {"dimension": 2, "lambda": 5,
     "potential": {"support": [[[0, 0], 1.0], [[1, 0], -0.5]], "tail": {"C": 1, "alpha": 0.5, "radius": 2}},
     "density": {"kind": "uniform", "params": [0, 1]}, "seed": 1},
]
_JSON_VALUES = {"null": st.none(), "boolean": st.booleans(), "number": st.integers(-3, 3) | st.floats(-3, 3),
                "string": st.text(max_size=3), "array": st.lists(st.integers(-2, 2), max_size=2),
                "object": st.dictionaries(st.sampled_from(["C", "kind"]), st.integers(0, 2), max_size=1)}


def _json_type(value) -> str:
    kinds = ((type(None), "null"), (bool, "boolean"), ((int, float), "number"), (str, "string"), (list, "array"))
    return next((name for cls, name in kinds if isinstance(value, cls)), "object")


def _key_paths(section: dict, path=()):
    """The path of every object key in a config, nested objects included, as tuples."""
    for key, value in section.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))


def _schema_paths(table, path=()):
    """The path of every key in a section table of the config schema, nested sections included."""
    for key, (kind, _) in table.items():
        yield path + (key,)
        if isinstance(kind, dict):
            yield from _schema_paths(kind, path + (key,))


def test_valid_configs_use_exactly_the_schema_keys():
    used = {p for cfg in _VALID_CONFIGS for p in _key_paths(cfg)}
    assert used == set(_schema_paths(_SCHEMA))


@st.composite
def mutated_configs(draw):
    """(config, dotted path): a valid config with the value at one path dropped, swapped
    for a value of another JSON type, or wrapped in a list.  The path is an object key,
    then list indices while a coin says descend, so section keys are drawn as often as leaves."""
    cfg = copy.deepcopy(draw(st.sampled_from(_VALID_CONFIGS)))
    path = draw(st.sampled_from(list(_key_paths(cfg))))
    while isinstance(value := reduce(getitem, path, cfg), list) and value and draw(st.booleans()):
        path += (draw(st.integers(0, len(value) - 1)),)
    parent, key = reduce(getitem, path[:-1], cfg), path[-1]
    how = draw(st.sampled_from(["drop", "swap", "wrap"]))
    if how == "drop":
        del parent[key]
    elif how == "swap":
        parent[key] = draw(st.one_of(*(v for name, v in _JSON_VALUES.items() if name != _json_type(parent[key]))))
    else:
        parent[key] = [parent[key]]
    return cfg, "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _nested(a: str, b: str) -> bool:
    """One dotted key path is the other or lies inside it."""
    return any(y == x or y.startswith((x + ".", x + "[")) for x, y in ((a, b), (b, a)))


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_a_mutated_config_loads_or_exits_1_naming_the_key(mutation):
    cfg, path = mutation
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "model.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        try:
            load_model_config(cfg_path)
            return
        except ValueError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["spectrum", "--config", cfg_path, "--out", os.path.join(tmp, "o")]) == 1
        assert not os.path.exists(os.path.join(tmp, "o.csv"))
    err = err.getvalue()
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    # a type error names the key path that holds the wrong type: the mutated one, one inside it or around it
    typed = re.match(r"error: (\S+) must be (an integer|a number|a string|a JSON list|a JSON object), got ", err)
    assert typed is None or _nested(typed.group(1), path), (path, err)


# the last two runs solve and integrate: moments races two workers to the first banded solve
_SCIPY_RUNS = [["spectrum", "--box", "4"], ["green-identities", "--instances", "2"], ["poscomb", "--l", "2"],
               ["conditional", "--attempts", "2000"],
               ["regularity", "--L", "2", "--separation", "8", "--grid", "3", "--trials", "2"],
               ["wegner", "--l", "2", "--trials", "4"],
               ["moments", "--box", "4", "--dist", "2", "--trials", "4", "--threads", "2"],
               ["averaging", "--instances", "1"]]

_SCIPY_CHILD = """
import json, sys
import alloylab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

config, out, runs = sys.argv[1:]
loaded, codes = {}, {}
cli.build_parser()
cli.load_model_config(config)
loaded["setup"] = scipy_modules()
random_at_setup = "numpy.random" in sys.modules
for argv in json.loads(runs):
    codes[argv[0]] = cli.run(argv + ["--config", config, "--out", f"{out}/{argv[0]}"])
    loaded[argv[0]] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes, "random_at_setup": random_at_setup}))
"""


@pytest.fixture(scope="module")
def scipy_loads(tmp_path_factory):
    """The scipy modules loaded after each step of one fresh CLI process, whether numpy.random was loaded
    after its set-up, each subcommand's exit code, and the config and output directory of its runs."""
    tmp = tmp_path_factory.mktemp("scipy")
    cfg = tmp / "model.json"
    cfg.write_text(json.dumps({"dimension": 1, "lambda": 50.0, "potential": {"support": [[[0], 1.0], [[1], -0.5]]},
                               "density": {"kind": "uniform", "params": [0, 1]}, "seed": 7}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_CHILD, str(cfg), str(tmp), json.dumps(_SCIPY_RUNS)],
                          env=env, capture_output=True, text=True, check=True)
    return {**json.loads(proc.stdout.splitlines()[-1]), "config": str(cfg), "out": tmp}


def test_cli_setup_loads_no_scipy(scipy_loads):
    # pytest itself loads scipy (see filterwarnings), so this runs in a fresh interpreter
    assert scipy_loads["loaded"]["setup"] == []


def test_cli_setup_loads_no_numpy_random(scipy_loads):
    # numpy.random loads on the first stream key, not at import: its import time would land in every start-up
    assert scipy_loads["random_at_setup"] is False


def test_subcommands_without_quadrature_or_banded_solves_load_no_scipy(scipy_loads):
    for name in ("spectrum", "green-identities", "poscomb", "conditional", "regularity", "wegner"):
        assert scipy_loads["codes"][name] == 0, name
        assert scipy_loads["loaded"][name] == [], name


def test_scipy_loads_on_first_use(scipy_loads):
    # each loads the one compiled module it calls, and no module of the scipy.linalg or scipy.integrate
    # package; _quadpack's first call imports scipy and scipy._lib._ccallback, a dozen small modules
    codes, loaded = scipy_loads["codes"], scipy_loads["loaded"]
    assert codes["moments"] == codes["averaging"] == 0
    assert loaded["moments"] == ["scipy.linalg._flapack"]
    added = sorted(set(loaded["averaging"]) - set(loaded["moments"]))
    assert [m for m in added if m.startswith(("scipy.integrate", "scipy.linalg"))] == ["scipy.integrate._quadpack"]
    assert all(m in ("scipy", "scipy.integrate._quadpack") or m.startswith(("scipy._", "scipy.version"))
               for m in added), added


_SCIPY_RACE_CHILD = """
import importlib.machinery, sys, threading, time
from alloylab.averaging import _scipy_module

name = "scipy.linalg._flapack"
start, got, loads = threading.Barrier(2), [], []
create = importlib.machinery.ExtensionFileLoader.create_module

def slow_create(self, spec):  # holds the first load open, so an unguarded second thread would start its own
    loads.append(spec.name)
    time.sleep(0.05)
    return create(self, spec)

importlib.machinery.ExtensionFileLoader.create_module = slow_create

def load():
    start.wait()
    got.append(_scipy_module(name))

workers = [threading.Thread(target=load) for _ in range(2)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join()
print(len(got), got[0] is got[1] is sys.modules[name], loads.count(name), "scipy.linalg" in sys.modules)
"""


def test_two_threads_loading_a_scipy_module_at_once_get_one_module():
    # no subcommand loads scipy from two threads, so the race is run on purpose, in a fresh interpreter:
    # here pytest has loaded scipy.linalg, and _scipy_module would return its module as it is
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_RACE_CHILD], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["2", "True", "1", "False"]  # one module object, from one load


def test_standalone_scipy_modules_write_the_bytes_of_the_packages(scipy_loads, tmp_path):
    import scipy.integrate  # noqa: F401  (both packages loaded here, as a caller that imports them would)
    import scipy.linalg  # noqa: F401

    for argv in _SCIPY_RUNS[-2:]:
        assert run(argv + ["--config", scipy_loads["config"], "--out", str(tmp_path / argv[0])]) == 0
        got = (tmp_path / f"{argv[0]}.csv").read_bytes()
        assert got and got == (scipy_loads["out"] / f"{argv[0]}.csv").read_bytes(), argv[0]


def test_missing_seed_rejected(tmp_path, capsys):
    cfg = {
        "dimension": 1,
        "lambda": 1.0,
        "potential": {"support": [[[0], 1.0]]},
        "density": {"kind": "uniform", "params": [0, 1]},
    }
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(cfg))
    for argv in (["decay", "--trials", "10", "--box", "6"], ["spectrum", "--box", "2"]):
        assert run(argv + ["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr() == ("", "error: this subcommand needs --seed (or a seed in the config)\n")
        assert not (tmp_path / "o.csv").exists()


def test_threads_flag_bitwise_stable(model_cfg, tmp_path):
    # apriori needs a density with an integrable derivative, which model_cfg's uniform one lacks
    cosine_cfg = tmp_path / "cosine.json"
    cosine_cfg.write_text(json.dumps({**json.loads(model_cfg.read_text()),
                                      "density": {"kind": "raised_cosine", "params": [0, 1]}}))
    for argv, cfg in ((["moments", "--box", "6", "--dist", "3", "--trials", "32"], model_cfg),
                      (["decay", "--trials", "64", "--box", "12"], model_cfg),
                      (["finite-volume", "--region", "8", "--L", "3", "--trials", "24"], model_cfg),
                      (["wegner", "--l", "4", "--trials", "40"], model_cfg),
                      (["regularity", "--L", "3", "--separation", "12", "--grid", "5", "--trials", "12"], model_cfg),
                      (["apriori", "--box", "8", "--trials", "32"], cosine_cfg)):
        out1, out2 = tmp_path / (argv[0] + "1"), tmp_path / (argv[0] + "3")
        base = argv + ["--config", str(cfg), "--seed", "3"]
        assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert run(base + ["--threads", "3", "--out", str(out2)]) == 0
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes(), argv[0]


def test_threads_flag_only_on_trial_subcommands(model_cfg):
    for name in ("spectrum", "green-identities", "averaging", "poscomb", "conditional"):
        assert run([name, "--config", str(model_cfg), "--threads", "2"]) == 1, name


_TRIAL_COMMANDS = [["moments", "--trials", "4"], ["decay", "--box", "4", "--trials", "4"],
                   ["finite-volume", "--region", "8", "--L", "3", "--trials", "4"],
                   ["wegner", "--l", "2", "--trials", "4"],
                   ["regularity", "--L", "2", "--separation", "8", "--grid", "2", "--trials", "2"],
                   ["apriori", "--box", "4", "--trials", "4"]]
# the parser is the only check of --threads on decay, finite-volume and apriori: their library calls take none
_COUNT_FLAGS = [(argv, "--threads", value) for argv in _TRIAL_COMMANDS for value in ("0", "-2", "abc")] + [
    ([name], "--instances", value) for name in ("green-identities", "averaging") for value in ("0", "-1", "x")] + [
    (["moments"], "--trials", "0"), (["finite-volume", "--region", "8", "--L", "3"], "--trials", "0"),
    (["regularity", "--L", "2", "--separation", "8", "--trials", "2"], "--grid", "0"),
    (["conditional"], "--attempts", "-4")]


def _count_flag_id(argv, flag, value):
    if flag == "--threads":
        return value if argv[0] == "moments" else f"{argv[0]}-threads-{value}"
    return {"--trials": f"{argv[0]}-no-trials", "--instances": f"{argv[0]}-instances-{value}",
            "--grid": "regularity-no-grid", "--attempts": "conditional-negative-attempts"}[flag]


@pytest.mark.parametrize("argv, flag, value", _COUNT_FLAGS, ids=[_count_flag_id(*case) for case in _COUNT_FLAGS])
def test_threads_flag_must_be_a_positive_integer(model_cfg, tmp_path, capsys, argv, flag, value):
    # --instances, --trials, --grid and --attempts take the same argparse type as --threads
    assert run(argv + ["--config", str(model_cfg), "--out", str(tmp_path / "o"), flag, value]) == 1
    assert f"error: argument {flag}: expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_run_builds_one_parser_per_process(model_cfg, monkeypatch):
    built = []

    def counting(build=cli.build_parser):
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["spectrum", "--box", "2"], ["poscomb", "--l", "2"], ["spectrum", "--box", "3"]):
        assert run(argv + ["--config", str(model_cfg)]) == 0
    assert len(built) == 1
    cli._parser.cache_clear()  # the next run builds from the real build_parser


_DEFAULTS = {  # every flag that each subcommand sets when given only --config
    "spectrum": {"box": 10},
    "green-identities": {"instances": 20},
    "averaging": {"instances": 50},
    "moments": {"box": 20, "dist": 5, "s": 0.25, "energy": 0.0, "imag": 0.5, "trials": 1000, "threads": 1},
    "decay": {"box": 60, "s": 0.5, "energy": 0.0, "imag": 0.5, "trials": 5000, "threads": 1},
    "finite-volume": {"region": 12, "L": 3, "s": 0.3, "energy": 0.0, "imag": 0.5, "trials": 500, "threads": 1},
    "wegner": {"l": 6, "emin": -0.1, "emax": 0.1, "trials": 2000, "threads": 1},
    "poscomb": {"l": 5},
    "regularity": {"L": 5, "separation": 20, "emin": -1.0, "emax": 1.0, "grid": 21, "m": 0.2, "trials": 200,
                   "threads": 1},
    "conditional": {"delta": 0.05, "delta_prime": 0.05, "attempts": 100000},
    "apriori": {"box": 15, "s": 1.0 / 3.0, "imag": 0.5, "trials": 800, "threads": 1},
}


@pytest.mark.parametrize("name", sorted(_DEFAULTS))
def test_parsed_defaults_of_every_subcommand(name):
    args = vars(cli.build_parser().parse_args([name, "--config", "c"]))
    assert args == {"command": name, "config": "c", "out": None, "seed": None,
                    "needs_seed": name != "poscomb", **_DEFAULTS[name]}
    assert type(args.get("threads", 1)) is int


def test_green_identity_gate_has_no_override(model_cfg, tmp_path, capsys):
    argv = ["green-identities", "--config", str(model_cfg), "--instances", "2", "--out", str(tmp_path / "o")]
    assert run(argv + ["--tol", "1"]) == 1
    assert "unrecognized arguments: --tol 1" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    assert run(argv) == 0
    (row,) = [r for r in csv.reader(open(tmp_path / "o_summary.csv")) if r[0] == "exact-identities-max-discrepancy"]
    assert row[2] == "1e-08"


@pytest.mark.parametrize("coupling, box", [(50.0, 3), (0.0, 16)], ids=["box-below-min-dist", "zero-coupling"])
def test_decay_with_no_distance_compared_reports_no_verdict(model_cfg, tmp_path, capsys, coupling, box):
    cfg = json.loads(model_cfg.read_text())
    cfg["lambda"] = coupling
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["decay", "--config", str(path), "--box", str(box), "--trials", "20", "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    assert "[----] 1d-decay-bound: value=0.0 bound=0.0" in capsys.readouterr().out
    (row,) = [r for r in csv.reader(open(tmp_path / "o_summary.csv")) if r[0] == "1d-decay-bound"]
    assert row[-1] == ""


@pytest.mark.parametrize("box", [3, 6])
def test_decay_rows_compared_to_no_bound_have_empty_bound_and_pass_cells(tmp_path, box):
    config = Path(__file__).resolve().parent.parent / "bench" / "configs" / "uniform_d1.json"
    argv = ["decay", "--config", str(config), "--box", str(box), "--trials", "20", "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    rows = list(csv.DictReader(open(tmp_path / "o.csv")))
    assert [int(r["distance"]) for r in rows] == list(range(1, box))
    for r in rows:  # supp u = {0, 1}, so min_dist = 2 (n + r) = 4
        compared = int(r["distance"]) >= 4
        assert (r["bound"] != "") == compared and (r["pass"] != "") == compared, r
        assert r["pass"] in (("true", "false") if compared else ("",)), r


def test_decay_with_no_fit_reports_no_rate(tmp_path, capsys):
    # one distance on a two-site chain: nothing to fit, and a slope of 0 would read as "no decay"
    config = Path(__file__).resolve().parent.parent / "bench" / "configs" / "uniform_d1.json"
    argv = ["decay", "--config", str(config), "--box", "2", "--trials", "50", "--seed", "3",
            "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    assert "[----] decay-rate-fit: value=\n" in capsys.readouterr().out
    (row,) = [r for r in csv.reader(open(tmp_path / "o_summary.csv")) if r[0] == "decay-rate-fit"]
    assert row == ["decay-rate-fit", "", "", "", ""]


def test_tail_config_with_only_zero_stored_values_keeps_its_dimension(model_cfg, tmp_path):
    cfg = json.loads(model_cfg.read_text())
    cfg.update(dimension=2, potential={"support": [[[1, 1], 0.0]], "tail": {"C": 1.0, "alpha": 1.0, "radius": 1}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["spectrum", "--config", str(path), "--box", "2", "--out", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 1 + 25


def test_decay_takes_the_coupling_from_the_config_only(model_cfg, tmp_path, capsys):
    argv = ["decay", "--config", str(model_cfg), "--box", "6", "--trials", "20", "--out", str(tmp_path / "o")]
    assert run(argv + ["--lambda", "5"]) == 1
    assert "unrecognized arguments: --lambda 5" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_a_cached_parser_runs_the_current_subcommand_function(model_cfg, monkeypatch):
    # the benchmark's tracer patches cmd_* after the parser is cached; the patched function must run
    argv = ["spectrum", "--config", str(model_cfg), "--box", "2"]
    assert run(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args, model, seed, out: calls.append(seed))
    assert run(argv) == 0
    assert calls == [7]


def test_a_reused_parser_keeps_no_state_from_the_last_run(model_cfg, tmp_path):
    decay = ["decay", "--config", str(model_cfg), "--box", "6", "--trials", "20"]
    assert run(decay + ["--s", "0.25", "--out", str(tmp_path / "first")]) == 0
    assert run(decay + ["--out", str(tmp_path / "reused")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-m", "alloylab.cli", *decay, "--out", str(tmp_path / "fresh")], env=env,
                   capture_output=True, check=True)
    for suffix in (".csv", "_summary.csv"):
        assert (tmp_path / f"reused{suffix}").read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()
    assert (tmp_path / "first.csv").read_bytes() != (tmp_path / "reused.csv").read_bytes()


def test_help_exits_0_on_every_run(capsys):
    for argv in (["--help"], ["decay", "--help"], ["--help"]):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: alloylab")


@pytest.mark.parametrize("seed, code", [("9223372036854775807", 0), ("9223372036854775808", 1),
                                        ("-9223372036854775808", 0), ("-9223372036854775809", 1)])
@pytest.mark.parametrize("argv", [["spectrum", "--box", "2"], ["moments", "--box", "4", "--dist", "2", "--trials", "4"]],
                         ids=["site-stream", "trial-stream"])
def test_seed_outside_the_64_bit_key_range_exits_1(model_cfg, tmp_path, capsys, argv, seed, code):
    out = tmp_path / "o"
    assert run(argv + ["--config", str(model_cfg), "--seed", seed, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and (tmp_path / "o.csv").exists()
        return
    assert err.startswith(f"error: stream key (seed={seed}, ") and err.count("\n") == 1
    assert "[-2**63, 2**63)" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("coupling, argv", [
    (0.0, ["finite-volume", "--region", "8", "--L", "3", "--trials", "4"]),
    (0.0, ["wegner", "--l", "3", "--trials", "4"]),
    (50.0, ["wegner", "--l", "3", "--trials", "4", "--emin", "0.1", "--emax", "-0.1"]),
    (50.0, ["conditional", "--attempts", "1"]),
    (50.0, ["moments", "--trials", "4", "--imag", "nan"]),
    (50.0, ["moments", "--trials", "4", "--energy", "inf"]),
    (50.0, ["finite-volume", "--region", "8", "--L", "3", "--trials", "4", "--imag", "nan"]),
    (50.0, ["regularity", "--L", "2", "--separation", "8", "--trials", "2", "--m", "nan"]),
    (50.0, ["regularity", "--L", "2", "--separation", "8", "--trials", "2", "--emin", "nan"]),
    (50.0, ["wegner", "--l", "3", "--trials", "4", "--emin", "nan"]),
    (50.0, ["decay", "--box", "6", "--trials", "4", "--imag", "nan"]),
], ids=["finite-volume-zero-coupling", "wegner-zero-coupling",
        "wegner-reversed-interval", "conditional-one-attempt",
        "moments-nan-imag", "moments-inf-energy", "finite-volume-nan-imag", "regularity-nan-m", "regularity-nan-emin",
        "wegner-nan-emin", "decay-nan-imag"])
def test_contract_violations_exit_1(model_cfg, tmp_path, capsys, coupling, argv):
    cfg = json.loads(model_cfg.read_text())
    cfg["lambda"] = coupling
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(argv + ["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


# one small run of every subcommand that has a float flag: an unchecked flag would finish quickly, not hang
_FLOAT_FLAG_RUNS = {
    "moments": ["--box", "6", "--dist", "2", "--trials", "4"],
    "decay": ["--box", "6", "--trials", "4"],
    "finite-volume": ["--region", "8", "--L", "3", "--trials", "4"],
    "wegner": ["--l", "3", "--trials", "4"],
    "regularity": ["--L", "2", "--separation", "8", "--grid", "3", "--trials", "2"],
    "conditional": ["--attempts", "100"],
    "apriori": ["--box", "6", "--trials", "4"],
}
_SUBPARSERS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
_FLOAT_FLAGS = [(name, action.option_strings[0]) for name, sp in _SUBPARSERS.items()
                for action in sp._actions if action.type is float]


def test_every_float_flag_has_a_small_run():
    assert {name for name, _ in _FLOAT_FLAGS} == set(_FLOAT_FLAG_RUNS)


# -inf goes as --flag=-inf: argparse reads a bare -inf as a flag of its own
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, flag", _FLOAT_FLAGS, ids=[f"{name}{flag}" for name, flag in _FLOAT_FLAGS])
def test_a_non_finite_float_flag_exits_1(model_cfg, tmp_path, capsys, name, flag, value):
    argv = [name, *_FLOAT_FLAG_RUNS[name], f"{flag}={value}", "--config", str(model_cfg), "--out", str(tmp_path / "o")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()
