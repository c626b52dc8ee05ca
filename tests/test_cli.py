"""End-to-end runs of the command-line experiment runner."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alloylab import cli, moments
from alloylab.cli import run
from alloylab.model import DisorderDensity, explicit_geometry, load_model_config, sample_configuration


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

    def recording(model, sites, seed):
        keys.append(seed)
        return sample_configuration(model, sites, seed)

    monkeypatch.setattr(cli, "sample_configuration", recording)
    runs = []
    for seed in (7, 8):
        keys.clear()
        assert run(["green-identities", "--config", str(model_cfg), "--instances", "3",
                    "--seed", str(seed), "--out", str(tmp_path / f"gi{seed}")]) == 0
        runs.append(set(keys))
    assert len(runs[0]) == len(runs[1]) == 3
    assert runs[0].isdisjoint(runs[1])


def test_decay_subcommand_and_determinism(model_cfg, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = ["decay", "--config", str(model_cfg), "--lambda", "50", "--s", "0.5",
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
], ids=["top-level-list", "potential-list", "support-number", "tail-number", "params-null", "dimension-list",
        "tail-without-C", "support-entry-of-one", "params-of-one", "lambda-string", "seed-float", "seed-bool"])
def test_malformed_config_section_exit_1(model_cfg, tmp_path, capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads(model_cfg.read_text()))))
    assert run(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


_SCIPY_CHILD = """
import json, sys
import alloylab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

config, out = sys.argv[1:]
loaded, codes = {}, {}
cli.build_parser()
cli.load_model_config(config)
loaded["setup"] = scipy_modules()
for argv in (["spectrum", "--box", "4"], ["green-identities", "--instances", "2"], ["poscomb", "--l", "2"],
             ["conditional", "--attempts", "2000"],
             ["regularity", "--L", "2", "--separation", "8", "--grid", "3", "--trials", "2"],
             ["moments", "--box", "4", "--dist", "2", "--trials", "4"], ["averaging", "--instances", "1"]):
    codes[argv[0]] = cli.run(argv + ["--config", config, "--out", f"{out}/{argv[0]}"])
    loaded[argv[0]] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


@pytest.fixture(scope="module")
def scipy_loads(tmp_path_factory):
    """The scipy modules loaded after each step of one fresh CLI process, and each subcommand's exit code."""
    tmp = tmp_path_factory.mktemp("scipy")
    cfg = tmp / "model.json"
    cfg.write_text(json.dumps({"dimension": 1, "lambda": 50.0, "potential": {"support": [[[0], 1.0], [[1], -0.5]]},
                               "density": {"kind": "uniform", "params": [0, 1]}, "seed": 7}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_CHILD, str(cfg), str(tmp)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_setup_loads_no_scipy(scipy_loads):
    # pytest itself loads scipy (see filterwarnings), so this runs in a fresh interpreter
    assert scipy_loads["loaded"]["setup"] == []


def test_subcommands_without_quadrature_or_banded_solves_load_no_scipy(scipy_loads):
    for name in ("spectrum", "green-identities", "poscomb", "conditional", "regularity"):
        assert scipy_loads["codes"][name] == 0, name
        assert scipy_loads["loaded"][name] == [], name


def test_scipy_loads_on_first_use(scipy_loads):
    codes, loaded = scipy_loads["codes"], scipy_loads["loaded"]
    assert codes["moments"] == codes["averaging"] == 0
    assert "scipy.linalg" in loaded["moments"] and "scipy.integrate" not in loaded["moments"]
    assert "scipy.integrate" in loaded["averaging"]


def test_missing_seed_rejected(tmp_path):
    cfg = {
        "dimension": 1,
        "lambda": 1.0,
        "potential": {"support": [[[0], 1.0]]},
        "density": {"kind": "uniform", "params": [0, 1]},
    }
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(cfg))
    assert run(["decay", "--config", str(path), "--trials", "10", "--box", "6"]) == 1


def test_threads_flag_bitwise_stable(model_cfg, tmp_path):
    for argv in (["decay", "--trials", "64", "--box", "12"],
                 ["finite-volume", "--region", "8", "--L", "3", "--trials", "24"],
                 ["wegner", "--l", "4", "--trials", "40"],
                 ["regularity", "--L", "3", "--separation", "12", "--grid", "5", "--trials", "12"]):
        out1, out2 = tmp_path / (argv[0] + "1"), tmp_path / (argv[0] + "3")
        base = argv + ["--config", str(model_cfg), "--seed", "3"]
        assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert run(base + ["--threads", "3", "--out", str(out2)]) == 0
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes(), argv[0]


def test_threads_flag_only_on_trial_subcommands(model_cfg):
    for name in ("spectrum", "green-identities", "averaging", "poscomb", "conditional"):
        assert run([name, "--config", str(model_cfg), "--threads", "2"]) == 1, name


@pytest.mark.parametrize("threads", ["0", "-2", "abc"])
def test_threads_flag_must_be_a_positive_integer(model_cfg, tmp_path, capsys, threads):
    argv = ["moments", "--trials", "4", "--config", str(model_cfg), "--out", str(tmp_path / "o")]
    assert run(argv + ["--threads", threads]) == 1
    assert "error: argument --threads: expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_bad_threads_environment_fails_only_the_trial_subcommands(model_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ALLOYLAB_THREADS", "abc")
    assert run(["spectrum", "--config", str(model_cfg), "--box", "3"]) == 0
    assert run(["poscomb", "--config", str(model_cfg), "--l", "2"]) == 0
    capsys.readouterr()
    moments = ["moments", "--trials", "4", "--config", str(model_cfg), "--out", str(tmp_path / "o")]
    assert run(moments) == 1
    assert "ALLOYLAB_THREADS), got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    assert run(moments + ["--threads", "2"]) == 0  # the flag overrides the environment


@pytest.mark.parametrize("coupling, argv", [
    (50.0, ["moments", "--trials", "0"]),
    (50.0, ["finite-volume", "--region", "8", "--L", "3", "--trials", "0"]),
    (0.0, ["finite-volume", "--region", "8", "--L", "3", "--trials", "4"]),
    (0.0, ["wegner", "--l", "3", "--trials", "4"]),
    (50.0, ["green-identities", "--instances", "0"]),
    (50.0, ["green-identities", "--instances", "-2"]),
    (50.0, ["averaging", "--instances", "0"]),
    (50.0, ["regularity", "--L", "2", "--separation", "8", "--trials", "2", "--grid", "0"]),
    (50.0, ["wegner", "--l", "3", "--trials", "4", "--emin", "0.1", "--emax", "-0.1"]),
    (50.0, ["conditional", "--attempts", "1"]),
    (50.0, ["conditional", "--attempts", "-4"]),
], ids=["moments-no-trials", "finite-volume-no-trials", "finite-volume-zero-coupling", "wegner-zero-coupling",
        "green-identities-no-instances", "green-identities-negative-instances", "averaging-no-instances",
        "regularity-no-grid", "wegner-reversed-interval", "conditional-one-attempt", "conditional-negative-attempts"])
def test_contract_violations_exit_1(model_cfg, tmp_path, capsys, coupling, argv):
    cfg = json.loads(model_cfg.read_text())
    cfg["lambda"] = coupling
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(argv + ["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o.csv").exists()
