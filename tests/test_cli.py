"""End-to-end runs of the command-line experiment runner."""

import json

import pytest

from alloylab.cli import run


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


@pytest.mark.parametrize("coupling, argv", [
    (50.0, ["moments", "--trials", "0"]),
    (50.0, ["finite-volume", "--region", "8", "--L", "3", "--trials", "0"]),
    (0.0, ["finite-volume", "--region", "8", "--L", "3", "--trials", "4"]),
    (0.0, ["wegner", "--l", "3", "--trials", "4"]),
], ids=["moments-no-trials", "finite-volume-no-trials", "finite-volume-zero-coupling", "wegner-zero-coupling"])
def test_contract_violations_exit_1(model_cfg, tmp_path, capsys, coupling, argv):
    cfg = json.loads(model_cfg.read_text())
    cfg["lambda"] = coupling
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(argv + ["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o.csv").exists()
